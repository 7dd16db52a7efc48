// Exact energy integration.
//
// The paper measures energy with two Wattsup Pro wall-socket meters (1 Hz
// sampling).  The simulator integrates each device's power exactly over
// piecewise-constant intervals (every device state change advances its
// integrator); Platform::snapshot sums the devices into the two meters.
#pragma once

#include <stdexcept>

#include "src/common/snapshot.h"
#include "src/common/units.h"

namespace gg::sim {

/// Exact integrator for piecewise-constant power.  Call `advance(t, p)` with
/// the power that was drawn since the previous call.
class EnergyIntegrator {
 public:
  /// Integrate `power_since_last` over [last_time, now] and move to `now`.
  void advance(Seconds now, Watts power_since_last) {
    if (now < last_) throw std::invalid_argument("EnergyIntegrator: time went backwards");
    energy_ += power_since_last * (now - last_);
    last_ = now;
  }

  [[nodiscard]] Joules energy() const { return energy_; }
  [[nodiscard]] Seconds last_time() const { return last_; }

  void reset(Seconds now) {
    last_ = now;
    energy_ = Joules{0.0};
  }

  /// Serialize the accumulated energy and the last accounting instant; a
  /// restored integrator continues the exact piecewise sum bit-for-bit.
  void save(common::SnapshotWriter& w) const {
    w.f64(last_.get());
    w.f64(energy_.get());
  }
  void load(common::SnapshotReader& r) {
    last_ = Seconds{r.f64()};
    energy_ = Joules{r.f64()};
  }

 private:
  Seconds last_{0.0};
  Joules energy_{0.0};
};

}  // namespace gg::sim

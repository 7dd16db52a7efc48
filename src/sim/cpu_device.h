// Simulated CPU package (AMD Phenom II X2 class) with DVFS.
//
// The CPU executes FIFO work items across its cores and additionally models
// the *synchronous-communication spin* the paper observed: with the CUDA 3.2
// blocking APIs, the host thread busy-waits at 100 % utilization while the
// GPU computes, which defeats the ondemand governor (Section VII-A, Fig. 6c).
// `set_spinning(true)` puts the device into that state: full utilization and
// full dynamic power on one core, but no work progress.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "src/sim/dvfs.h"
#include "src/sim/event_queue.h"
#include "src/sim/power_meter.h"
#include "src/sim/specs.h"

namespace gg::sim {

/// Work description for one CPU-side task.
struct CpuWork {
  /// Divisible work units; must be > 0.
  double units{1.0};
  /// Aggregate "ops" per unit (spread across the active cores).
  double ops_per_unit{0.0};
  /// Frequency-independent time per unit (memory stalls, I/O).
  Seconds overhead_per_unit{0.0};
  /// Cores used by this task (<= spec.cores); 0 means all cores.
  int active_cores{0};
};

/// Cumulative CPU activity counters for windowed utilization sampling.
struct CpuActivityCounters {
  /// Integral over time of package utilization in [0, 1]
  /// (busy cores / total cores; spinning counts as busy).
  double util_integral{0.0};
  /// Total time at least one core was busy or spinning.
  double busy_integral{0.0};
  /// Total time spent in the synchronous-wait spin state (no real work).
  double spin_integral{0.0};
};

class CpuDevice {
 public:
  using CompletionCallback = std::function<void()>;

  CpuDevice(EventQueue& queue, CpuSpec spec, DvfsTable table, std::size_t initial_level);

  /// The paper's testbed CPU at the peak P-state.
  static CpuDevice testbed_default(EventQueue& queue);

  // --- Execution ----------------------------------------------------------
  void submit(const CpuWork& work, CompletionCallback on_complete);
  [[nodiscard]] bool busy() const { return active_.has_value(); }
  [[nodiscard]] std::size_t queued() const { return fifo_.size(); }
  [[nodiscard]] Seconds predict_duration(const CpuWork& work) const;

  /// Enter/leave the synchronous-wait spin state.  Ignored (for power and
  /// utilization purposes) while real work is executing.
  void set_spinning(bool spinning);
  [[nodiscard]] bool spinning() const { return spinning_; }

  // --- DVFS ---------------------------------------------------------------
  void set_level(std::size_t level);
  [[nodiscard]] std::size_t level() const { return domain_.level(); }
  [[nodiscard]] Megahertz frequency() const { return domain_.frequency(); }
  [[nodiscard]] const DvfsTable& table() const { return domain_.table(); }
  [[nodiscard]] std::uint64_t frequency_transitions() const { return domain_.transitions(); }

  // --- Monitoring ---------------------------------------------------------
  /// Instantaneous package utilization in [0, 1].
  [[nodiscard]] double utilization_now() const;
  [[nodiscard]] CpuActivityCounters counters();
  [[nodiscard]] Joules energy();
  /// Energy consumed while in the spin state (used by the Fig. 6c
  /// CPU-throttling emulation: that energy is what an asynchronous stack
  /// could have spent at the lowest P-state instead).
  [[nodiscard]] Joules spin_energy();
  [[nodiscard]] Watts power_now() const;
  /// CPU-side power if idle at the given level (board power included).
  [[nodiscard]] Watts idle_power(std::size_t at_level) const;
  /// CPU-side power at the given level and package utilization (used by the
  /// Fig. 6c throttling emulation to price the spin loop at the lowest
  /// P-state).
  [[nodiscard]] Watts power_at(std::size_t at_level, double utilization) const;

  /// Account at now + period, now + 2 period, ... as account() would there,
  /// for a caller that knows the device's state holds still meanwhile (no
  /// event runs between the instants): the power, utilization and progress
  /// rate are read once, and each instant makes account()'s floating-point
  /// operations in account()'s order.  `visit(t, counters)` sees the
  /// counters each instant would leave and accepts or refuses them; the
  /// first refusal ends the run with that instant unaccounted.  Returns the
  /// number of instants accepted.  The accounting then stands at the last
  /// one, ahead of the queue's clock, so the caller moves the clock there
  /// before anything else runs (EventQueue::fire_inline).
  template <typename Visit>
  std::uint64_t account_held(Seconds period, Visit visit) {
    account();
    const Draw d = draw();
    Ledger held = ledger_;
    std::uint64_t count = 0;
    for (;;) {
      const Seconds t = held.last + period;
      const Seconds dt = t - held.last;
      if (dt <= Seconds{0.0}) break;  // account() would accrue nothing
      const CpuActivityCounters counters = counted(held.counters, dt.get(), d);
      if (!visit(t, counters)) break;
      accrue(held, t, d, counters);
      ++count;
    }
    ledger_ = held;
    return count;
  }

  [[nodiscard]] const CpuSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t tasks_completed() const { return tasks_completed_; }

  /// Serialize the package's accounting state (P-state, transition count,
  /// utilization/energy/spin integrals, completion counter).  Only legal at
  /// a quiescent instant: idle, not spinning, empty FIFO.
  void save(common::SnapshotWriter& w);
  /// Counterpart of save(); the device must be idle and built from the same
  /// spec/table (configuration is not serialized).
  void load(common::SnapshotReader& r);

 private:
  struct Active {
    CpuWork work;
    CompletionCallback on_complete;
  };

  /// What account() advances, up to the instant `last`.
  struct Ledger {
    Seconds last{0.0};
    CpuActivityCounters counters{};
    EnergyIntegrator energy{};
    Joules spin_energy{0.0};
    /// Work units the active task has done.
    double units_done{0.0};
  };

  /// What the device's current state accrues per second.
  struct Draw {
    Watts power{0.0};
    double util{0.0};
    /// Idle and spinning: spin time and spin energy accrue.
    bool spin{false};
    bool active{false};
    /// The active task's time per work unit.
    Seconds unit_time{0.0};
  };

  void account();
  [[nodiscard]] Draw draw() const;
  /// `c` advanced by `dt` seconds at the draw `d`.
  static CpuActivityCounters counted(CpuActivityCounters c, double dt, const Draw& d) {
    c.util_integral += d.util * dt;
    if (d.util > 0.0) c.busy_integral += dt;
    if (d.spin) c.spin_integral += dt;
    return c;
  }
  /// Advance `l` to `now` (> l.last) at the draw `d`; `counters` are
  /// counted(l.counters, now - l.last, d).
  static void accrue(Ledger& l, Seconds now, const Draw& d,
                     const CpuActivityCounters& counters) {
    const Seconds dt = now - l.last;
    l.energy.advance(now, d.power);
    l.counters = counters;
    if (d.spin) l.spin_energy += d.power * dt;
    if (d.active) l.units_done += dt / d.unit_time;
    l.last = now;
  }
  [[nodiscard]] Seconds unit_time(const CpuWork& w) const;
  [[nodiscard]] int effective_cores(const CpuWork& w) const;
  void start_next_if_idle();
  void schedule_completion();
  void on_completion_event();

  EventQueue& queue_;
  CpuSpec spec_;
  FreqDomain domain_;

  std::deque<Active> fifo_;
  std::optional<Active> active_;
  EventHandle completion_;
  bool spinning_{false};

  Ledger ledger_{};
  std::uint64_t tasks_completed_{0};
};

}  // namespace gg::sim

#include "src/sim/power_meter.h"

#include <stdexcept>

namespace gg::sim {

void EnergyIntegrator::advance(Seconds now, Watts power_since_last) {
  if (now < last_) throw std::invalid_argument("EnergyIntegrator: time went backwards");
  energy_ += power_since_last * (now - last_);
  last_ = now;
}

}  // namespace gg::sim

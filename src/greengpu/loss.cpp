#include "src/greengpu/loss.h"

#include <stdexcept>

#include "src/common/units.h"

namespace gg::greengpu {

std::vector<double> umean_table(const sim::DvfsTable& table) {
  std::vector<double> u(table.levels());
  for (std::size_t i = 0; i < table.levels(); ++i) u[i] = table.range_fraction(i);
  return u;
}

LevelLoss raw_loss(double u, double umean_i) {
  u = clamp_unit(u);
  umean_i = clamp_unit(umean_i);
  LevelLoss l;
  if (u > umean_i) {
    // The workload stresses the resource more than this level delivers:
    // choosing it would cost performance.
    l.performance = u - umean_i;
  } else {
    // The level delivers more than the workload needs: energy is wasted.
    l.energy = umean_i - u;
  }
  return l;
}

double component_loss(double u, double umean_i, double alpha) {
  if (alpha < 0.0 || alpha > 1.0) throw std::invalid_argument("alpha must be in [0,1]");
  const LevelLoss l = raw_loss(u, umean_i);
  return alpha * l.energy + (1.0 - alpha) * l.performance;
}

double total_loss(double core_loss, double mem_loss, double phi) {
  if (phi < 0.0 || phi > 1.0) throw std::invalid_argument("phi must be in [0,1]");
  return phi * core_loss + (1.0 - phi) * mem_loss;
}

double updated_weight(double weight, double loss, double beta) {
  if (beta <= 0.0 || beta >= 1.0) throw std::invalid_argument("beta must be in (0,1)");
  if (loss < 0.0 || loss > 1.0) throw std::invalid_argument("loss must be in [0,1]");
  return weight * (1.0 - (1.0 - beta) * loss);
}

QuantizedLossTable::QuantizedLossTable(const std::vector<double>& umean, double alpha,
                                       double scale)
    : levels_(umean.size()), rows_(101 * umean.size()) {
  for (unsigned pct = 0; pct <= 100; ++pct) {
    for (std::size_t i = 0; i < levels_; ++i) {
      // The exact expression the straight-line equations evaluate per step:
      // the runtime utilization is static_cast<double>(integer percent) / 100.0.
      rows_[pct * levels_ + i] =
          scale * component_loss(static_cast<double>(pct) / 100.0, umean[i], alpha);
    }
  }
}

}  // namespace gg::greengpu

// Table I loss functions and the umean utilization mapping (Section V-A).
//
// For every available frequency level the algorithm knows the utilization
// that level is "most suitable" for (`umean`): the peak frequency suits
// 100 % utilization, the lowest suits 0 %, and intermediate levels are
// linearly mapped over the frequency range (following Dhiman & Rosing [4]).
// Comparing the measured utilization `u` against `umean[i]` yields an energy
// loss (the level is faster than needed) or a performance loss (slower than
// needed), blended by alpha.
#pragma once

#include <cstddef>
#include <vector>

#include "src/sim/dvfs.h"

namespace gg::greengpu {

/// Energy/performance loss pair for one level (both in [0, 1]).
struct LevelLoss {
  double energy{0.0};       // l_ie: capacity wasted (u below umean)
  double performance{0.0};  // l_ip: capacity short (u above umean)
};

/// umean for every level of a DVFS table: peak -> 1.0, floor -> 0.0,
/// linear in frequency between (Section V-A).
[[nodiscard]] std::vector<double> umean_table(const sim::DvfsTable& table);

/// Table I: raw energy/performance loss of level `i` for utilization `u`.
[[nodiscard]] LevelLoss raw_loss(double u, double umean_i);

/// Eq. 1 / Eq. 2: blended per-component loss
///   l = alpha * l_e + (1 - alpha) * l_p.
[[nodiscard]] double component_loss(double u, double umean_i, double alpha);

/// Eq. 3: total loss of a (core level, memory level) pair
///   TotalLoss = phi * l_core + (1 - phi) * l_mem.
[[nodiscard]] double total_loss(double core_loss, double mem_loss, double phi);

/// Eq. 4: multiplicative weight update
///   w' = w * (1 - (1 - beta) * TotalLoss).
[[nodiscard]] double updated_weight(double weight, double loss, double beta);

/// Quantized per-level loss lookup for the scaler fast path.
///
/// NVML-style utilization samples are *integer percent* (nvml.h mirrors
/// nvmlUtilization_t), so the utilization a scaler step feeds into Eq. 1/2
/// can only take 101 distinct values — and
/// `component_loss` is a pure function of (u, umean_i, alpha).  Tabulating
/// all 101 rows at construction therefore makes the per-step loss
/// evaluation an exact lookup: row `pct` holds literally the doubles
/// `scale * component_loss(pct / 100.0, umean[i], alpha)` that the
/// straight-line equations (tests/greengpu/wma_oracle.h) compute, because
/// `pct / 100.0` here and the runtime's `rates.gpu / 100.0` are the same
/// double.
///
/// `scale` pre-folds the Eq. 3 blend weight (phi for the core table,
/// 1 - phi for the memory table): the pair loss of (i, j) then reduces to
/// one addition of two table entries, bit-identical to
/// `total_loss(lc_i, lm_j, phi)` — same multiplies, same add, same
/// rounding (the build targets plain x86-64, so no FMA contraction can
/// reassociate it).  With it, the Eq. 4 decay factor per pair costs one
/// fused multiply-subtract and zero transcendental calls; the decay "table"
/// is the pair of scaled rows plus the precomputed (1 - beta).
class QuantizedLossTable {
 public:
  /// Throws (via component_loss) if alpha is outside [0, 1].
  QuantizedLossTable(const std::vector<double>& umean, double alpha, double scale = 1.0);

  [[nodiscard]] std::size_t levels() const { return levels_; }

  /// Row of `levels()` scaled losses for integer utilization percent `pct`.
  /// Percentages above 100 clamp to the 100 row — exactly what
  /// `component_loss`'s clamp of u into [0, 1] produces for corrupt
  /// samples.
  [[nodiscard]] const double* row(unsigned pct) const {
    return rows_.data() + static_cast<std::size_t>(pct > 100 ? 100 : pct) * levels_;
  }

  [[nodiscard]] double at(unsigned pct, std::size_t level) const {
    return row(pct)[level];
  }

 private:
  std::size_t levels_;
  std::vector<double> rows_;  // 101 rows x levels_
};

}  // namespace gg::greengpu

// Structure-of-arrays kernels over campaign cells.
//
// The batch campaign engine gathers per-cell scalars (energies, times) into
// contiguous arrays and finalizes savings with these element-independent
// loops.  The scalar path calls the same kernels with n == 1, so the two
// engines are bit-identical by construction: every division and subtraction
// happens in the same IEEE-754 order on the same operands.
//
// Each kernel is a single pass of independent lanes — no reductions, no
// cross-lane data flow — so the compiler auto-vectorizes the plain loop.
#pragma once

#include <cstddef>

#include "src/common/annotations.h"

namespace gg::sim {

/// out[i] = baseline[i] > 0 ? 1 - value[i] / baseline[i] : 0
/// (the campaign's "energy saving vs baseline" per cell).
GG_HOT_BATCH inline void batch_saving_vs_baseline(const double* value,
                                                  const double* baseline,
                                                  double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = baseline[i] > 0.0 ? 1.0 - value[i] / baseline[i] : 0.0;
  }
}

/// out[i] = baseline[i] > 0 ? value[i] / baseline[i] - 1 : 0
/// (the campaign's "time delta vs baseline" per cell).
GG_HOT_BATCH inline void batch_rel_delta(const double* value, const double* baseline,
                                         double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = baseline[i] > 0.0 ? value[i] / baseline[i] - 1.0 : 0.0;
  }
}

}  // namespace gg::sim

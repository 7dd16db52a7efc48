// Core-memory frequency-pair weight tables for the WMA scaler.
//
// Two implementations share one concept:
//  * `WeightTable` — double precision, used by the software daemon (and the
//    WMA CPU governor);
//  * `FixedWeightTable` — 8-bit Q0.8 entries, validating the Section VI
//    claim that a 36-byte table with shift-add update logic is "accurate
//    enough for the purpose of picking up the largest weight".
//
// Each has one update path.  The straight-line Eq. 3/4 transcription the
// double table's fused update is checked against lives in
// tests/greengpu/wma_oracle.h.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "src/common/fixed_point.h"
#include "src/greengpu/params.h"

namespace gg::common {
class SnapshotWriter;
class SnapshotReader;
}  // namespace gg::common

namespace gg::greengpu {

/// Index of a (core level, memory level) pair.
struct PairIndex {
  std::size_t core{0};
  std::size_t mem{0};
  friend bool operator==(const PairIndex&, const PairIndex&) = default;
};

class WeightTable {
 public:
  /// All weights start equal (no preference in the initial state).
  WeightTable(std::size_t core_levels, std::size_t mem_levels);

  [[nodiscard]] std::size_t core_levels() const { return n_; }
  [[nodiscard]] std::size_t mem_levels() const { return m_; }
  [[nodiscard]] double weight(std::size_t core, std::size_t mem) const;

  /// Apply Eq. 3 + Eq. 4 to every entry, renormalize so the maximum weight
  /// is 1, apply the relative floor, and return the pair with the highest
  /// weight (ties break toward higher frequencies — lower indices — the
  /// performance-safe choice).  One decay pass plus one renormalize/floor
  /// pass that tracks the argmax.  Takes *pre-blended* per-level losses —
  /// `scaled_core_losses[i]` must equal `phi * core_loss_i` and
  /// `scaled_mem_losses[j]` must equal `(1 - phi) * mem_loss_j` (exactly
  /// what QuantizedLossTable rows built with those scales hold) — and the
  /// precomputed `1 - beta`.  Zero allocations and no per-cell argument
  /// validation: pointers must cover core_levels()/mem_levels() entries.
  PairIndex update_fused(const double* scaled_core_losses,
                         const double* scaled_mem_losses, double one_minus_beta,
                         double weight_floor);

  void reset();

  /// Serialize dimensions + weights (raw f64 bits, so restore is
  /// bit-identical).
  void save(common::SnapshotWriter& w) const;
  /// Restore into a table of the same dimensions; dimension mismatch throws
  /// common::SnapshotError (dimensions are configuration, not state).
  void load(common::SnapshotReader& r);

 private:
  [[nodiscard]] std::size_t idx(std::size_t core, std::size_t mem) const {
    return core * m_ + mem;
  }
  std::size_t n_;
  std::size_t m_;
  std::vector<double> w_;
};

/// Section VI hardware sketch: N x M bytes of Q0.8 weights.  The update is
/// expressed with fixed-point multiplies (what the shift-add datapath
/// computes); renormalization doubles all entries while the maximum is below
/// half scale, preserving order.
class FixedWeightTable {
 public:
  FixedWeightTable(std::size_t core_levels, std::size_t mem_levels);

  [[nodiscard]] std::size_t core_levels() const { return n_; }
  [[nodiscard]] std::size_t mem_levels() const { return m_; }
  [[nodiscard]] UQ08 weight(std::size_t core, std::size_t mem) const;
  /// Table storage footprint in bytes (6x6 levels -> 36 bytes, as in the
  /// paper).
  [[nodiscard]] std::size_t storage_bytes() const { return w_.size(); }

  void update(const std::vector<double>& core_losses,
              const std::vector<double>& mem_losses, double phi, double beta);

  /// Pair with the highest weight; ties break toward lower indices.
  [[nodiscard]] PairIndex argmax() const;

  void reset();

  /// See WeightTable::save/load; entries round-trip as their raw Q0.8 bytes.
  void save(common::SnapshotWriter& w) const;
  void load(common::SnapshotReader& r);

 private:
  [[nodiscard]] std::size_t idx(std::size_t core, std::size_t mem) const {
    return core * m_ + mem;
  }
  std::size_t n_;
  std::size_t m_;
  std::vector<UQ08> w_;
};

}  // namespace gg::greengpu

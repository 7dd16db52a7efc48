#include "src/greengpu/weight_table.h"

#include <algorithm>
#include <stdexcept>

#include "src/common/annotations.h"
#include "src/common/snapshot.h"
#include "src/greengpu/loss.h"

namespace gg::greengpu {

namespace {
void check_dims(std::size_t n, std::size_t m) {
  if (n == 0 || m == 0) throw std::invalid_argument("WeightTable: zero levels");
}
}  // namespace

WeightTable::WeightTable(std::size_t core_levels, std::size_t mem_levels)
    : n_(core_levels), m_(mem_levels), w_(core_levels * mem_levels, 1.0) {
  check_dims(n_, m_);
}

double WeightTable::weight(std::size_t core, std::size_t mem) const {
  if (core >= n_ || mem >= m_) throw std::out_of_range("WeightTable: index");
  return w_[idx(core, mem)];
}

GG_HOT PairIndex WeightTable::update_fused(const double* scaled_core_losses,
                                           const double* scaled_mem_losses,
                                           double one_minus_beta, double weight_floor) {
  // Pass 1 — decay.  Per cell this is the exact arithmetic of
  // updated_weight(w, total_loss(lc, lm, phi), beta): the pre-blended rows
  // supply phi*lc and (1-phi)*lm already rounded the way total_loss rounds
  // them, so loss is the same add and the decay the same multiply chain
  // (tests/greengpu/wma_oracle.h spells the per-cell calls out).
  double* w = w_.data();
  double max_w = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    const double ci = scaled_core_losses[i];
    double* row = w + i * m_;
    for (std::size_t j = 0; j < m_; ++j) {
      const double loss = ci + scaled_mem_losses[j];
      const double nw = row[j] * (1.0 - one_minus_beta * loss);
      row[j] = nw;
      max_w = std::max(max_w, nw);
    }
  }
  if (max_w <= 0.0) {
    reset();
    return PairIndex{0, 0};
  }
  // Pass 2 — renormalize so the maximum is 1 (pure rescaling: the argmax is
  // unaffected) and floor tiny weights so losers can recover in bounded
  // time.  The argmax is tracked over the *post*-renorm values in i-major
  // scan order with a strict-> comparison, so ties go to the first pair
  // (toward higher frequencies).
  PairIndex best{0, 0};
  double best_w = 0.0;
  const std::size_t total = n_ * m_;
  for (std::size_t k = 0; k < total; ++k) {
    const double nw = std::max(w[k] / max_w, weight_floor);
    w[k] = nw;
    if (k == 0) {
      best_w = nw;
    } else if (nw > best_w) {
      best_w = nw;
      best = PairIndex{k / m_, k % m_};
    }
  }
  return best;
}

void WeightTable::reset() { std::fill(w_.begin(), w_.end(), 1.0); }

FixedWeightTable::FixedWeightTable(std::size_t core_levels, std::size_t mem_levels)
    : n_(core_levels), m_(mem_levels), w_(core_levels * mem_levels, UQ08::one()) {
  check_dims(n_, m_);
}

UQ08 FixedWeightTable::weight(std::size_t core, std::size_t mem) const {
  if (core >= n_ || mem >= m_) throw std::out_of_range("FixedWeightTable: index");
  return w_[idx(core, mem)];
}

void FixedWeightTable::update(const std::vector<double>& core_losses,
                              const std::vector<double>& mem_losses, double phi,
                              double beta) {
  if (core_losses.size() != n_ || mem_losses.size() != m_) {
    throw std::invalid_argument("FixedWeightTable: loss vector size mismatch");
  }
  // Section VI datapath: quantize the per-pair loss to Q0.8 and apply the
  // update subtractively, w' = w - round(w * (1-beta) * loss), which a
  // shift-add unit computes exactly.  The subtractive form keeps pairs with
  // small loss differences separated where quantizing the decay *factor*
  // would collapse them (alpha_m = 0.02 produces sub-LSB factor deltas).
  const std::uint32_t beta_raw = UQ08::from_double(1.0 - beta).raw();  // (1-beta)
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < m_; ++j) {
      const double loss = total_loss(core_losses[i], mem_losses[j], phi);
      const std::uint32_t loss_raw = UQ08::from_double(loss).raw();
      auto& w = w_[idx(i, j)];
      const std::uint32_t prod = w.raw() * beta_raw * loss_raw;  // <= 2^24
      constexpr std::uint32_t kDenom = 255u * 255u;
      // Truncating divide (a shift in the real datapath): floor rounding
      // keeps pairs with adjacent loss codes separated, where
      // round-to-nearest would give both the same decrement.
      const std::uint32_t decrement = prod / kDenom;
      const std::uint32_t raw = w.raw();
      w = UQ08::from_raw(static_cast<std::uint8_t>(raw > decrement ? raw - decrement : 0));
    }
  }
  // Hardware renormalization: double every entry (a left shift) while the
  // maximum is below half scale.  Doubling preserves relative order exactly.
  for (;;) {
    std::uint8_t max_raw = 0;
    for (const auto& w : w_) max_raw = std::max(max_raw, w.raw());
    if (max_raw == 0) {
      reset();
      return;
    }
    if (max_raw > 127) return;
    for (auto& w : w_) {
      w = UQ08::from_raw(static_cast<std::uint8_t>(w.raw() * 2));
    }
  }
}

PairIndex FixedWeightTable::argmax() const {
  PairIndex best{0, 0};
  std::uint8_t best_w = w_[0].raw();
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < m_; ++j) {
      const std::uint8_t w = w_[idx(i, j)].raw();
      if (w > best_w) {
        best_w = w;
        best = PairIndex{i, j};
      }
    }
  }
  return best;
}

void FixedWeightTable::reset() { std::fill(w_.begin(), w_.end(), UQ08::one()); }

namespace {
void check_snapshot_dims(std::size_t saved_n, std::size_t saved_m, std::size_t n,
                         std::size_t m, const char* kind) {
  if (saved_n != n || saved_m != m) {
    throw common::SnapshotError(std::string(kind) + ": snapshot is " +
                                std::to_string(saved_n) + "x" + std::to_string(saved_m) +
                                " but table is " + std::to_string(n) + "x" +
                                std::to_string(m));
  }
}
}  // namespace

void WeightTable::save(common::SnapshotWriter& w) const {
  w.u64(n_);
  w.u64(m_);
  w.f64_vec(w_);
}

void WeightTable::load(common::SnapshotReader& r) {
  const auto n = static_cast<std::size_t>(r.u64());
  const auto m = static_cast<std::size_t>(r.u64());
  check_snapshot_dims(n, m, n_, m_, "WeightTable");
  w_ = r.f64_vec();
  if (w_.size() != n_ * m_) {
    throw common::SnapshotError("WeightTable: weight count does not match dimensions");
  }
}

void FixedWeightTable::save(common::SnapshotWriter& w) const {
  w.u64(n_);
  w.u64(m_);
  for (UQ08 q : w_) w.u8(q.raw());
}

void FixedWeightTable::load(common::SnapshotReader& r) {
  const auto n = static_cast<std::size_t>(r.u64());
  const auto m = static_cast<std::size_t>(r.u64());
  check_snapshot_dims(n, m, n_, m_, "FixedWeightTable");
  for (UQ08& q : w_) q = UQ08::from_raw(r.u8());
}

}  // namespace gg::greengpu

// Division across the CPU and multiple GPUs.
//
// The paper's application structure already anticipates several GPUs ("one
// pthread for one GPU", Section VI) even though its testbed has one.  Two
// generalizations of tier 1 to N+1 slots (slot 0 = CPU, slots 1..N = GPUs):
//
//  * `MultiStepDivider` — the paper's heuristic pairwise: each iteration,
//    move up to one `step` of work from the globally slowest slot to the
//    fastest.  The Section V-B oscillation safeguard generalizes to a
//    limiter: the move is capped at the linearly predicted pairwise balance
//    amount so the pair never overshoots (a veto would deadlock with more
//    than two slots).
//
//  * `MultiProfilingDivider` — the Qilin-style rate estimator: per-slot
//    processing rates from measured chunk times, shares proportional to
//    rates (the water-filling equal-finish solution).
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/common/stats.h"
#include "src/common/thread_checker.h"
#include "src/common/units.h"
#include "src/greengpu/model_dividers.h"
#include "src/greengpu/params.h"

namespace gg::common {
class SnapshotWriter;
class SnapshotReader;
}  // namespace gg::common

namespace gg::greengpu {

class MultiDivider {
 public:
  virtual ~MultiDivider() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Shares for the next iteration (slot 0 = CPU, then one per GPU).
  [[nodiscard]] virtual const std::vector<double>& shares() const = 0;
  /// Feed the per-slot chunk times of the just-finished iteration.
  virtual void update(const std::vector<Seconds>& slot_times) = 0;
  [[nodiscard]] virtual bool converged(int streak = 2) const = 0;
  virtual void reset() = 0;

  /// Serialize shares/streaks/rate filters; restore into a divider of the
  /// same kind and slot count (mismatch throws common::SnapshotError).
  virtual void save(common::SnapshotWriter& w) const = 0;
  virtual void load(common::SnapshotReader& r) = 0;
};

struct MultiStepParams {
  double step{0.05};
  /// Initial CPU share; the remainder starts split equally across GPUs.
  double initial_cpu_share{0.10};
  /// Slot-0 (CPU) cap, like the single-device max_ratio.
  double max_cpu_share{0.95};
  bool safeguard{true};
  /// Relative time spread below which the slots count as balanced.
  double balance_tolerance{0.05};
};

class MultiStepDivider final : public MultiDivider {
 public:
  /// `slots` counts the CPU plus all GPUs (>= 2).
  MultiStepDivider(std::size_t slots, MultiStepParams params = {});

  [[nodiscard]] std::string_view name() const override { return "multi-step"; }
  [[nodiscard]] const std::vector<double>& shares() const override { return shares_; }
  void update(const std::vector<Seconds>& slot_times) override;
  [[nodiscard]] bool converged(int streak = 2) const override {
    return hold_streak_ >= streak;
  }
  void reset() override;

  void save(common::SnapshotWriter& w) const override;
  void load(common::SnapshotReader& r) override;

 private:
  MultiStepParams params_;
  std::vector<double> shares_;
  int hold_streak_{0};
  /// Dividers are per-runner, single-owner state ("one pthread per GPU"
  /// feeds one divider); armed in debug/TSan builds, free in release.
  common::ThreadChecker owner_;
};

struct MultiProfilingParams {
  double initial_cpu_share{0.10};
  double max_cpu_share{0.95};
  double rate_alpha{0.5};
  double settle_tolerance{0.02};
};

class MultiProfilingDivider final : public MultiDivider {
 public:
  MultiProfilingDivider(std::size_t slots, MultiProfilingParams params = {});

  [[nodiscard]] std::string_view name() const override { return "multi-profiling"; }
  [[nodiscard]] const std::vector<double>& shares() const override { return shares_; }
  void update(const std::vector<Seconds>& slot_times) override;
  [[nodiscard]] bool converged(int streak = 2) const override {
    return settle_streak_ >= streak;
  }
  void reset() override;

  void save(common::SnapshotWriter& w) const override;
  void load(common::SnapshotReader& r) override;

  /// Estimated per-slot rates (share/second); 0 while unobserved.
  [[nodiscard]] std::vector<double> rates() const;

 private:
  MultiProfilingParams params_;
  std::vector<double> shares_;
  std::vector<std::optional<Ewma>> rate_;
  int settle_streak_{0};
  /// See MultiStepDivider::owner_.
  common::ThreadChecker owner_;
};

/// The N-slot counterpart of `kind` with default parameters: kStep gives a
/// MultiStepDivider, kProfiling a MultiProfilingDivider; kEnergyModel has
/// no N-slot form and throws std::invalid_argument.
[[nodiscard]] std::unique_ptr<MultiDivider> make_multi_divider(DividerKind kind,
                                                               std::size_t slots);

/// Equal-finish shares for the given per-slot rates (used by tests and the
/// profiling divider): share_i = rate_i / sum(rates).
[[nodiscard]] std::vector<double> waterfill_shares(const std::vector<double>& rates);

}  // namespace gg::greengpu

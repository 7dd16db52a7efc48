// The workload-division tier (Section V-B).
//
// After every iteration the controller compares the CPU chunk time `tc` with
// the GPU chunk time `tg` and moves the CPU share `r` one fixed step toward
// the slower side.  Because divisions are discrete, the share can oscillate
// around an optimum between two grid points; the safeguard linearly scales
// both measured times to the candidate share and holds the current division
// if the predicted ordering flips.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/units.h"
#include "src/greengpu/params.h"
#include "src/greengpu/telemetry.h"

namespace gg::greengpu {

/// Why the controller chose the ratio it chose (for traces and tests).
enum class DivisionAction {
  kIncreaseCpu,     // tc < tg: CPU finished first, give it more work
  kDecreaseCpu,     // tc > tg: CPU was the straggler, take work away
  kHold,            // times equal (within measurement) — keep the division
  kHoldSafeguard,   // a move was indicated but predicted to oscillate
  kHoldAtBound,     // a move was indicated but the ratio is at its bound
  kHoldDegraded,    // the iteration was degraded by faults — times are
                    // non-informative, keep the division unchanged
};

struct DivisionDecision {
  double ratio{0.0};  // CPU share enforced for the NEXT iteration
  DivisionAction action{DivisionAction::kHold};
};

/// What the runner measured for the iteration that just finished.
struct IterationFeedback {
  Seconds cpu_time{0.0};
  Seconds gpu_time{0.0};
  /// Total system energy of the iteration (model-based dividers use it;
  /// the paper's step heuristic does not).
  Joules total_energy{0.0};
  /// The iteration's times were distorted by injected faults (reroute,
  /// retry storm, thermal throttle): treat them as non-informative.  Only
  /// set by a hardened runner — the un-hardened baseline happily learns
  /// from the noise.
  bool degraded{false};
};

/// Division-algorithm interface.  The paper's tier 1 is `DivisionController`;
/// Section V-B notes GreenGPU "can be integrated with other sophisticated
/// global optimal algorithms" — see model_dividers.h for two of those.
class Divider {
 public:
  virtual ~Divider() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  /// CPU share for the next iteration.
  [[nodiscard]] virtual double ratio() const = 0;
  /// Feed the just-finished iteration's measurements; returns the decision
  /// for the next iteration.
  virtual DivisionDecision update(const IterationFeedback& feedback) = 0;
  /// True once the divider has held the same ratio for `streak` straight
  /// decisions.
  [[nodiscard]] virtual bool converged(int streak = 2) const = 0;
  virtual void reset() = 0;
  /// Replace the decision-retention policy of the divider's per-iteration
  /// log, if it keeps one (clears retained decisions).  Default: no-op for
  /// dividers without a log.
  virtual void set_record(RecordOptions /*opts*/) {}

  /// Serialize the divider's learned state (ratio, streaks, rate filters,
  /// retained history).  Restoring into a divider of the same kind and
  /// configuration continues the exact decision stream.
  virtual void save(common::SnapshotWriter& w) const = 0;
  /// Counterpart of save(); throws common::SnapshotError on mismatch.
  virtual void load(common::SnapshotReader& r) = 0;
};

/// The paper's light-weight step heuristic with the oscillation safeguard.
class DivisionController final : public Divider {
 public:
  explicit DivisionController(DivisionParams params);

  [[nodiscard]] std::string_view name() const override { return "step"; }
  [[nodiscard]] double ratio() const override { return ratio_; }

  DivisionDecision update(const IterationFeedback& feedback) override {
    if (feedback.degraded) return hold_degraded();
    return update(feedback.cpu_time, feedback.gpu_time);
  }

  /// Feed the measured times of the just-finished iteration executed at the
  /// current ratio; returns the decision for the next iteration.
  DivisionDecision update(Seconds cpu_time, Seconds gpu_time);

  /// True once the controller has held the same ratio for `streak` straight
  /// decisions (the convergence criterion used in the Fig. 7 analysis).
  [[nodiscard]] bool converged(int streak = 2) const override {
    return hold_streak_ >= streak;
  }

  [[nodiscard]] const DivisionParams& params() const { return params_; }
  /// Retained decision history (everything in kFull record mode — the
  /// default; empty under kRing/kCounters, see history_snapshot()).
  [[nodiscard]] const std::vector<DivisionDecision>& history() const {
    return history_.log();
  }
  /// Retained decisions, oldest first, under any record mode.
  [[nodiscard]] std::vector<DivisionDecision> history_snapshot() const {
    return history_.snapshot();
  }
  /// Decisions taken over the controller's lifetime, independent of
  /// retention.
  [[nodiscard]] std::uint64_t decision_count() const { return history_.total(); }
  void set_record(RecordOptions opts) override {
    history_ = DecisionRecorder<DivisionDecision>(opts);
  }

  void reset() override;

  void save(common::SnapshotWriter& w) const override;
  void load(common::SnapshotReader& r) override;

 private:
  DivisionDecision decide(Seconds tc, Seconds tg) const;
  /// Record a kHoldDegraded decision at the current ratio; the hold streak
  /// is left untouched (a degraded iteration is no evidence either way).
  DivisionDecision hold_degraded();

  DivisionParams params_;
  double ratio_;
  int hold_streak_{0};
  DecisionRecorder<DivisionDecision> history_;
};

/// Pure form of one division decision, exposed for property tests:
/// given (tc, tg) measured at `ratio`, return the next ratio per the
/// paper's rules.
[[nodiscard]] DivisionDecision division_step(const DivisionParams& params, double ratio,
                                             Seconds cpu_time, Seconds gpu_time);

}  // namespace gg::greengpu

// Pluggable CPU frequency governors.
//
// The paper uses the stock Linux *ondemand* policy for the CPU tier and
// notes that "other more sophisticated DVFS-based processor power management
// strategies ... can also be integrated into GreenGPU" (Section IV).  This
// header provides that integration point: a `CpuGovernor` interface with the
// linux-classic governors (performance, powersave, ondemand, conservative)
// plus a WMA-based learner that applies the paper's own Section V-A
// machinery to the CPU's P-states.
//
// Between two queue events the CPU's state is constant, so a governor whose
// decide() is a pure function of (utilization, level) keeps the level it
// settles on.  After a step() that keeps the level, tick() leaps over the
// following samples the queue would fire inline (up to the next heap entry
// or the run_until() horizon) in one loop that skips decide(), set_level()
// and the per-sample calls, yet still accounts the CPU and records each
// sample with the same floating-point operations at the same instants, so
// every result stays bit-identical to stepping each sample.  The leap ends
// at the first sample whose utilization leaves the level's hold_band();
// WmaCpuGovernor, which learns on every sample, has none and never leaps.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/greengpu/params.h"
#include "src/greengpu/telemetry.h"
#include "src/greengpu/weight_table.h"
#include "src/sim/event_queue.h"
#include "src/sim/monitor.h"
#include "src/sim/platform.h"

namespace gg::greengpu {

struct GovernorDecision {
  Seconds time{0.0};
  double util{0.0};
  std::size_t level{0};
};

/// Base class: periodic sampling plumbing and decision recording.
/// Subclasses implement `decide` mapping a windowed utilization to a P-state.
class CpuGovernor {
 public:
  virtual ~CpuGovernor() { detach(); }

  CpuGovernor(const CpuGovernor&) = delete;
  CpuGovernor& operator=(const CpuGovernor&) = delete;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Closed utilization interval; default-constructed it is empty.
  struct HoldBand {
    double lo{std::numeric_limits<double>::infinity()};
    double hi{-std::numeric_limits<double>::infinity()};
  };

  /// One sampling step: read utilization, decide, enforce, record.
  GovernorDecision step(Seconds now);

  /// Start/stop periodic invocation on the platform's queue.
  void attach();
  void detach();
  /// Start periodic invocation with the first step at the absolute instant
  /// `first_step` (must be >= now); used when restoring a saved run so the
  /// sampling phase continues exactly where the donor run left off.
  void attach_at(Seconds first_step);

  /// Serialize the governor's windowed-sampling and telemetry state (plus
  /// any learned state in subclasses).  A governor restored from this
  /// snapshot continues the exact decision stream the saved one would have
  /// produced.  load() into a governor of the same kind.
  virtual void save(common::SnapshotWriter& w) const;
  virtual void load(common::SnapshotReader& r);

  /// Sampling period: kGovernorInterval for every governor.
  [[nodiscard]] static constexpr Seconds interval() { return kGovernorInterval; }
  /// Retained decision log (everything in kFull record mode — the default;
  /// empty under kRing/kCounters, see decisions_snapshot()).
  [[nodiscard]] const std::vector<GovernorDecision>& decisions() const {
    return decisions_.log();
  }
  /// Retained decisions, oldest first, under any record mode.
  [[nodiscard]] std::vector<GovernorDecision> decisions_snapshot() const {
    return decisions_.snapshot();
  }
  /// Decisions taken over the governor's lifetime, independent of retention.
  [[nodiscard]] std::uint64_t decision_count() const { return decisions_.total(); }
  /// Replace the decision-retention policy (clears retained decisions).
  void set_record(RecordOptions opts) {
    decisions_ = DecisionRecorder<GovernorDecision>(opts);
  }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  /// Of those steps, the ones taken by a leap instead of step(), since
  /// construction (telemetry: not checkpointed).
  [[nodiscard]] std::uint64_t leaped() const { return leaped_; }

 protected:
  explicit CpuGovernor(sim::Platform& platform);

  /// Map the windowed utilization (package, [0,1]) to the next P-state.
  [[nodiscard]] virtual std::size_t decide(double util) = 0;

  /// Windowed utilizations [lo, hi] at which decide() keeps the CPU at
  /// `level`, for a governor whose decide() is a pure function of the
  /// utilization and the current level.  The default, an empty band, fits
  /// a governor that learns on every sample: it never leaps.
  [[nodiscard]] virtual HoldBand hold_band(std::size_t /*level*/) const { return {}; }

  [[nodiscard]] sim::Platform& platform() { return *platform_; }
  [[nodiscard]] const sim::DvfsTable& table() const { return platform_->cpu().table(); }
  [[nodiscard]] std::size_t current_level() const { return platform_->cpu().level(); }

 private:
  /// Schedule the next tick() one interval from now.
  void arm();
  /// One periodic invocation: step(now), then every following sample that
  /// is due before any other event (EventQueue::fire_inline), leaping after
  /// each step() that kept the level, then arm().
  void tick();
  /// Take, without stepping, the samples after now that keep `level` and
  /// are due before any other event; fire them on the queue.
  void leap(std::size_t level);

  sim::Platform* platform_;
  sim::CpuUtilSampler sampler_;
  DecisionRecorder<GovernorDecision> decisions_;
  std::uint64_t steps_{0};
  std::uint64_t leaped_{0};
  sim::EventHandle next_;
};

/// linux `performance`: pin the highest frequency.
class PerformanceGovernor final : public CpuGovernor {
 public:
  explicit PerformanceGovernor(sim::Platform& platform) : CpuGovernor(platform) {}
  [[nodiscard]] std::string_view name() const override { return "performance"; }

 protected:
  std::size_t decide(double /*util*/) override { return 0; }
  HoldBand hold_band(std::size_t level) const override;
};

/// linux `powersave`: pin the lowest frequency.
class PowersaveGovernor final : public CpuGovernor {
 public:
  explicit PowersaveGovernor(sim::Platform& platform) : CpuGovernor(platform) {}
  [[nodiscard]] std::string_view name() const override { return "powersave"; }

 protected:
  std::size_t decide(double /*util*/) override { return table().lowest_level(); }
  HoldBand hold_band(std::size_t level) const override;
};

/// The paper's CPU policy (Section IV, linux-2.6.9 semantics): above
/// kOndemandUpThreshold jump straight to the peak; below
/// kOndemandDownThreshold step down one level.
class OndemandGovernor final : public CpuGovernor {
 public:
  explicit OndemandGovernor(sim::Platform& platform) : CpuGovernor(platform) {}
  [[nodiscard]] std::string_view name() const override { return "ondemand"; }

 protected:
  std::size_t decide(double util) override;
  HoldBand hold_band(std::size_t level) const override;
};

/// linux `conservative`: graceful one-step moves in both directions, at the
/// ondemand thresholds.
class ConservativeGovernor final : public CpuGovernor {
 public:
  explicit ConservativeGovernor(sim::Platform& platform) : CpuGovernor(platform) {}
  [[nodiscard]] std::string_view name() const override { return "conservative"; }

 protected:
  std::size_t decide(double util) override;
  HoldBand hold_band(std::size_t level) const override;
};

/// The paper's own WMA learner (Section V-A) applied to the CPU P-states:
/// a 1-D weight table over levels with the Table I loss and the linear
/// umean mapping.  This is the "more sophisticated strategy" integration
/// the paper gestures at.  It learns with the GPU scaler's default
/// constants: alpha 0.15 (Table I's energy-vs-performance blend), beta 0.2
/// and kWeightFloor.
class WmaCpuGovernor final : public CpuGovernor {
 public:
  explicit WmaCpuGovernor(sim::Platform& platform);
  [[nodiscard]] std::string_view name() const override { return "wma"; }
  [[nodiscard]] const WeightTable& weights() const { return table_; }

  void save(common::SnapshotWriter& w) const override;
  void load(common::SnapshotReader& r) override;

 protected:
  std::size_t decide(double util) override;

 private:
  std::vector<double> umean_;
  WeightTable table_;  // levels x 1
  /// Preallocated per-level loss row for the fused allocation-free update
  /// (the governor runs ~30x more often than the GPU scaler, so per-step
  /// vector churn mattered even more here).
  std::vector<double> scratch_losses_;
};

/// Governor selector for policies and the CLI.
enum class CpuGovernorKind {
  kNone,          // leave the CPU at its current (peak) P-state
  kPerformance,
  kPowersave,
  kOndemand,      // the paper's choice
  kConservative,
  kWma,
};

[[nodiscard]] std::string_view to_string(CpuGovernorKind kind);
[[nodiscard]] CpuGovernorKind cpu_governor_from_string(std::string_view name);

/// Factory.  Returns nullptr for kNone.
[[nodiscard]] std::unique_ptr<CpuGovernor> make_cpu_governor(CpuGovernorKind kind,
                                                             sim::Platform& platform);

}  // namespace gg::greengpu

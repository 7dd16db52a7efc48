// The workload-division tier (Section V-B) over a CPU-first share vector:
// slot 0 is the CPU, slots 1..N the GPUs ("one pthread for one GPU",
// Section VI).  After every iteration a divider sees each slot's chunk time
// and sets the shares of the next iteration.  Three algorithms, one
// interface:
//
//  * `StepDivider` — the paper's light-weight step heuristic.  With one GPU
//    it compares the CPU chunk time `tc` with the GPU chunk time `tg` and
//    moves the CPU share `r` one fixed step toward the slower side.  Because
//    divisions are discrete, the share can oscillate around an optimum
//    between two grid points; the safeguard linearly scales both measured
//    times to the candidate share and holds the current division if the
//    predicted ordering flips.  With N >= 2 GPUs it moves up to one step of
//    work from the globally slowest slot to the fastest, and the safeguard
//    becomes a limiter: the move is capped at the linearly predicted
//    pairwise balance amount (a veto would deadlock with more than two
//    slots).
//
//  * `ProfilingDivider` — the Qilin-style adaptive mapping of Luk et al.
//    [16] (Related Work): per-slot processing rates from the measured chunk
//    times, then shares proportional to the rates (the equal-finish point).
//    Minimizes execution time.
//
//  * `EnergyModelDivider` — fits E(r) ~ P_sys * T(r) + c_cpu * r (makespan
//    cost plus the extra CPU activity cost of the CPU share) to the observed
//    iterations by least squares and picks the share minimizing predicted
//    energy on a fine grid: one of the "sophisticated global optimal
//    algorithms" Section V-B says GreenGPU can integrate.  One GPU only.
//
// Where the one-GPU and N-GPU rules differ, each divider chooses by its slot
// count; callers never branch on it.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/greengpu/params.h"

namespace gg::common {
class SnapshotWriter;
class SnapshotReader;
}  // namespace gg::common

namespace gg::greengpu {

/// Why the controller chose the shares it chose (for traces and tests).
/// With N >= 2 GPUs the label follows the CPU share: a move between GPUs
/// alone reads kHold.
enum class DivisionAction {
  kIncreaseCpu,     // tc < tg: CPU finished first, give it more work
  kDecreaseCpu,     // tc > tg: CPU was the straggler, take work away
  kHold,            // times equal (within measurement) — keep the division
  kHoldSafeguard,   // a move was indicated but predicted to oscillate
  kHoldAtBound,     // a move was indicated but the ratio is at its bound
  kHoldDegraded,    // the iteration was degraded by faults — times are
                    // non-informative, keep the division unchanged
};

class Divider {
 public:
  virtual ~Divider() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Shares for the next iteration: the CPU first, then one per GPU.
  [[nodiscard]] const std::vector<double>& shares() const { return shares_; }
  /// Feed the just-finished iteration: each slot's chunk time (one per
  /// share), the iteration's total system energy (only the energy model
  /// reads it) and whether faults distorted the times.  A degraded
  /// iteration changes nothing and returns kHoldDegraded; only a hardened
  /// runner sets it — the un-hardened baseline learns from the noise.
  /// Throws std::invalid_argument on a slot-count mismatch or a negative
  /// time.
  DivisionAction update(const std::vector<Seconds>& slot_times, Joules total_energy,
                        bool degraded);
  /// True once the divider has held (or settled) for `streak` straight
  /// decisions.
  [[nodiscard]] bool converged(int streak = 2) const { return streak_ >= streak; }
  /// Back to the initial shares, forgetting everything learned.
  void reset();

  /// Serialize the learned state (shares, streak, rate filters, fit).
  /// Restoring into a divider of the same kind and slot count continues the
  /// exact decision stream; load() throws common::SnapshotError on a
  /// slot-count mismatch.
  void save(common::SnapshotWriter& w) const;
  void load(common::SnapshotReader& r);

 protected:
  /// `slots` counts the CPU plus all GPUs (>= 2); the CPU starts at
  /// `initial_cpu_share` and the GPUs split the rest equally.
  Divider(std::size_t slots, double initial_cpu_share);

  /// The decision for a non-degraded iteration whose times passed the checks.
  virtual DivisionAction rebalance(const std::vector<Seconds>& slot_times,
                                   Joules total_energy) = 0;
  virtual void reset_state() {}
  virtual void save_state(common::SnapshotWriter& /*w*/) const {}
  virtual void load_state(common::SnapshotReader& /*r*/) {}

  /// Set the CPU share and split the rest equally across the GPUs (with
  /// one GPU, shares_[1] = 1 - cpu exactly).
  void set_cpu_share(double cpu);

  std::vector<double> shares_;
  int streak_{0};

 private:
  double initial_cpu_share_;
};

class StepDivider final : public Divider {
 public:
  /// One GPU starts at `params.initial_ratio`; N >= 2 GPUs start the CPU at
  /// 10 %.  Throws std::invalid_argument on a step outside (0, 1) or a
  /// one-GPU initial ratio outside [kMinCpuShare, kMaxCpuShare].
  StepDivider(std::size_t slots, const DivisionParams& params);

  [[nodiscard]] std::string_view name() const override { return "step"; }

 private:
  DivisionAction rebalance(const std::vector<Seconds>& slot_times,
                           Joules total_energy) override;
  DivisionAction rebalance_pairwise(const std::vector<Seconds>& slot_times);

  DivisionParams params_;
};

class ProfilingDivider final : public Divider {
 public:
  /// One GPU probes at `params.initial_ratio` (0.30 when it is not inside
  /// (0, 1), so both sides produce a rate sample) and settles when the
  /// target moves by less than 2 % of itself.  N >= 2 GPUs start the CPU at
  /// 10 % and settle when no share moves by more than 0.02.
  ProfilingDivider(std::size_t slots, const DivisionParams& params);

  [[nodiscard]] std::string_view name() const override { return "qilin-profiling"; }
  /// Estimated processing rate of `slot` (share of the iteration per
  /// second); 0 until the slot has been observed.
  [[nodiscard]] double rate(std::size_t slot) const { return rate_[slot].value(); }

 private:
  DivisionAction rebalance(const std::vector<Seconds>& slot_times,
                           Joules total_energy) override;
  void reset_state() override;
  void save_state(common::SnapshotWriter& w) const override;
  void load_state(common::SnapshotReader& r) override;

  std::vector<Ewma> rate_;
};

class EnergyModelDivider final : public Divider {
 public:
  /// Throws std::invalid_argument unless `slots` is 2 (one GPU).
  explicit EnergyModelDivider(std::size_t slots = 2);

  [[nodiscard]] std::string_view name() const override { return "energy-model"; }

  /// Fitted model parameters (0 until enough observations).
  [[nodiscard]] double fitted_system_power() const { return p_sys_; }
  [[nodiscard]] double fitted_cpu_share_cost() const { return c_cpu_; }

  /// Predicted makespan at CPU share r from the current rate estimates.
  [[nodiscard]] double predict_makespan(double r) const;
  /// Predicted iteration energy at CPU share r from the fitted model.
  [[nodiscard]] double predict_energy(double r) const;

 private:
  struct Observation {
    double ratio;
    double makespan;
    double energy;
  };

  DivisionAction rebalance(const std::vector<Seconds>& slot_times,
                           Joules total_energy) override;
  void reset_state() override;
  void save_state(common::SnapshotWriter& w) const override;
  void load_state(common::SnapshotReader& r) override;
  void refit();

  int iteration_{0};
  std::vector<Ewma> rate_;
  std::vector<Observation> observations_;
  double p_sys_{0.0};
  double c_cpu_{0.0};
};

/// Divider selector for policies and the CLI.
enum class DividerKind {
  kStep,         // the paper's tier 1
  kProfiling,    // Qilin-style time balancing
  kEnergyModel,  // least-squares energy argmin
};

[[nodiscard]] std::string_view to_string(DividerKind kind);
[[nodiscard]] DividerKind divider_from_string(std::string_view name);

/// The divider of `kind` over `slots` shares (the CPU plus each GPU),
/// configured by `params`.  kEnergyModel has no N-GPU form: more than two
/// slots throws std::invalid_argument.
[[nodiscard]] std::unique_ptr<Divider> make_divider(DividerKind kind, std::size_t slots,
                                                    const DivisionParams& params);

/// One decision of the one-GPU step rule, exposed for property tests: given
/// (tc, tg) measured at CPU share `ratio`, the next share and its label.
struct DivisionDecision {
  double ratio{0.0};
  DivisionAction action{DivisionAction::kHold};
};
[[nodiscard]] DivisionDecision division_step(const DivisionParams& params, double ratio,
                                             Seconds cpu_time, Seconds gpu_time);

}  // namespace gg::greengpu

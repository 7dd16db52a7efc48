// All GreenGPU tunables with the paper's published defaults.
#pragma once

#include "src/common/units.h"

namespace gg::greengpu {

/// Parameters of the WMA-based GPU frequency-scaling tier (Section V-A).
struct WmaParams {
  /// Energy-vs-performance trade-off for the core loss (Eq. 1); the paper
  /// derives 0.15 from experiments.
  double alpha_core{0.15};
  /// Same for the memory loss (Eq. 2); paper value 0.02.
  double alpha_mem{0.02};
  /// Core-vs-memory balance in the total loss (Eq. 3); paper value 0.3.
  double phi{0.3};
  /// History-vs-new-loss trade-off in the weight update (Eq. 4); paper
  /// value 0.2.
  double beta{0.2};
  /// Scaling invocation period; the Fig. 5 experiment uses 3 s.
  Seconds interval{3.0};
  /// Harden the scaler against a flaky platform (sim/fault.h): hold
  /// weights on failed/stale samples, retry rejected clock writes with
  /// bounded backoff, fall back to the last applied pair.  Off by default
  /// so the perfect-platform behaviour is bit-identical.
  bool harden{false};
};

/// Relative floor applied to every weight after renormalization, so a pair
/// that lost for a long stretch can regain the argmax in bounded time.
/// (Implementation detail; the paper does not specify underflow handling.
/// 1e-2 keeps the learner responsive to phase changes — a previously losing
/// pair can win back the argmax within a few intervals, matching the "quick
/// workload change response" the paper tunes beta for.)
inline constexpr double kWeightFloor = 1e-2;

/// Parameters of the ondemand CPU governor (Section IV; linux-2.6.9 policy).
struct OndemandParams {
  /// Above this package utilization the governor jumps to the peak P-state.
  double up_threshold{0.80};
  /// Below this utilization it steps one P-state down.
  double down_threshold{0.30};
  /// Sampling period.
  Seconds interval{0.1};
};

/// Parameters of the workload-division tier (Section V-B), at any GPU
/// count (division.h).
struct DivisionParams {
  /// Division step; the paper uses 5 % as the hardware-dependent step.
  /// With N >= 2 GPUs, the most work one move shifts between two slots.
  double step{0.05};
  /// Initial CPU share with one GPU; Fig. 7a starts at 30 % (any value
  /// converges).  The Qilin divider probes at it.  With N >= 2 GPUs the CPU
  /// starts at 10 % instead.
  double initial_ratio{0.30};
  /// Enable the oscillation-safeguard prediction (Section V-B): a veto with
  /// one GPU, a never-overshoot limiter with N >= 2.
  bool safeguard{true};
};

/// Bounds on the CPU share, for every divider and GPU count.
inline constexpr double kMinCpuShare = 0.0;
inline constexpr double kMaxCpuShare = 0.95;

/// Fault-tolerance behaviour of the experiment harness (runner + launch
/// paths) when a `sim::FaultInjector` is active.  Disabled by default: the
/// un-hardened stack surfaces every injected fault, which is the baseline
/// the fault-rate ablation compares against.
struct HardeningParams {
  /// Master switch; also propagates `WmaParams::harden` semantics to the
  /// runner (degraded-iteration bookkeeping, division hold, launch retries,
  /// rerouting and the watchdog budget; see runner.cpp).
  bool enabled{false};
};

/// Top-level GreenGPU configuration: both tiers plus their decoupling rule
/// (the division interval must be much longer than the scaling interval;
/// the paper uses "no less than 40x", Section IV).
struct GreenGpuParams {
  WmaParams wma{};
  OndemandParams ondemand{};
  DivisionParams division{};
  HardeningParams hardening{};
};

}  // namespace gg::greengpu

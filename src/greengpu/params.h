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
};

/// Relative floor applied to every weight after renormalization, so a pair
/// that lost for a long stretch can regain the argmax in bounded time.
/// (Implementation detail; the paper does not specify underflow handling.
/// 1e-2 keeps the learner responsive to phase changes — a previously losing
/// pair can win back the argmax within a few intervals, matching the "quick
/// workload change response" the paper tunes beta for.)
inline constexpr double kWeightFloor = 1e-2;

/// The stock linux-2.6.9 ondemand thresholds (Section IV): above the upper
/// one the governor jumps to the peak P-state, below the lower one it steps
/// one P-state down.  The conservative governor moves one step either way.
inline constexpr double kOndemandUpThreshold = 0.80;
inline constexpr double kOndemandDownThreshold = 0.30;
/// Sampling period of every CPU governor.
inline constexpr Seconds kGovernorInterval{0.1};

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

/// Top-level GreenGPU configuration: both tiers plus their decoupling rule
/// (the division interval must be much longer than the scaling interval;
/// the paper uses "no less than 40x", Section IV).
struct GreenGpuParams {
  WmaParams wma{};
  DivisionParams division{};
  /// Defend every tier against a flaky platform (sim/fault.h): the scaler
  /// holds its weights on failed or stale samples and retries rejected clock
  /// writes, launches are retried and a failed slot's work rerouted, a
  /// degraded iteration does not move the division, and the watchdog lets
  /// a stuck iteration wait several budgets before aborting (runner.cpp).
  /// Off by default: the un-hardened stack surfaces every injected fault,
  /// the baseline the fault-rate ablation compares against.  Without a
  /// fault injector both settings run bit-identically.
  bool hardened{false};
};

}  // namespace gg::greengpu

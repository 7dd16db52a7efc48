// Energy-management policies: GreenGPU and every baseline the paper
// evaluates against.
//
//  * best-performance  — peak frequencies, all work on the GPU (the Rodinia
//    default configuration; baseline of Fig. 6 and Fig. 8).
//  * static pair       — fixed (core, memory) frequency levels (Fig. 1
//    sweeps).
//  * static division   — fixed CPU share at peak clocks (Fig. 2 sweep and
//    the oracle search of Section VII-B).
//  * Frequency-scaling — WMA GPU scaler + ondemand CPU, all work on GPU.
//  * Division          — dynamic division, peak clocks.
//  * GreenGPU          — both tiers (the holistic solution).
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "src/greengpu/cpu_governor.h"
#include "src/greengpu/division.h"
#include "src/greengpu/params.h"

namespace gg::greengpu {

struct Policy {
  std::string name;
  /// Enable the tier-1 dynamic division controller.
  bool division{false};
  /// Division algorithm used when `division` is true (kStep is the paper's),
  /// at any GPU count (division.h).
  DividerKind divider{DividerKind::kStep};
  /// Enable the tier-2 WMA GPU frequency scaler.
  bool gpu_scaling{false};
  /// CPU frequency governor (kNone leaves the CPU at peak; the paper's
  /// GreenGPU uses ondemand, and Section IV invites swapping in others).
  CpuGovernorKind cpu_governor{CpuGovernorKind::kNone};
  /// CPU share when `division` is false (GPU 0 runs the rest).
  double fixed_ratio{0.0};
  /// Fixed GPU (core, mem) levels when `gpu_scaling` is false; when unset,
  /// peak levels are enforced.
  std::optional<std::pair<std::size_t, std::size_t>> fixed_gpu_levels;
  /// Controller parameters (used by whichever tiers are enabled).
  GreenGpuParams params{};

  [[nodiscard]] static Policy best_performance(GreenGpuParams params = {}) {
    Policy p;
    p.name = "best-performance";
    p.params = params;
    return p;
  }

  [[nodiscard]] static Policy static_pair(std::size_t core_level, std::size_t mem_level,
                                          GreenGpuParams params = {}) {
    Policy p;
    p.name = "static-pair";
    p.fixed_gpu_levels = {core_level, mem_level};
    p.params = params;
    return p;
  }

  [[nodiscard]] static Policy static_division(double ratio, GreenGpuParams params = {}) {
    Policy p;
    p.name = "static-division";
    p.fixed_ratio = ratio;
    p.params = params;
    return p;
  }

  [[nodiscard]] static Policy scaling_only(GreenGpuParams params = {}) {
    Policy p;
    p.name = "frequency-scaling";
    p.gpu_scaling = true;
    p.cpu_governor = CpuGovernorKind::kOndemand;
    p.params = params;
    return p;
  }

  [[nodiscard]] static Policy division_only(GreenGpuParams params = {}) {
    Policy p;
    p.name = "division";
    p.division = true;
    p.params = params;
    return p;
  }

  /// Division with a non-default algorithm (Section V-B's "sophisticated
  /// global optimal algorithms" integration point).
  [[nodiscard]] static Policy division_with(DividerKind kind, GreenGpuParams params = {}) {
    Policy p;
    p.name = "division-" + std::string(greengpu::to_string(kind));
    p.division = true;
    p.divider = kind;
    p.params = params;
    return p;
  }

  [[nodiscard]] static Policy green_gpu(GreenGpuParams params = {}) {
    Policy p;
    p.name = "greengpu";
    p.division = true;
    p.gpu_scaling = true;
    p.cpu_governor = CpuGovernorKind::kOndemand;
    p.params = params;
    return p;
  }
};

/// The policy a plain name selects — best-performance (or baseline),
/// frequency-scaling (or scaling), division, greengpu — with `params`.  The
/// parameterized policies (static-pair, static-division) need more than a
/// name and are built by their factories.  Throws std::invalid_argument on
/// any other name.
[[nodiscard]] inline Policy policy_by_name(std::string_view name,
                                           const GreenGpuParams& params = {}) {
  if (name == "best-performance" || name == "baseline") {
    return Policy::best_performance(params);
  }
  if (name == "frequency-scaling" || name == "scaling") {
    return Policy::scaling_only(params);
  }
  if (name == "division") return Policy::division_only(params);
  if (name == "greengpu") return Policy::green_gpu(params);
  throw std::invalid_argument("unknown policy: " + std::string(name));
}

}  // namespace gg::greengpu

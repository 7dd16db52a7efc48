// Umbrella header: the whole GreenGPU public API in one include.
//
//   #include "src/greengpu/greengpu.h"
//
//   auto result = gg::greengpu::run_experiment(
//       "kmeans", gg::greengpu::Policy::green_gpu());
//
// Layers (see docs/ARCHITECTURE.md):
//   - params.h / loss.h / weight_table.h  — the paper's Section V machinery
//   - wma_scaler.h                        — Algorithm 1 as a daemon
//   - cpu_governor.h                      — ondemand and friends
//   - division.h                          — tier 1 and its alternatives,
//                                           over the CPU and N GPUs
//   - policy.h / runner.h                 — experiments on 1 or N GPUs
//   - campaign.h                          — result matrices and reports
#pragma once

#include "src/greengpu/campaign.h"
#include "src/greengpu/cpu_governor.h"
#include "src/greengpu/division.h"
#include "src/greengpu/loss.h"
#include "src/greengpu/params.h"
#include "src/greengpu/policy.h"
#include "src/greengpu/runner.h"
#include "src/greengpu/weight_table.h"
#include "src/greengpu/wma_scaler.h"

namespace gg::greengpu {

/// Library version, bumped with behavioural changes to the reproduction.
inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;

}  // namespace gg::greengpu

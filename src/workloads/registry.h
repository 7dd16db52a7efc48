// Name-based workload factory covering the full Table II suite.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/workloads/workload.h"

namespace gg::workloads {

/// Names of all Table II workloads, in the paper's order.
[[nodiscard]] std::vector<std::string> all_workload_names();

using WorkloadFactory = WorkloadPtr (*)();

/// The factory make_workload uses for `name`: a Table II name ("bfs", "lud",
/// "nbody", "pathfinder" (PF), "QG" (qrng), "srad_v2" (srad), "hotspot",
/// "kmeans", "streamcluster" (SC)) or a pipeline workload.  A table lookup
/// that constructs nothing; throws std::invalid_argument for unknown names.
[[nodiscard]] WorkloadFactory workload_factory(std::string_view name);

/// Every name workload_factory accepts, aliases included, in table order.
[[nodiscard]] std::vector<std::string_view> accepted_workload_names();

/// Construct a workload by name: workload_factory(name)().
[[nodiscard]] WorkloadPtr make_workload(std::string_view name);

/// The two divisible workloads the paper's two-tier experiments use.
[[nodiscard]] std::vector<std::string> divisible_workload_names();

/// The asynchronous pipeline workloads ("kmeans_pipeline", "srad_stream").
/// Not part of all_workload_names(): the Table II suite is the paper's
/// fixed nine; campaigns opt in by listing them explicitly.
[[nodiscard]] std::vector<std::string> pipeline_workload_names();

/// Construction-time tuning applied by make_workload to the pipeline
/// workloads (the CLI maps --pipeline / --stream-depth / --chunks here).
struct PipelineTuning {
  /// False builds the synchronous baseline: same ops, one stream, a
  /// blocking synchronize per chunk.
  bool pipelined{true};
  /// Double-buffer slots (concurrent in-flight chunks).
  std::size_t stream_depth{3};
  /// Chunks (kmeans_pipeline) / frames (srad_stream) per iteration.
  std::size_t chunks{8};
};

/// Replace the process-wide pipeline tuning.  Call before constructing
/// workloads; concurrent make_workload calls (campaign workers) only read.
void set_pipeline_tuning(const PipelineTuning& tuning);
[[nodiscard]] PipelineTuning pipeline_tuning();

}  // namespace gg::workloads

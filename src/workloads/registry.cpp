#include "src/workloads/registry.h"

#include <stdexcept>

#include "src/workloads/bfs.h"
#include "src/workloads/hotspot.h"
#include "src/workloads/kmeans.h"
#include "src/workloads/kmeans_pipeline.h"
#include "src/workloads/lud.h"
#include "src/workloads/nbody.h"
#include "src/workloads/pathfinder.h"
#include "src/workloads/qrng.h"
#include "src/workloads/srad.h"
#include "src/workloads/srad_stream.h"
#include "src/workloads/streamcluster.h"

namespace gg::workloads {

namespace {
/// Process-wide pipeline tuning; written by set_pipeline_tuning before runs,
/// only read by make_workload afterwards.
PipelineTuning g_pipeline_tuning{};

template <typename W>
WorkloadPtr make() {
  return std::make_unique<W>();
}

WorkloadPtr make_kmeans_pipeline() {
  KmeansPipelineConfig cfg;
  cfg.pipelined = g_pipeline_tuning.pipelined;
  cfg.stream_depth = g_pipeline_tuning.stream_depth;
  cfg.chunks = g_pipeline_tuning.chunks;
  return std::make_unique<KmeansPipeline>(cfg);
}

WorkloadPtr make_srad_stream() {
  SradStreamConfig cfg;
  cfg.pipelined = g_pipeline_tuning.pipelined;
  cfg.stream_depth = g_pipeline_tuning.stream_depth;
  cfg.frames_per_iteration = g_pipeline_tuning.chunks;
  return std::make_unique<SradStream>(cfg);
}

struct Entry {
  std::string_view name;
  WorkloadFactory make;
};

/// The one name -> factory table, aliases included.
constexpr Entry kFactories[] = {
    {"bfs", make<Bfs>},
    {"lud", make<Lud>},
    {"nbody", make<Nbody>},
    {"pathfinder", make<Pathfinder>},
    {"PF", make<Pathfinder>},
    {"QG", make<Qrng>},
    {"qrng", make<Qrng>},
    {"srad_v2", make<Srad>},
    {"srad", make<Srad>},
    {"hotspot", make<Hotspot>},
    {"kmeans", make<Kmeans>},
    {"streamcluster", make<Streamcluster>},
    {"SC", make<Streamcluster>},
    {"kmeans_pipeline", make_kmeans_pipeline},
    {"srad_stream", make_srad_stream},
};
}  // namespace

std::vector<std::string> pipeline_workload_names() {
  return {"kmeans_pipeline", "srad_stream"};
}

void set_pipeline_tuning(const PipelineTuning& tuning) { g_pipeline_tuning = tuning; }

PipelineTuning pipeline_tuning() { return g_pipeline_tuning; }

std::vector<std::string> all_workload_names() {
  return {"bfs",     "lud",     "nbody",  "pathfinder", "QG",
          "srad_v2", "hotspot", "kmeans", "streamcluster"};
}

std::vector<std::string> divisible_workload_names() { return {"kmeans", "hotspot"}; }

WorkloadFactory workload_factory(std::string_view name) {
  for (const Entry& e : kFactories) {
    if (e.name == name) return e.make;
  }
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

std::vector<std::string_view> accepted_workload_names() {
  std::vector<std::string_view> names;
  for (const Entry& e : kFactories) names.push_back(e.name);
  return names;
}

WorkloadPtr make_workload(std::string_view name) { return workload_factory(name)(); }

}  // namespace gg::workloads

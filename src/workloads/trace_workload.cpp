#include "src/workloads/trace_workload.h"

#include <stdexcept>
#include <string>

#include "src/common/csv.h"
#include "src/common/rng.h"

namespace gg::workloads {

TraceWorkload::TraceWorkload(std::vector<TracePhase> phases, std::uint64_t seed)
    : phases_(std::move(phases)), seed_(seed) {
  if (phases_.empty()) throw std::invalid_argument("TraceWorkload: empty trace");
  for (const auto& p : phases_) {
    if (p.core_util < 0.0 || p.core_util > 1.0 || p.mem_util < 0.0 || p.mem_util > 1.0) {
      throw std::invalid_argument("TraceWorkload: utilization out of [0,1]");
    }
    if (p.duration_s <= 0.0) {
      throw std::invalid_argument("TraceWorkload: non-positive phase duration");
    }
  }
}

TraceWorkload TraceWorkload::from_csv(std::istream& is) {
  std::vector<TracePhase> phases;
  std::string line;
  double prev_time = 0.0;
  bool have_prev = false;
  double prev_core = -1.0, prev_mem = -1.0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto fields = csv_parse_line(line);
    if (fields.size() < 3) {
      throw std::invalid_argument("TraceWorkload: need time_s,core_util,mem_util");
    }
    double t, core, mem;
    try {
      t = std::stod(fields[0]);
      core = std::stod(fields[1]);
      mem = std::stod(fields[2]);
    } catch (const std::exception&) {
      if (phases.empty() && !have_prev) continue;  // header row
      throw std::invalid_argument("TraceWorkload: unparsable row: " + line);
    }
    // Accept percentages.
    if (core > 1.0 || mem > 1.0) {
      core /= 100.0;
      mem /= 100.0;
    }
    if (have_prev) {
      const double dt = t - prev_time;
      if (dt <= 0.0) throw std::invalid_argument("TraceWorkload: non-increasing time");
      if (!phases.empty() && prev_core == phases.back().core_util &&
          prev_mem == phases.back().mem_util) {
        phases.back().duration_s += dt;  // merge equal consecutive samples
      } else {
        phases.push_back(TracePhase{prev_core, prev_mem, dt});
      }
    }
    prev_time = t;
    prev_core = core;
    prev_mem = mem;
    have_prev = true;
  }
  // Final sample: assume it holds for the median sampling interval (1 s for
  // nvidia-smi-style traces), approximated by the last phase's granularity.
  if (have_prev) {
    const double tail = phases.empty() ? 1.0 : phases.back().duration_s;
    if (!phases.empty() && prev_core == phases.back().core_util &&
        prev_mem == phases.back().mem_util) {
      phases.back().duration_s += tail;
    } else {
      phases.push_back(TracePhase{prev_core, prev_mem, tail});
    }
  }
  return TraceWorkload(std::move(phases));
}

IntensityProfile TraceWorkload::profile(std::size_t iter) const {
  if (iter >= phases_.size()) throw std::out_of_range("TraceWorkload: phase index");
  const TracePhase& p = phases_[iter];
  IntensityProfile prof;
  prof.core_util = p.core_util;
  prof.mem_util = p.mem_util;
  prof.units_per_iteration = 1000.0;
  prof.unit_time_s = p.duration_s / prof.units_per_iteration;
  prof.cpu_slowdown = 8.0;  // unused: trace replay is not divisible
  return prof;
}

Seconds TraceWorkload::trace_duration() const {
  double total = 0.0;
  for (const auto& p : phases_) total += p.duration_s;
  return Seconds{total};
}

void TraceWorkload::setup(cudalite::Runtime& rt) {
  if (rt.compute_enabled()) checksums_.assign(kItems, 0);
  final_checksum_ = 0;
  ran_ = false;
}

void TraceWorkload::gpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) {
  // Real (if synthetic) computation: fold a hash per item so any split or
  // scheduling bug corrupts the checksum.
  for (std::size_t i = begin; i < end; ++i) {
    std::uint64_t s = seed_ ^ (iter * 0x9E3779B97F4A7C15ULL) ^ i;
    checksums_[i] ^= splitmix64(s);
  }
}

void TraceWorkload::cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) {
  gpu_chunk(begin, end, iter);
}

void TraceWorkload::teardown(cudalite::Runtime& rt) {
  final_checksum_ = 0;
  for (const std::uint64_t c : checksums_) final_checksum_ ^= c;
  ran_ = rt.compute_enabled();
}

Reference TraceWorkload::reference(common::JobPool& /*pool*/) const {
  std::uint64_t expected = 0;
  for (std::size_t iter = 0; iter < phases_.size(); ++iter) {
    for (std::size_t i = 0; i < kItems; ++i) {
      std::uint64_t s = seed_ ^ (iter * 0x9E3779B97F4A7C15ULL) ^ i;
      expected ^= splitmix64(s);
    }
  }
  return halves(expected);
}

}  // namespace gg::workloads

// Trace-driven workload: replay a utilization trace through the controllers.
//
// The paper characterizes workloads by their nvidia-smi utilization traces
// (Section III-A).  `TraceWorkload` closes the loop: feed any such trace —
// e.g. captured from real hardware with
//   `nvidia-smi --query-gpu=utilization.gpu,utilization.memory --format=csv -l 1`
// — and the simulated GreenGPU stack manages an application with exactly
// that utilization signature.  Each trace phase becomes one iteration.
#pragma once

#include <istream>
#include <vector>

#include "src/workloads/workload.h"

namespace gg::workloads {

/// One phase of the trace: constant utilizations for a duration.
struct TracePhase {
  double core_util{0.0};
  double mem_util{0.0};
  double duration_s{1.0};
};

class TraceWorkload final : public ProfiledWorkload {
 public:
  /// `phases` must be non-empty with valid utilizations and positive
  /// durations.
  explicit TraceWorkload(std::vector<TracePhase> phases, std::uint64_t seed = 131);

  /// Parse a CSV trace of `time_s,core_util,mem_util` samples (header row
  /// optional; utilizations as 0-1 fractions or 0-100 percentages).
  /// Consecutive samples with equal utilizations merge into one phase.
  [[nodiscard]] static TraceWorkload from_csv(std::istream& is);

  [[nodiscard]] std::string_view name() const override { return "trace-replay"; }
  [[nodiscard]] std::string_view description() const override {
    return "Replayed utilization trace";
  }
  [[nodiscard]] std::size_t iterations() const override { return phases_.size(); }
  [[nodiscard]] bool divisible() const override { return false; }
  [[nodiscard]] IntensityProfile profile(std::size_t iter) const override;

  void setup(cudalite::Runtime& rt) override;
  void teardown(cudalite::Runtime& rt) override;
  [[nodiscard]] Reference reference(common::JobPool& pool) const override;
  [[nodiscard]] bool matches(const Reference& ref) const override {
    return ran_ && ref == halves(final_checksum_);
  }

  [[nodiscard]] const std::vector<TracePhase>& phases() const { return phases_; }
  /// Total trace duration at peak clocks.
  [[nodiscard]] Seconds trace_duration() const;

 protected:
  [[nodiscard]] std::size_t real_items() const override { return kItems; }
  void gpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;
  void cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override;

 private:
  static constexpr std::size_t kItems = 4096;
  /// A checksum as its two 32-bit halves, each exact in a double.
  static Reference halves(std::uint64_t x) {
    return {static_cast<double>(x >> 32), static_cast<double>(x & 0xFFFFFFFFULL)};
  }

  std::vector<TracePhase> phases_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> checksums_;  // per item, folded across iterations
  std::uint64_t final_checksum_{0};
  bool ran_{false};
};

}  // namespace gg::workloads

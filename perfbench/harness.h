// Shared pieces of the benchmark harness: the result record every mode
// prints, order statistics, and the daemon load generator's interface.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// What one harness invocation reports: the operations it attempted, those
/// whose output check failed, and named metric values.  Printed as one JSON
/// line on stdout (the benchmark's run.py adds units and host information).
struct Report {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::map<std::string, double> metrics;
  /// Free-form facts printed next to the metrics (digests, sample counts).
  std::map<std::string, std::string> info;

  /// Throws, printing nothing, if a metric is not finite.
  void print_json() const;
};

/// Linear-interpolated quantile of `v` (sorted copy).  Throws on an empty
/// vector: a percentile of no samples is a failed measurement, not a 0.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);
/// The tail every latency metric reports.  p95, not p99: at ten samples
/// beyond, p99 of a thousand SUBMITs moved by more than half between runs
/// on a 4-vCPU VM.
constexpr double kTailQ = 0.95;

/// FNV-1a over a byte string, as 16 hex digits.
std::string digest(const std::string& bytes);

/// Mean absolute error (percentage points) of the four Fig. 8 pairwise
/// savings — hotspot and kmeans, GreenGPU vs Division and vs
/// Frequency-scaling — against the paper's values.  `energy(workload,
/// policy)` returns total joules.
template <typename EnergyFn>
double paper_error_pp(EnergyFn energy) {
  struct Pair {
    const char* workload;
    const char* versus;
    double paper_pct;
  };
  static constexpr Pair kPairs[] = {{"hotspot", "division", 7.88},
                                    {"hotspot", "frequency-scaling", 28.76},
                                    {"kmeans", "division", 1.60},
                                    {"kmeans", "frequency-scaling", 12.05}};
  double sum = 0.0;
  for (const Pair& p : kPairs) {
    const double base = energy(p.workload, p.versus);
    const double green = energy(p.workload, "greengpu");
    const double saving = 100.0 * (1.0 - green / base);
    sum += saving > p.paper_pct ? saving - p.paper_pct : p.paper_pct - saving;
  }
  return sum / 4.0;
}

/// Inputs of the daemon load generator (see daemon_load.cpp).
struct DaemonPlan {
  std::string daemon_binary;
  std::string work_dir;
  std::uint64_t seed{1};
  /// Workload names SUBMITs draw from.
  std::vector<std::string> names;
};

/// Drive freshly started greengpud instances over their socket and fill
/// `report` with the service.* metrics and the output checks.
void run_daemon_workload(const DaemonPlan& plan, Report& report);

}  // namespace perfbench

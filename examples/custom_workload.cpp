// Bringing your own application under GreenGPU management: implement the
// Workload interface (here via the ProfiledWorkload helper), and the runner's
// two tiers manage it like any Rodinia benchmark.
//
// The example app is a divisible Monte-Carlo pi estimator: each iteration
// throws a batch of darts, split r/(1-r) between the CPU and GPU paths.
//
//   ./build/examples/custom_workload

#include <cmath>
#include <cstdio>
#include <vector>

#include "src/common/rng.h"
#include <stdexcept>
#include "src/common/flags.h"
#include "src/greengpu/policy.h"
#include "src/greengpu/runner.h"
#include "src/workloads/workload.h"

namespace {

using namespace gg;

class MonteCarloPi final : public workloads::ProfiledWorkload {
 public:
  static constexpr std::size_t kDarts = 200000;   // real darts per iteration
  static constexpr std::size_t kIterations = 20;

  [[nodiscard]] std::string_view name() const override { return "mc_pi"; }
  [[nodiscard]] std::string_view description() const override {
    return "Custom workload: Monte-Carlo pi (compute-heavy, divisible)";
  }
  [[nodiscard]] std::size_t iterations() const override { return kIterations; }
  [[nodiscard]] bool divisible() const override { return true; }

  [[nodiscard]] workloads::IntensityProfile profile(std::size_t) const override {
    // Compute-bound (high core, light memory); one simulated iteration ~20 s
    // of GPU time at peak; the CPU path is 4x slower per dart.
    return workloads::IntensityProfile{0.85, 0.15, 2.0e-5, 1.0e6, 4.0, 0.9};
  }

  void setup(cudalite::Runtime& rt) override {
    hits_.assign(kDarts, 0);
    total_hits_ = 0;
    dev_scratch_ = rt.alloc<int>(kDarts);
    done_ = false;
  }

  void finish_iteration(cudalite::Runtime&, std::size_t) override {
    for (int h : hits_) total_hits_ += h;
  }

  void teardown(cudalite::Runtime& rt) override {
    rt.free(dev_scratch_);
    done_ = true;
  }

  // The estimate is checked against pi itself, so there is no reference to
  // recompute and the run's pool goes unused.
  [[nodiscard]] bool verify(common::JobPool& /*pool*/) const override {
    if (!done_) return false;
    const double pi = 4.0 * static_cast<double>(total_hits_) /
                      static_cast<double>(kDarts * kIterations);
    return std::fabs(pi - M_PI) < 0.01;
  }

  [[nodiscard]] double estimate() const {
    return 4.0 * static_cast<double>(total_hits_) /
           static_cast<double>(kDarts * kIterations);
  }

 protected:
  [[nodiscard]] std::size_t real_items() const override { return kDarts; }

  void gpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override {
    throw_darts(begin, end, iter);
  }
  void cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) override {
    throw_darts(begin, end, iter);
  }

 private:
  void throw_darts(std::size_t begin, std::size_t end, std::size_t iter) {
    for (std::size_t i = begin; i < end; ++i) {
      // Counter-based randomness: identical result for any split.
      Rng rng(iter * kDarts + i);
      const double x = rng.uniform();
      const double y = rng.uniform();
      hits_[i] = (x * x + y * y <= 1.0) ? 1 : 0;
    }
  }

  std::vector<int> hits_;
  long long total_hits_{0};
  cudalite::DeviceBuffer<int> dev_scratch_;
  bool done_{false};
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const gg::Flags flags(argc, argv);
    flags.reject_unknown();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::printf("Custom workload under GreenGPU: Monte-Carlo pi\n\n");

  MonteCarloPi base_wl;
  const auto base =
      greengpu::run_experiment(base_wl, greengpu::Policy::best_performance(), {});
  MonteCarloPi green_wl;
  const auto green = greengpu::run_experiment(green_wl, greengpu::Policy::green_gpu(), {});

  std::printf("pi estimate: %.5f (both runs compute the identical value: %s)\n",
              green_wl.estimate(),
              green_wl.estimate() == base_wl.estimate() ? "yes" : "NO");
  std::printf("best-performance: %8.1f s  %9.0f J\n", base.exec_time.get(),
              base.total_energy().get());
  std::printf("greengpu:         %8.1f s  %9.0f J  (%.2f%% energy saving)\n",
              green.exec_time.get(), green.total_energy().get(),
              100.0 * (1.0 - green.total_energy().get() / base.total_energy().get()));
  std::printf("converged division: %.0f%% CPU / %.0f%% GPU\n",
              green.final_ratio * 100.0, (1.0 - green.final_ratio) * 100.0);
  std::printf("results %s\n", (base.verified && green.verified) ? "verified" : "NOT verified");
  return 0;
}

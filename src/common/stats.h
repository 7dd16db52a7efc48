// Streaming and batch statistics used by the experiment harness.
#pragma once

#include <cstddef>
#include <vector>

namespace gg {

/// Welford's online mean/variance accumulator.
class RunningStats {
 public:
  void add(double x);
  void reset();

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
  double sum_{0.0};
};

/// Linear-interpolated percentile of an unsorted sample, p in [0, 100].
/// Returns 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> xs, double p);

/// Arithmetic mean; returns 0 for empty input.
[[nodiscard]] double mean(const std::vector<double>& xs);

/// Exponentially weighted moving average filter.
class Ewma {
 public:
  /// alpha in (0, 1]: weight of the newest sample.
  explicit Ewma(double alpha) : alpha_(alpha) {}

  double update(double x) {
    if (!seeded_) {
      value_ = x;
      seeded_ = true;
    } else {
      value_ = alpha_ * x + (1.0 - alpha_) * value_;
    }
    return value_;
  }

  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] bool seeded() const { return seeded_; }

  /// Put the filter back into a checkpointed state (alpha is configuration,
  /// not state — it comes from the rebuilt controller).
  void restore(double value, bool seeded) {
    value_ = value;
    seeded_ = seeded;
  }

 private:
  double alpha_;
  double value_{0.0};
  bool seeded_{false};
};

}  // namespace gg

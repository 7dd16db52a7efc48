// The straight-line transcription of one Algorithm 1 step (Eq. 1-4), kept
// as the oracle the scaler's fused fast path is checked against.
//
// Per step it builds the per-level loss vectors with the checked Table I
// functions (component_loss, Eq. 1/2), applies the per-cell Eq. 3/4 calls
// (total_loss, updated_weight), renormalizes and floors the table, then
// rescans it for the argmax.  GpuFrequencyScaler folds the same arithmetic
// into pre-blended 101-row loss tables and one fused table pass; the two
// must agree bit for bit, weights included.
//
// The oracle consumes what the scaler records about each step — the
// (core_util, mem_util, sample_ok) stream of its ScalerDecisions — so a
// test replays one fast-path run through it instead of simulating the run a
// second time.  Header-only; tools/bench_campaign.cpp also times it as the
// baseline of the scaler-step speedup.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/greengpu/loss.h"
#include "src/greengpu/params.h"
#include "src/greengpu/weight_table.h"

namespace gg::greengpu::oracle {

inline void check_losses(const std::vector<double>& core, const std::vector<double>& mem,
                         std::size_t n, std::size_t m) {
  if (core.size() != n || mem.size() != m) {
    throw std::invalid_argument("oracle::Weights: loss vector size mismatch");
  }
}

/// Row-major N x M double weight table, uniform at start.
class Weights {
 public:
  Weights(std::size_t core_levels, std::size_t mem_levels)
      : n_(core_levels), m_(mem_levels), w_(core_levels * mem_levels, 1.0) {}

  [[nodiscard]] double weight(std::size_t core, std::size_t mem) const {
    return w_.at(core * m_ + mem);
  }
  [[nodiscard]] const std::vector<double>& values() const { return w_; }

  /// Apply Eq. 3 + Eq. 4 to every entry given per-level core and memory
  /// losses, then renormalize so the maximum weight is 1 and apply the
  /// relative floor.
  void update(const std::vector<double>& core_losses, const std::vector<double>& mem_losses,
              double phi, double beta, double weight_floor) {
    check_losses(core_losses, mem_losses, n_, m_);
    double max_w = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = 0; j < m_; ++j) {
        const double loss = total_loss(core_losses[i], mem_losses[j], phi);
        double& w = w_[i * m_ + j];
        w = updated_weight(w, loss, beta);
        max_w = std::max(max_w, w);
      }
    }
    if (max_w > 0.0) {
      for (double& w : w_) w = std::max(w / max_w, weight_floor);
    } else {
      std::fill(w_.begin(), w_.end(), 1.0);
    }
  }

  /// Pair with the highest weight; ties break toward higher frequencies
  /// (lower indices), the performance-safe choice.
  [[nodiscard]] PairIndex argmax() const {
    PairIndex best{0, 0};
    double best_w = w_[0];
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = 0; j < m_; ++j) {
        const double w = w_[i * m_ + j];
        if (w > best_w) {
          best_w = w;
          best = PairIndex{i, j};
        }
      }
    }
    return best;
  }

 private:
  std::size_t n_;
  std::size_t m_;
  std::vector<double> w_;
};

/// What one scaler step saw: utilizations as fractions (integer percent /
/// 100), and whether the step learned from them (false: a hardened step
/// held the weights on a missing or stale sample).
struct Sample {
  double core_util{0.0};
  double mem_util{0.0};
  bool sample_ok{true};
};

/// The state after one oracle step.
struct Step {
  PairIndex chosen;
  std::vector<double> weights;
};

class WmaOracle {
 public:
  /// `core_umean` / `mem_umean` are umean_table() of the scaled device's
  /// DVFS tables.
  WmaOracle(const WmaParams& params, std::vector<double> core_umean,
            std::vector<double> mem_umean)
      : params_(params),
        core_umean_(std::move(core_umean)),
        mem_umean_(std::move(mem_umean)),
        weights_(core_umean_.size(), mem_umean_.size()) {}

  /// One Algorithm 1 step; returns the pair to enforce.  A held step
  /// re-enforces the argmax of the unchanged table.
  PairIndex step(double core_util, double mem_util, bool sample_ok) {
    if (!sample_ok) return weights_.argmax();
    // Per-level core and memory loss factors (Eq. 1 and Eq. 2).
    std::vector<double> core_losses(core_umean_.size());
    for (std::size_t i = 0; i < core_umean_.size(); ++i) {
      core_losses[i] = component_loss(core_util, core_umean_[i], params_.alpha_core);
    }
    std::vector<double> mem_losses(mem_umean_.size());
    for (std::size_t j = 0; j < mem_umean_.size(); ++j) {
      mem_losses[j] = component_loss(mem_util, mem_umean_[j], params_.alpha_mem);
    }
    // Update weight[N][M] (Eq. 3 + Eq. 4) and rescan for the argmax.
    weights_.update(core_losses, mem_losses, params_.phi, params_.beta, kWeightFloor);
    return weights_.argmax();
  }

  [[nodiscard]] const Weights& weights() const { return weights_; }

 private:
  WmaParams params_;
  std::vector<double> core_umean_;
  std::vector<double> mem_umean_;
  Weights weights_;
};

/// Run `stream` through a fresh oracle: the chosen pair and the whole
/// weight table after every step.
inline std::vector<Step> replay(const WmaParams& params, const std::vector<double>& core_umean,
                                const std::vector<double>& mem_umean,
                                const std::vector<Sample>& stream) {
  WmaOracle oracle(params, core_umean, mem_umean);
  std::vector<Step> steps;
  steps.reserve(stream.size());
  for (const Sample& s : stream) {
    const PairIndex chosen = oracle.step(s.core_util, s.mem_util, s.sample_ok);
    steps.push_back(Step{chosen, oracle.weights().values()});
  }
  return steps;
}

}  // namespace gg::greengpu::oracle

#include "src/greengpu/multi_division.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "src/common/snapshot.h"

namespace gg::greengpu {

namespace {

std::vector<double> initial_shares(std::size_t slots, double cpu_share) {
  if (slots < 2) throw std::invalid_argument("MultiDivider: need CPU + >=1 GPU");
  std::vector<double> shares(slots, 0.0);
  shares[0] = cpu_share;
  const double per_gpu = (1.0 - cpu_share) / static_cast<double>(slots - 1);
  for (std::size_t i = 1; i < slots; ++i) shares[i] = per_gpu;
  return shares;
}

void check_times(const std::vector<Seconds>& times, std::size_t slots) {
  if (times.size() != slots) {
    throw std::invalid_argument("MultiDivider: slot-time count mismatch");
  }
  for (const Seconds t : times) {
    if (t < Seconds{0.0}) throw std::invalid_argument("MultiDivider: negative time");
  }
}

}  // namespace

std::vector<double> waterfill_shares(const std::vector<double>& rates) {
  const double total = std::accumulate(rates.begin(), rates.end(), 0.0);
  std::vector<double> shares(rates.size(), 0.0);
  if (total <= 0.0) return shares;
  for (std::size_t i = 0; i < rates.size(); ++i) shares[i] = rates[i] / total;
  return shares;
}

MultiStepDivider::MultiStepDivider(std::size_t slots, MultiStepParams params)
    : params_(params), shares_(initial_shares(slots, params.initial_cpu_share)) {
  if (params_.step <= 0.0 || params_.step >= 1.0) {
    throw std::invalid_argument("MultiStepDivider: bad step");
  }
}

void MultiStepDivider::update(const std::vector<Seconds>& slot_times) {
  owner_.assert_owner("greengpu::MultiStepDivider");
  check_times(slot_times, shares_.size());

  // Identify the slowest and fastest slots among those that can give/take
  // work.  A slot with zero share has undefined speed: treat it as fastest
  // (it is idle and should receive work) only if some slot is overloaded.
  std::size_t slowest = 0;
  double slowest_t = -1.0;
  std::size_t fastest = 0;
  double fastest_t = 1e300;
  for (std::size_t i = 0; i < shares_.size(); ++i) {
    const double t = slot_times[i].get();
    if (shares_[i] > 0.0 && t > slowest_t) {
      slowest_t = t;
      slowest = i;
    }
    if (t < fastest_t && (i != 0 || shares_[0] < params_.max_cpu_share)) {
      fastest_t = t;
      fastest = i;
    }
  }
  if (slowest == fastest || slowest_t <= 0.0) {
    ++hold_streak_;
    return;
  }
  // Balanced already?
  if (slowest_t - fastest_t <= params_.balance_tolerance * slowest_t) {
    ++hold_streak_;
    return;
  }
  double step = std::min(params_.step, shares_[slowest]);

  // Oscillation safeguard, generalized: instead of holding when the pair's
  // ordering would flip (which can deadlock with >2 slots), cap the move at
  // the linearly predicted pairwise balance amount
  //   delta* = s_d s_f (t_d - t_f) / (s_f t_d + s_d t_f)
  // so the pair never overshoots — the same linear-scaling prediction as
  // Section V-B, used as a limiter rather than a veto.
  if (params_.safeguard && shares_[fastest] > 0.0) {
    const double sd = shares_[slowest];
    const double sf = shares_[fastest];
    const double balance =
        sd * sf * (slowest_t - fastest_t) / (sf * slowest_t + sd * fastest_t);
    step = std::min(step, balance);
  }
  if (step <= 0.0) {
    ++hold_streak_;
    return;
  }
  shares_[slowest] -= step;
  shares_[fastest] += step;
  if (fastest == 0) shares_[0] = std::min(shares_[0], params_.max_cpu_share);
  hold_streak_ = 0;
}

void MultiStepDivider::reset() {
  shares_ = initial_shares(shares_.size(), params_.initial_cpu_share);
  hold_streak_ = 0;
}

namespace {
std::vector<double> load_shares(common::SnapshotReader& r, std::size_t slots,
                                const char* kind) {
  std::vector<double> shares = r.f64_vec();
  if (shares.size() != slots) {
    throw common::SnapshotError(std::string(kind) + ": snapshot has " +
                                std::to_string(shares.size()) + " slots but divider has " +
                                std::to_string(slots));
  }
  return shares;
}
}  // namespace

void MultiStepDivider::save(common::SnapshotWriter& w) const {
  w.f64_vec(shares_);
  w.u64(static_cast<std::uint64_t>(hold_streak_));
}

void MultiStepDivider::load(common::SnapshotReader& r) {
  shares_ = load_shares(r, shares_.size(), "MultiStepDivider");
  hold_streak_ = static_cast<int>(r.u64());
}

MultiProfilingDivider::MultiProfilingDivider(std::size_t slots, MultiProfilingParams params)
    : params_(params),
      shares_(initial_shares(slots, params.initial_cpu_share)),
      rate_(slots) {
  if (params_.rate_alpha <= 0.0 || params_.rate_alpha > 1.0) {
    throw std::invalid_argument("MultiProfilingDivider: bad rate_alpha");
  }
}

void MultiProfilingDivider::update(const std::vector<Seconds>& slot_times) {
  owner_.assert_owner("greengpu::MultiProfilingDivider");
  check_times(slot_times, shares_.size());
  for (std::size_t i = 0; i < shares_.size(); ++i) {
    if (shares_[i] > 0.0 && slot_times[i] > Seconds{0.0}) {
      if (!rate_[i]) rate_[i].emplace(params_.rate_alpha);
      rate_[i]->update(shares_[i] / slot_times[i].get());
    }
  }
  // Need every slot observed at least once before committing to targets.
  for (const auto& r : rate_) {
    if (!r) return;
  }
  std::vector<double> target = waterfill_shares(rates());
  // Respect the CPU cap by redistributing its excess across the GPUs.
  if (target[0] > params_.max_cpu_share) {
    const double excess = target[0] - params_.max_cpu_share;
    target[0] = params_.max_cpu_share;
    double gpu_sum = 0.0;
    for (std::size_t i = 1; i < target.size(); ++i) gpu_sum += target[i];
    for (std::size_t i = 1; i < target.size(); ++i) {
      target[i] += gpu_sum > 0.0 ? excess * target[i] / gpu_sum
                                 : excess / static_cast<double>(target.size() - 1);
    }
  }
  double max_move = 0.0;
  for (std::size_t i = 0; i < shares_.size(); ++i) {
    max_move = std::max(max_move, std::fabs(target[i] - shares_[i]));
  }
  settle_streak_ = max_move <= params_.settle_tolerance ? settle_streak_ + 1 : 0;
  shares_ = std::move(target);
}

std::vector<double> MultiProfilingDivider::rates() const {
  std::vector<double> out(rate_.size(), 0.0);
  for (std::size_t i = 0; i < rate_.size(); ++i) {
    if (rate_[i]) out[i] = rate_[i]->value();
  }
  return out;
}

void MultiProfilingDivider::reset() {
  shares_ = initial_shares(shares_.size(), params_.initial_cpu_share);
  std::fill(rate_.begin(), rate_.end(), std::nullopt);
  settle_streak_ = 0;
}

void MultiProfilingDivider::save(common::SnapshotWriter& w) const {
  w.f64_vec(shares_);
  w.u64(rate_.size());
  for (const auto& rate : rate_) {
    w.b(rate.has_value());
    if (rate) {
      w.f64(rate->value());
      w.b(rate->seeded());
    }
  }
  w.u64(static_cast<std::uint64_t>(settle_streak_));
}

void MultiProfilingDivider::load(common::SnapshotReader& r) {
  shares_ = load_shares(r, shares_.size(), "MultiProfilingDivider");
  const std::uint64_t n = r.u64();
  if (n != rate_.size()) {
    throw common::SnapshotError("MultiProfilingDivider: rate slot count mismatch");
  }
  for (auto& rate : rate_) {
    if (r.b()) {
      const double value = r.f64();
      const bool seeded = r.b();
      rate.emplace(params_.rate_alpha);
      rate->restore(value, seeded);
    } else {
      rate.reset();
    }
  }
  settle_streak_ = static_cast<int>(r.u64());
}

std::unique_ptr<MultiDivider> make_multi_divider(DividerKind kind, std::size_t slots) {
  switch (kind) {
    case DividerKind::kStep:
      return std::make_unique<MultiStepDivider>(slots);
    case DividerKind::kProfiling:
      return std::make_unique<MultiProfilingDivider>(slots);
    case DividerKind::kEnergyModel:
      break;
  }
  throw std::invalid_argument("the " + std::string(to_string(kind)) +
                              " divider has no multi-GPU form");
}

}  // namespace gg::greengpu

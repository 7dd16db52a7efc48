#include "src/greengpu/division.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/common/snapshot.h"

namespace gg::greengpu {

namespace {
/// Relative tolerance under which tc and tg count as "finishing
/// approximately at the same time".
constexpr double kTimeTolerance = 1e-3;
/// With N >= 2 GPUs, the step and profiling dividers start the CPU here and
/// split the rest equally across the cards.
constexpr double kMultiGpuInitialCpuShare = 0.10;
/// N-GPU step divider: relative time spread below which the slots count as
/// balanced.
constexpr double kBalanceTolerance = 0.05;
/// Qilin's probe share when DivisionParams::initial_ratio is not inside
/// (0, 1).
constexpr double kDefaultProbe = 0.30;
/// EWMA weight of the newest rate sample (profiling and energy model).
constexpr double kRateAlpha = 0.5;
/// Settle test of the model dividers: relative to the target with one GPU,
/// absolute on every share with N >= 2 GPUs.
constexpr double kSettleTolerance = 0.02;
/// Energy model: the two probe shares that identify both model parameters,
/// and the grid resolution of the argmin search.
constexpr double kProbeLow = 0.15;
constexpr double kProbeHigh = 0.45;
constexpr double kSearchStep = 0.01;

bool roughly_equal(Seconds a, Seconds b) {
  const double hi = std::max(a.get(), b.get());
  if (hi <= 0.0) return true;
  return std::fabs(a.get() - b.get()) <= kTimeTolerance * hi;
}

/// Label of a move of the CPU share (`settled` moves read kHold).
DivisionAction action_for(double old_ratio, double new_ratio, bool settled = false) {
  if (settled || new_ratio == old_ratio) return DivisionAction::kHold;
  return new_ratio > old_ratio ? DivisionAction::kIncreaseCpu
                               : DivisionAction::kDecreaseCpu;
}

/// Feed each observed slot's rate sample (its share over its time).
void observe_rates(std::vector<Ewma>& rates, const std::vector<double>& shares,
                   const std::vector<Seconds>& times) {
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (shares[i] > 0.0 && times[i] > Seconds{0.0}) {
      rates[i].update(shares[i] / times[i].get());
    }
  }
}

void save_rates(common::SnapshotWriter& w, const std::vector<Ewma>& rates) {
  w.u64(rates.size());
  for (const Ewma& rate : rates) {
    w.b(rate.seeded());
    w.f64(rate.value());
  }
}

void load_rates(common::SnapshotReader& r, std::vector<Ewma>& rates) {
  if (r.u64() != rates.size()) {
    throw common::SnapshotError("Divider: rate slot count mismatch");
  }
  for (Ewma& rate : rates) {
    const bool seeded = r.b();
    rate.restore(r.f64(), seeded);
  }
}

/// The CPU share a step or profiling divider starts from.
double initial_cpu_share(std::size_t slots, double one_gpu_share) {
  return slots == 2 ? one_gpu_share : kMultiGpuInitialCpuShare;
}
}  // namespace

DivisionDecision division_step(const DivisionParams& params, double ratio, Seconds tc,
                               Seconds tg) {
  if (tc < Seconds{0.0} || tg < Seconds{0.0}) {
    throw std::invalid_argument("division_step: negative time");
  }
  DivisionDecision d{ratio, DivisionAction::kHold};
  if (roughly_equal(tc, tg)) return d;

  const bool cpu_faster = tc < tg;
  const double candidate = cpu_faster ? std::min(ratio + params.step, kMaxCpuShare)
                                      : std::max(ratio - params.step, kMinCpuShare);
  if (candidate == ratio) {
    d.action = DivisionAction::kHoldAtBound;
    return d;
  }

  // Oscillation safeguard: linearly scale both execution times to the
  // candidate allocation; if the predicted ordering flips, moving would
  // bounce between two grid points, so keep the current division.
  // Prediction is only possible when both sides executed a non-zero share.
  if (params.safeguard && ratio > 0.0 && ratio < 1.0) {
    const double tc_pred = tc.get() * (candidate / ratio);
    const double tg_pred = tg.get() * ((1.0 - candidate) / (1.0 - ratio));
    const bool cpu_faster_pred = tc_pred < tg_pred;
    if (cpu_faster_pred != cpu_faster) {
      d.action = DivisionAction::kHoldSafeguard;
      return d;
    }
  }

  d.ratio = candidate;
  d.action = cpu_faster ? DivisionAction::kIncreaseCpu : DivisionAction::kDecreaseCpu;
  return d;
}

// --- Divider -----------------------------------------------------------------

Divider::Divider(std::size_t slots, double initial_cpu_share)
    : initial_cpu_share_(initial_cpu_share) {
  if (slots < 2) throw std::invalid_argument("Divider: need CPU + >=1 GPU");
  shares_.resize(slots);
  set_cpu_share(initial_cpu_share_);
}

void Divider::set_cpu_share(double cpu) {
  shares_[0] = cpu;
  const double per_gpu = (1.0 - cpu) / static_cast<double>(shares_.size() - 1);
  for (std::size_t i = 1; i < shares_.size(); ++i) shares_[i] = per_gpu;
}

DivisionAction Divider::update(const std::vector<Seconds>& slot_times, Joules total_energy,
                               bool degraded) {
  if (degraded) return DivisionAction::kHoldDegraded;
  if (slot_times.size() != shares_.size()) {
    throw std::invalid_argument("Divider: slot-time count mismatch");
  }
  for (const Seconds t : slot_times) {
    if (t < Seconds{0.0}) throw std::invalid_argument("Divider: negative time");
  }
  return rebalance(slot_times, total_energy);
}

void Divider::reset() {
  set_cpu_share(initial_cpu_share_);
  streak_ = 0;
  reset_state();
}

void Divider::save(common::SnapshotWriter& w) const {
  w.f64_vec(shares_);
  w.u64(static_cast<std::uint64_t>(streak_));
  save_state(w);
}

void Divider::load(common::SnapshotReader& r) {
  std::vector<double> shares = r.f64_vec();
  if (shares.size() != shares_.size()) {
    throw common::SnapshotError(std::string(name()) + " divider: snapshot has " +
                                std::to_string(shares.size()) + " slots but divider has " +
                                std::to_string(shares_.size()));
  }
  shares_ = std::move(shares);
  streak_ = static_cast<int>(r.u64());
  load_state(r);
}

// --- Step --------------------------------------------------------------------

StepDivider::StepDivider(std::size_t slots, const DivisionParams& params)
    : Divider(slots, initial_cpu_share(slots, params.initial_ratio)), params_(params) {
  if (params_.step <= 0.0 || params_.step >= 1.0) {
    throw std::invalid_argument("DivisionParams: step must be in (0,1)");
  }
  if (slots == 2 &&
      (params_.initial_ratio < kMinCpuShare || params_.initial_ratio > kMaxCpuShare)) {
    throw std::invalid_argument("DivisionParams: initial ratio out of bounds");
  }
}

DivisionAction StepDivider::rebalance(const std::vector<Seconds>& slot_times,
                                      Joules /*total_energy*/) {
  if (shares_.size() > 2) return rebalance_pairwise(slot_times);
  const DivisionDecision d = division_step(params_, shares_[0], slot_times[0], slot_times[1]);
  streak_ = d.ratio == shares_[0] ? streak_ + 1 : 0;
  set_cpu_share(d.ratio);
  return d.action;
}

DivisionAction StepDivider::rebalance_pairwise(const std::vector<Seconds>& slot_times) {
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
    if (t < fastest_t && (i != 0 || shares_[0] < kMaxCpuShare)) {
      fastest_t = t;
      fastest = i;
    }
  }
  const auto hold = [this] {
    ++streak_;
    return DivisionAction::kHold;
  };
  if (slowest == fastest || slowest_t <= 0.0) return hold();
  if (slowest_t - fastest_t <= kBalanceTolerance * slowest_t) return hold();
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
  if (step <= 0.0) return hold();
  const double cpu_before = shares_[0];
  shares_[slowest] -= step;
  shares_[fastest] += step;
  if (fastest == 0) shares_[0] = std::min(shares_[0], kMaxCpuShare);
  streak_ = 0;
  return action_for(cpu_before, shares_[0]);
}

// --- Qilin profiling ---------------------------------------------------------

ProfilingDivider::ProfilingDivider(std::size_t slots, const DivisionParams& params)
    : Divider(slots, initial_cpu_share(slots, params.initial_ratio > 0.0 &&
                                                        params.initial_ratio < 1.0
                                                    ? params.initial_ratio
                                                    : kDefaultProbe)),
      rate_(slots, Ewma(kRateAlpha)) {}

DivisionAction ProfilingDivider::rebalance(const std::vector<Seconds>& slot_times,
                                           Joules /*total_energy*/) {
  observe_rates(rate_, shares_, slot_times);
  // Need every slot observed at least once before committing to targets.
  double total = 0.0;
  for (const Ewma& rate : rate_) {
    if (!rate.seeded()) return DivisionAction::kHold;  // keep probing
    total += rate.value();
  }
  const double cpu_before = shares_[0];
  // Qilin's balance point: every slot finishes together when the shares are
  // proportional to the processing rates.
  if (shares_.size() == 2) {
    const double target = std::clamp(rate_[0].value() / total, kMinCpuShare, kMaxCpuShare);
    const bool settled = std::fabs(target - cpu_before) <=
                         kSettleTolerance * std::max(target, 1e-9);
    streak_ = settled ? streak_ + 1 : 0;
    set_cpu_share(target);
    return action_for(cpu_before, target, settled);
  }
  // Respect the CPU cap by redistributing its excess across the GPUs in
  // proportion to their targets.
  double cpu = rate_[0].value() / total;
  const bool capped = cpu > kMaxCpuShare;
  const double excess = cpu - kMaxCpuShare;
  if (capped) cpu = kMaxCpuShare;
  double gpu_sum = 0.0;
  for (std::size_t i = 1; i < rate_.size(); ++i) gpu_sum += rate_[i].value() / total;
  double max_move = std::fabs(cpu - cpu_before);
  shares_[0] = cpu;
  for (std::size_t i = 1; i < rate_.size(); ++i) {
    double target = rate_[i].value() / total;
    if (capped) {
      target += gpu_sum > 0.0 ? excess * target / gpu_sum
                              : excess / static_cast<double>(rate_.size() - 1);
    }
    max_move = std::max(max_move, std::fabs(target - shares_[i]));
    shares_[i] = target;
  }
  streak_ = max_move <= kSettleTolerance ? streak_ + 1 : 0;
  return action_for(cpu_before, cpu);
}

void ProfilingDivider::reset_state() {
  std::fill(rate_.begin(), rate_.end(), Ewma(kRateAlpha));
}

void ProfilingDivider::save_state(common::SnapshotWriter& w) const { save_rates(w, rate_); }

void ProfilingDivider::load_state(common::SnapshotReader& r) { load_rates(r, rate_); }

// --- Energy model ------------------------------------------------------------

EnergyModelDivider::EnergyModelDivider(std::size_t slots)
    : Divider(slots, kProbeLow), rate_(slots, Ewma(kRateAlpha)) {
  if (slots != 2) {
    throw std::invalid_argument("the energy-model divider has no multi-GPU form");
  }
}

double EnergyModelDivider::predict_makespan(double r) const {
  const double cr = rate_[0].value();
  const double gr = rate_[1].value();
  double t = 0.0;
  if (r > 0.0) {
    if (cr <= 0.0) return 1e300;
    t = r / cr;
  }
  if (r < 1.0) {
    if (gr <= 0.0) return 1e300;
    t = std::max(t, (1.0 - r) / gr);
  }
  return t;
}

double EnergyModelDivider::predict_energy(double r) const {
  return p_sys_ * predict_makespan(r) + c_cpu_ * r;
}

void EnergyModelDivider::refit() {
  // Least squares for E ~ p_sys * T + c_cpu * r over the observations.
  double stt = 0.0, str = 0.0, srr = 0.0, ste = 0.0, sre = 0.0;
  for (const auto& o : observations_) {
    stt += o.makespan * o.makespan;
    str += o.makespan * o.ratio;
    srr += o.ratio * o.ratio;
    ste += o.makespan * o.energy;
    sre += o.ratio * o.energy;
  }
  const double det = stt * srr - str * str;
  if (std::fabs(det) < 1e-12 * stt * std::max(srr, 1e-12)) {
    // Degenerate (e.g. all observations at one ratio): fall back to a pure
    // makespan-proportional model.
    p_sys_ = stt > 0.0 ? ste / stt : 0.0;
    c_cpu_ = 0.0;
    return;
  }
  p_sys_ = (ste * srr - sre * str) / det;
  c_cpu_ = (sre * stt - ste * str) / det;
}

DivisionAction EnergyModelDivider::rebalance(const std::vector<Seconds>& slot_times,
                                             Joules total_energy) {
  const double r = shares_[0];
  observe_rates(rate_, shares_, slot_times);
  const double makespan = std::max(slot_times[0].get(), slot_times[1].get());
  if (makespan > 0.0 && total_energy > Joules{0.0}) {
    observations_.push_back(Observation{r, makespan, total_energy.get()});
  }

  ++iteration_;
  if (iteration_ == 1) {
    // Second probe to identify both model parameters.
    set_cpu_share(kProbeHigh);
    return action_for(r, kProbeHigh);
  }
  if (!rate_[0].seeded() || !rate_[1].seeded() || observations_.size() < 2) {
    return DivisionAction::kHold;
  }

  refit();
  // Argmin of predicted energy over the share grid.
  double best_r = kMinCpuShare;
  double best_e = predict_energy(best_r);
  for (double cand = kMinCpuShare; cand <= kMaxCpuShare + 1e-12; cand += kSearchStep) {
    const double e = predict_energy(cand);
    if (e < best_e) {
      best_e = e;
      best_r = cand;
    }
  }
  const bool settled =
      std::fabs(best_r - r) <= kSettleTolerance * std::max(best_r, 1e-9);
  streak_ = settled ? streak_ + 1 : 0;
  set_cpu_share(best_r);
  return action_for(r, best_r, settled);
}

void EnergyModelDivider::reset_state() {
  iteration_ = 0;
  std::fill(rate_.begin(), rate_.end(), Ewma(kRateAlpha));
  observations_.clear();
  p_sys_ = 0.0;
  c_cpu_ = 0.0;
}

void EnergyModelDivider::save_state(common::SnapshotWriter& w) const {
  w.u64(static_cast<std::uint64_t>(iteration_));
  save_rates(w, rate_);
  w.u64(observations_.size());
  for (const Observation& o : observations_) {
    w.f64(o.ratio);
    w.f64(o.makespan);
    w.f64(o.energy);
  }
  w.f64(p_sys_);
  w.f64(c_cpu_);
}

void EnergyModelDivider::load_state(common::SnapshotReader& r) {
  iteration_ = static_cast<int>(r.u64());
  load_rates(r, rate_);
  const std::uint64_t n = r.u64();
  observations_.clear();
  observations_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Observation o{};
    o.ratio = r.f64();
    o.makespan = r.f64();
    o.energy = r.f64();
    observations_.push_back(o);
  }
  p_sys_ = r.f64();
  c_cpu_ = r.f64();
}

// --- Selection ---------------------------------------------------------------

std::string_view to_string(DividerKind kind) {
  switch (kind) {
    case DividerKind::kStep: return "step";
    case DividerKind::kProfiling: return "qilin-profiling";
    case DividerKind::kEnergyModel: return "energy-model";
  }
  return "unknown";
}

DividerKind divider_from_string(std::string_view name) {
  if (name == "step") return DividerKind::kStep;
  if (name == "qilin-profiling" || name == "qilin" || name == "profiling") {
    return DividerKind::kProfiling;
  }
  if (name == "energy-model" || name == "energy") return DividerKind::kEnergyModel;
  throw std::invalid_argument("unknown divider: " + std::string(name));
}

std::unique_ptr<Divider> make_divider(DividerKind kind, std::size_t slots,
                                      const DivisionParams& params) {
  switch (kind) {
    case DividerKind::kStep:
      return std::make_unique<StepDivider>(slots, params);
    case DividerKind::kProfiling:
      return std::make_unique<ProfilingDivider>(slots, params);
    case DividerKind::kEnergyModel:
      return std::make_unique<EnergyModelDivider>(slots);
  }
  throw std::invalid_argument("unknown divider kind");
}

}  // namespace gg::greengpu

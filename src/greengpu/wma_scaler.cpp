#include "src/greengpu/wma_scaler.h"

#include <algorithm>
#include <stdexcept>

#include "src/common/annotations.h"
#include "src/common/killpoint.h"
#include "src/common/snapshot.h"

namespace gg::greengpu {

namespace {
/// A hardened step treats a sample whose averaging window is shorter than
/// this fraction of the scaling interval as stale (non-informative).
constexpr double kMinWindowFrac = 0.5;
/// Immediate re-tries of a rejected/clamped clock write per hardened step.
constexpr int kActuationRetries = 2;
/// Base delay of the asynchronous retry after the immediate re-tries failed
/// (doubles per attempt, capped at the scaling interval).
constexpr Seconds kActuationBackoff{0.25};
}  // namespace

GpuFrequencyScaler::GpuFrequencyScaler(cudalite::NvmlDevice& nvml,
                                       cudalite::NvSettings& settings, WmaParams params,
                                       bool hardened)
    : nvml_(&nvml),
      settings_(&settings),
      params_(params),
      hardened_(hardened),
      table_(settings.core_table().levels(), settings.mem_table().levels()),
      core_loss_q_(umean_table(settings.core_table()), params.alpha_core, params.phi),
      mem_loss_q_(umean_table(settings.mem_table()), params.alpha_mem, 1.0 - params.phi),
      one_minus_beta_(1.0 - params.beta) {
  // Both constants are pre-folded into the loss rows and the decay factor,
  // so reject bad values up front.  (alpha_core/alpha_mem are validated by
  // the QuantizedLossTable constructors via component_loss.)
  if (params_.phi < 0.0 || params_.phi > 1.0) {
    throw std::invalid_argument("WmaParams: phi must be in [0,1]");
  }
  if (params_.beta <= 0.0 || params_.beta >= 1.0) {
    throw std::invalid_argument("WmaParams: beta must be in (0,1)");
  }
}

ScalerDecision GpuFrequencyScaler::step(Seconds now) {
  common::killpoint(common::KillPoint::kPreScalerStep);
  const ScalerDecision decision = step_fast(now);
  common::killpoint(common::KillPoint::kPostScalerStep);
  return decision;
}

GG_HOT ScalerDecision GpuFrequencyScaler::step_fast(Seconds now) {
  // A fresh step supersedes any asynchronous actuation retry in flight.
  retry_.cancel();

  // 1. Read GPU core and memory utilizations (integer percent, like the
  //    nvidia-smi tool the paper polls).
  const cudalite::UtilizationSample sample = nvml_->utilization_rates();
  const double uc = static_cast<double>(sample.rates.gpu) / 100.0;
  const double um = static_cast<double>(sample.rates.memory) / 100.0;

  // Hardened stale-sample detection: a failed read or a window much shorter
  // than the scaling interval carries no new information — hold the weights
  // and re-enforce the current argmax (the table is unchanged since the last
  // update, so the cached argmax is what a rescan would return).
  const bool stale =
      !sample.ok() || sample.window.get() < params_.interval.get() * kMinWindowFrac;
  if (hardened_ && stale) {
    ++steps_;
    ++held_steps_;
    ScalerDecision d{now, uc, um, argmax_};
    d.sample_ok = false;
    decisions_.push(d);
    return d;
  }

  // 2.+3. Eq. 1-4 as one fused pass: the pre-blended quantized rows are the
  // exact per-level losses of the integer-percent sample, so there are no
  // allocations, one decay pass and one renormalize pass that carries the
  // argmax.
  const PairIndex chosen = table_.update_fused(core_loss_q_.row(sample.rates.gpu),
                                               mem_loss_q_.row(sample.rates.memory),
                                               one_minus_beta_, kWeightFloor);
  argmax_ = chosen;

  bool applied = true;
  if (hardened_) {
    applied = actuate(chosen);
    if (!applied) ++actuation_failures_;
  } else {
    (void)settings_->set_clock_levels(chosen.core, chosen.mem);
  }

  ++steps_;
  ScalerDecision d{now, uc, um, chosen};
  d.actuation_ok = applied;
  decisions_.push(d);
  return d;
}

bool GpuFrequencyScaler::actuate(PairIndex pair) {
  for (int attempt = 0; attempt <= kActuationRetries; ++attempt) {
    const cudalite::ClockWriteResult r = settings_->set_clock_levels(pair.core, pair.mem);
    switch (r.status) {
      case cudalite::ClockWriteStatus::kApplied:
        return true;
      case cudalite::ClockWriteStatus::kDelayed:
        // In flight: the driver will land it; nothing more to do.
        return true;
      case cudalite::ClockWriteStatus::kThrottled:
        // Don't fight a thermal episode — the injector restores the latest
        // requested pair when the episode ends.
        return false;
      case cudalite::ClockWriteStatus::kClamped:
      case cudalite::ClockWriteStatus::kRejected:
        // Each clamp moves one level toward the target; a reject leaves the
        // clocks unchanged.  Either way, re-issue immediately (bounded).
        break;
    }
  }
  // Immediate retries exhausted: fall back to asynchronous backoff so the
  // pair still lands before the next interval if the driver recovers.
  schedule_retry(pair, 0);
  return false;
}

void GpuFrequencyScaler::schedule_retry(PairIndex pair, int attempt) {
  if (attached_queue_ == nullptr) return;
  double delay = kActuationBackoff.get();
  for (int i = 0; i < attempt; ++i) delay *= 2.0;
  delay = std::min(delay, params_.interval.get());
  retry_.cancel();
  retry_ = attached_queue_->schedule_in(Seconds{delay}, [this, pair, attempt] {
    const cudalite::ClockWriteResult r = settings_->set_clock_levels(pair.core, pair.mem);
    if (r.status == cudalite::ClockWriteStatus::kRejected ||
        r.status == cudalite::ClockWriteStatus::kClamped) {
      schedule_retry(pair, attempt + 1);
    }
  });
}

void GpuFrequencyScaler::attach(sim::EventQueue& queue) {
  detach();
  attached_queue_ = &queue;
  arm(queue);
}

void GpuFrequencyScaler::attach_at(sim::EventQueue& queue, Seconds first_step) {
  detach();
  attached_queue_ = &queue;
  next_ = queue.schedule_at(first_step, [this, &queue] {
    step(queue.now());
    arm(queue);
  });
}

void GpuFrequencyScaler::arm(sim::EventQueue& queue) {
  next_ = queue.schedule_in(params_.interval, [this, &queue] {
    step(queue.now());
    arm(queue);
  });
}

void GpuFrequencyScaler::detach() {
  next_.cancel();
  retry_.cancel();
  attached_queue_ = nullptr;
}

void GpuFrequencyScaler::reset() {
  table_.reset();
  argmax_ = PairIndex{0, 0};
  decisions_.clear();
  steps_ = 0;
  held_steps_ = 0;
  actuation_failures_ = 0;
  retry_.cancel();
}

namespace {
void save_decision(common::SnapshotWriter& w, const ScalerDecision& d) {
  w.f64(d.time.get());
  w.f64(d.core_util);
  w.f64(d.mem_util);
  w.u64(d.chosen.core);
  w.u64(d.chosen.mem);
  w.b(d.sample_ok);
  w.b(d.actuation_ok);
}

ScalerDecision load_decision(common::SnapshotReader& r) {
  ScalerDecision d;
  d.time = Seconds{r.f64()};
  d.core_util = r.f64();
  d.mem_util = r.f64();
  d.chosen.core = static_cast<std::size_t>(r.u64());
  d.chosen.mem = static_cast<std::size_t>(r.u64());
  d.sample_ok = r.b();
  d.actuation_ok = r.b();
  return d;
}
}  // namespace

void GpuFrequencyScaler::save(common::SnapshotWriter& w) const {
  table_.save(w);
  w.u64(argmax_.core);
  w.u64(argmax_.mem);
  w.u64(steps_);
  w.u64(held_steps_);
  w.u64(actuation_failures_);
  decisions_.save(w, save_decision);
}

void GpuFrequencyScaler::load(common::SnapshotReader& r) {
  table_.load(r);
  argmax_.core = static_cast<std::size_t>(r.u64());
  argmax_.mem = static_cast<std::size_t>(r.u64());
  steps_ = r.u64();
  held_steps_ = r.u64();
  actuation_failures_ = r.u64();
  decisions_.load(r, load_decision);
}

}  // namespace gg::greengpu

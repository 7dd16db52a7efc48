#include "src/greengpu/wma_scaler.h"

#include <algorithm>
#include <stdexcept>

#include "src/common/annotations.h"
#include "src/common/killpoint.h"
#include "src/common/snapshot.h"

namespace gg::greengpu {

GpuFrequencyScaler::GpuFrequencyScaler(cudalite::NvmlDevice& nvml,
                                       cudalite::NvSettings& settings, WmaParams params)
    : nvml_(&nvml),
      settings_(&settings),
      params_(params),
      core_umean_(umean_table(settings.core_table())),
      mem_umean_(umean_table(settings.mem_table())),
      core_filter_(params.util_filter_alpha),
      mem_filter_(params.util_filter_alpha),
      table_(settings.core_table().levels(), settings.mem_table().levels()),
      core_loss_q_(core_umean_, params.alpha_core, params.phi),
      mem_loss_q_(mem_umean_, params.alpha_mem, 1.0 - params.phi),
      one_minus_beta_(1.0 - params.beta),
      quantized_applies_(params.util_filter_alpha == 1.0),
      scratch_core_(core_umean_.size(), 0.0),
      scratch_mem_(mem_umean_.size(), 0.0) {
  if (params_.util_filter_alpha <= 0.0 || params_.util_filter_alpha > 1.0) {
    throw std::invalid_argument("WmaParams: util_filter_alpha must be in (0,1]");
  }
  if (params_.min_window_frac < 0.0 || params_.min_window_frac > 1.0) {
    throw std::invalid_argument("WmaParams: min_window_frac must be in [0,1]");
  }
  if (params_.actuation_retries < 0) {
    throw std::invalid_argument("WmaParams: actuation_retries must be >= 0");
  }
  // The reference path surfaces these through total_loss/updated_weight on
  // the first step; the fast path pre-folds both constants, so reject bad
  // values up front.  (alpha_core/alpha_mem are validated by the
  // QuantizedLossTable constructors via component_loss.)
  if (params_.phi < 0.0 || params_.phi > 1.0) {
    throw std::invalid_argument("WmaParams: phi must be in [0,1]");
  }
  if (params_.beta <= 0.0 || params_.beta >= 1.0) {
    throw std::invalid_argument("WmaParams: beta must be in (0,1)");
  }
}

ScalerDecision GpuFrequencyScaler::step(Seconds now) {
  common::killpoint(common::KillPoint::kPreScalerStep);
  const ScalerDecision decision =
      params_.reference_impl ? step_reference(now) : step_fast(now);
  common::killpoint(common::KillPoint::kPostScalerStep);
  return decision;
}

GG_HOT ScalerDecision GpuFrequencyScaler::step_fast(Seconds now) {
  // A fresh step supersedes any asynchronous actuation retry in flight.
  retry_.cancel();

  // 1. Read GPU core and memory utilizations (integer percent, like the
  //    nvidia-smi tool the paper polls).
  const cudalite::UtilizationSample sample = nvml_->try_utilization_rates();
  const double uc_raw = static_cast<double>(sample.rates.gpu) / 100.0;
  const double um_raw = static_cast<double>(sample.rates.memory) / 100.0;

  const bool stale =
      !sample.ok() || sample.window.get() < params_.interval.get() * params_.min_window_frac;
  if (params_.harden && stale) {
    ++steps_;
    ++held_steps_;
    // The table is unchanged since the last update, so the cached argmax is
    // exactly what the reference path's rescan would return.
    ScalerDecision d{now, uc_raw, um_raw, core_filter_.value(), mem_filter_.value(),
                     argmax_};
    d.sample_ok = false;
    decisions_.push(d);
    return d;
  }

  // Optional measurement-side noise filter (alpha = 1 passes through).
  const double uc = core_filter_.update(uc_raw);
  const double um = mem_filter_.update(um_raw);

  // 2.+3. Eq. 1-4 as one fused pass.  With the filter off, the filtered
  // utilization IS the integer-percent sample (Ewma with alpha = 1 returns
  // its input bit-exactly), so the pre-blended quantized rows are the exact
  // per-level losses; with the filter on, fill the preallocated scratch
  // rows from the continuous utilization instead.  Either way: no
  // allocations, one decay pass, one renormalize pass that carries the
  // argmax.
  const double* core_row;
  const double* mem_row;
  if (quantized_applies_) {
    core_row = core_loss_q_.row(sample.rates.gpu);
    mem_row = mem_loss_q_.row(sample.rates.memory);
  } else {
    for (std::size_t i = 0; i < scratch_core_.size(); ++i) {
      scratch_core_[i] = params_.phi * component_loss(uc, core_umean_[i], params_.alpha_core);
    }
    for (std::size_t j = 0; j < scratch_mem_.size(); ++j) {
      scratch_mem_[j] =
          (1.0 - params_.phi) * component_loss(um, mem_umean_[j], params_.alpha_mem);
    }
    core_row = scratch_core_.data();
    mem_row = scratch_mem_.data();
  }
  const PairIndex chosen =
      table_.update_fused(core_row, mem_row, one_minus_beta_, params_.weight_floor);
  argmax_ = chosen;

  bool applied = true;
  if (params_.harden) {
    applied = actuate(chosen);
    if (!applied) ++actuation_failures_;
  } else {
    settings_->set_clock_levels(chosen.core, chosen.mem);
  }

  ++steps_;
  ScalerDecision d{now, uc_raw, um_raw, uc, um, chosen};
  d.actuation_ok = applied;
  decisions_.push(d);
  return d;
}

// The straight-line transcription of Algorithm 1 (the seed implementation):
// per-step loss vectors, checked per-cell Eq. 3/4 calls, a full argmax
// rescan.  Kept verbatim as the oracle for the equivalence suite and the
// baseline for the scaler-step microbenchmarks.
ScalerDecision GpuFrequencyScaler::step_reference(Seconds now) {
  // A fresh step supersedes any asynchronous actuation retry in flight.
  retry_.cancel();

  // 1. Read GPU core and memory utilizations (integer percent, like the
  //    nvidia-smi tool the paper polls).
  const cudalite::UtilizationSample sample = nvml_->try_utilization_rates();
  const double uc_raw = static_cast<double>(sample.rates.gpu) / 100.0;
  const double um_raw = static_cast<double>(sample.rates.memory) / 100.0;

  // Hardened stale-sample detection: a failed read or a window much shorter
  // than the scaling interval carries no new information — hold the weights
  // and keep the current pair instead of learning from noise.
  const bool stale =
      !sample.ok() || sample.window.get() < params_.interval.get() * params_.min_window_frac;
  if (params_.harden && stale) {
    ++steps_;
    ++held_steps_;
    ScalerDecision d{now, uc_raw, um_raw, core_filter_.value(), mem_filter_.value(),
                     table_.argmax()};
    d.sample_ok = false;
    decisions_.push(d);
    return d;
  }

  // Optional measurement-side noise filter (alpha = 1 passes through).
  const double uc = core_filter_.update(uc_raw);
  const double um = mem_filter_.update(um_raw);

  // 2. Per-level core and memory loss factors (Eq. 1 and Eq. 2).
  std::vector<double> core_losses(core_umean_.size());
  for (std::size_t i = 0; i < core_umean_.size(); ++i) {
    core_losses[i] = component_loss(uc, core_umean_[i], params_.alpha_core);
  }
  std::vector<double> mem_losses(mem_umean_.size());
  for (std::size_t j = 0; j < mem_umean_.size(); ++j) {
    mem_losses[j] = component_loss(um, mem_umean_[j], params_.alpha_mem);
  }

  // 3. Update weight[N][M] (Eq. 3 + Eq. 4) and enforce the argmax pair.
  table_.update(core_losses, mem_losses, params_.phi, params_.beta, params_.weight_floor);
  const PairIndex chosen = table_.argmax();
  argmax_ = chosen;
  bool applied = true;
  if (params_.harden) {
    applied = actuate(chosen);
    if (!applied) ++actuation_failures_;
  } else {
    settings_->set_clock_levels(chosen.core, chosen.mem);
  }

  ++steps_;
  ScalerDecision d{now, uc_raw, um_raw, uc, um, chosen};
  d.actuation_ok = applied;
  decisions_.push(d);
  return d;
}

bool GpuFrequencyScaler::actuate(PairIndex pair) {
  for (int attempt = 0; attempt <= params_.actuation_retries; ++attempt) {
    const cudalite::ClockWriteResult r =
        settings_->set_clock_levels_checked(pair.core, pair.mem);
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
  double delay = params_.actuation_backoff.get();
  for (int i = 0; i < attempt; ++i) delay *= 2.0;
  delay = std::min(delay, params_.interval.get());
  retry_.cancel();
  retry_ = attached_queue_->schedule_in(Seconds{delay}, [this, pair, attempt] {
    const cudalite::ClockWriteResult r =
        settings_->set_clock_levels_checked(pair.core, pair.mem);
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
  core_filter_ = Ewma(params_.util_filter_alpha);
  mem_filter_ = Ewma(params_.util_filter_alpha);
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
  w.f64(d.filtered_core_util);
  w.f64(d.filtered_mem_util);
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
  d.filtered_core_util = r.f64();
  d.filtered_mem_util = r.f64();
  d.chosen.core = static_cast<std::size_t>(r.u64());
  d.chosen.mem = static_cast<std::size_t>(r.u64());
  d.sample_ok = r.b();
  d.actuation_ok = r.b();
  return d;
}
}  // namespace

void GpuFrequencyScaler::save(common::SnapshotWriter& w) const {
  table_.save(w);
  w.f64(core_filter_.value());
  w.b(core_filter_.seeded());
  w.f64(mem_filter_.value());
  w.b(mem_filter_.seeded());
  w.u64(argmax_.core);
  w.u64(argmax_.mem);
  w.u64(steps_);
  w.u64(held_steps_);
  w.u64(actuation_failures_);
  decisions_.save(w, save_decision);
}

void GpuFrequencyScaler::load(common::SnapshotReader& r) {
  table_.load(r);
  const double core_value = r.f64();
  const bool core_seeded = r.b();
  core_filter_.restore(core_value, core_seeded);
  const double mem_value = r.f64();
  const bool mem_seeded = r.b();
  mem_filter_.restore(mem_value, mem_seeded);
  argmax_.core = static_cast<std::size_t>(r.u64());
  argmax_.mem = static_cast<std::size_t>(r.u64());
  steps_ = r.u64();
  held_steps_ = r.u64();
  actuation_failures_ = r.u64();
  decisions_.load(r, load_decision);
}

}  // namespace gg::greengpu

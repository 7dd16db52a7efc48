#include "src/greengpu/cpu_governor.h"

#include <stdexcept>

#include "src/common/annotations.h"
#include "src/greengpu/loss.h"

namespace gg::greengpu {

CpuGovernor::CpuGovernor(sim::Platform& platform)
    : platform_(&platform), sampler_(platform.cpu(), platform.queue()) {}

GovernorDecision CpuGovernor::step(Seconds now) {
  const double u = sampler_.sample();
  const std::size_t level = decide(u);
  platform_->cpu().set_level(level);
  ++steps_;
  const GovernorDecision d{now, u, level};
  decisions_.push(d);
  return d;
}

void CpuGovernor::attach() {
  detach();
  arm();
}

void CpuGovernor::attach_at(Seconds first_step) {
  detach();
  next_ = platform_->queue().schedule_at(first_step, [this] { tick(); });
}

namespace {

void save_governor_decision(common::SnapshotWriter& w, const GovernorDecision& d) {
  w.f64(d.time.get());
  w.f64(d.util);
  w.u64(d.level);
}

GovernorDecision load_governor_decision(common::SnapshotReader& r) {
  GovernorDecision d;
  d.time = Seconds{r.f64()};
  d.util = r.f64();
  d.level = static_cast<std::size_t>(r.u64());
  return d;
}

}  // namespace

void CpuGovernor::save(common::SnapshotWriter& w) const {
  sampler_.save(w);
  w.u64(steps_);
  decisions_.save(w, save_governor_decision);
}

void CpuGovernor::load(common::SnapshotReader& r) {
  sampler_.load(r);
  steps_ = r.u64();
  decisions_.load(r, load_governor_decision);
}

void WmaCpuGovernor::save(common::SnapshotWriter& w) const {
  CpuGovernor::save(w);
  table_.save(w);
}

void WmaCpuGovernor::load(common::SnapshotReader& r) {
  CpuGovernor::load(r);
  table_.load(r);
}

void CpuGovernor::arm() {
  next_ = platform_->queue().schedule_in(interval(), [this] { tick(); });
}

GG_HOT void CpuGovernor::tick() {
  // Back-to-back samples with nothing else due in between run here, off the
  // heap; fire_inline() keeps the clock and queue counters bit-exact.
  sim::EventQueue& queue = platform_->queue();
  do {
    step(queue.now());
  } while (queue.fire_inline(queue.now() + interval()));
  arm();
}

void CpuGovernor::detach() { next_.cancel(); }

std::size_t OndemandGovernor::decide(double util) {
  std::size_t level = current_level();
  if (util > kOndemandUpThreshold) {
    level = 0;  // jump to the highest available frequency
  } else if (util < kOndemandDownThreshold) {
    if (level < table().lowest_level()) ++level;  // next lowest frequency
  }
  return level;
}

std::size_t ConservativeGovernor::decide(double util) {
  std::size_t level = current_level();
  if (util > kOndemandUpThreshold) {
    if (level > 0) --level;  // one step up, never a jump
  } else if (util < kOndemandDownThreshold) {
    if (level < table().lowest_level()) ++level;
  }
  return level;
}

namespace {
/// WmaCpuGovernor's learning constants: the GPU scaler's alpha_core and
/// 1 - beta defaults (WmaParams).
constexpr double kWmaCpuAlpha = 0.15;
constexpr double kWmaCpuOneMinusBeta = 1.0 - 0.2;
}  // namespace

WmaCpuGovernor::WmaCpuGovernor(sim::Platform& platform)
    : CpuGovernor(platform),
      umean_(umean_table(platform.cpu().table())),
      table_(platform.cpu().table().levels(), 1),
      scratch_losses_(umean_.size(), 0.0) {}

std::size_t WmaCpuGovernor::decide(double util) {
  // Degenerate 1-D case of Eq. 3: the "memory" dimension has a single level
  // with zero loss, so phi = 1 reduces the total loss to the CPU loss
  // (1.0 * loss is the loss bit-exactly, and the single pre-blended memory
  // entry is 0.0).  Fused update: allocation-free, argmax tracked inline.
  for (std::size_t i = 0; i < umean_.size(); ++i) {
    scratch_losses_[i] = component_loss(util, umean_[i], kWmaCpuAlpha);
  }
  static constexpr double kZeroMemLoss[1] = {0.0};
  return table_
      .update_fused(scratch_losses_.data(), kZeroMemLoss, kWmaCpuOneMinusBeta,
                    kWeightFloor)
      .core;
}

std::string_view to_string(CpuGovernorKind kind) {
  switch (kind) {
    case CpuGovernorKind::kNone: return "none";
    case CpuGovernorKind::kPerformance: return "performance";
    case CpuGovernorKind::kPowersave: return "powersave";
    case CpuGovernorKind::kOndemand: return "ondemand";
    case CpuGovernorKind::kConservative: return "conservative";
    case CpuGovernorKind::kWma: return "wma";
  }
  return "unknown";
}

CpuGovernorKind cpu_governor_from_string(std::string_view name) {
  if (name == "none") return CpuGovernorKind::kNone;
  if (name == "performance") return CpuGovernorKind::kPerformance;
  if (name == "powersave") return CpuGovernorKind::kPowersave;
  if (name == "ondemand") return CpuGovernorKind::kOndemand;
  if (name == "conservative") return CpuGovernorKind::kConservative;
  if (name == "wma") return CpuGovernorKind::kWma;
  throw std::invalid_argument("unknown CPU governor: " + std::string(name));
}

std::unique_ptr<CpuGovernor> make_cpu_governor(CpuGovernorKind kind,
                                               sim::Platform& platform) {
  switch (kind) {
    case CpuGovernorKind::kNone:
      return nullptr;
    case CpuGovernorKind::kPerformance:
      return std::make_unique<PerformanceGovernor>(platform);
    case CpuGovernorKind::kPowersave:
      return std::make_unique<PowersaveGovernor>(platform);
    case CpuGovernorKind::kOndemand:
      return std::make_unique<OndemandGovernor>(platform);
    case CpuGovernorKind::kConservative:
      return std::make_unique<ConservativeGovernor>(platform);
    case CpuGovernorKind::kWma:
      return std::make_unique<WmaCpuGovernor>(platform);
  }
  throw std::invalid_argument("unknown CPU governor kind");
}

}  // namespace gg::greengpu

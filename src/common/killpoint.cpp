#include "src/common/killpoint.h"

#include <cstdlib>
#include <limits>

namespace gg::common {

namespace detail {
std::atomic<std::int64_t> g_kill_remaining{0};
std::atomic<std::uint8_t> g_kill_point{0};
std::atomic<std::uint8_t> g_kill_mode{0};
std::atomic<bool> g_kill_fired{false};

void trigger(KillPoint point) {
  g_kill_fired.store(true, std::memory_order_release);
  if (static_cast<CrashMode>(g_kill_mode.load(std::memory_order_relaxed)) ==
      CrashMode::kExit) {
    // Real process death: no destructors, no atexit, no stream flushes —
    // buffered journal bytes are lost exactly as with SIGKILL.
    std::_Exit(kCrashExitCode);
  }
  throw CrashInjected(point);
}
}  // namespace detail

std::string_view to_string(KillPoint point) {
  switch (point) {
    case KillPoint::kPreScalerStep: return "pre-scaler-step";
    case KillPoint::kPostScalerStep: return "post-scaler-step";
    case KillPoint::kMidCheckpoint: return "mid-checkpoint";
    case KillPoint::kMidCampaignCell: return "mid-campaign-cell";
    case KillPoint::kServicePostAdmit: return "service-post-admit";
    case KillPoint::kServicePreResult: return "service-pre-result";
  }
  return "?";
}

KillPoint kill_point_from_string(std::string_view name) {
  if (name == "pre-scaler-step") return KillPoint::kPreScalerStep;
  if (name == "post-scaler-step") return KillPoint::kPostScalerStep;
  if (name == "mid-checkpoint") return KillPoint::kMidCheckpoint;
  if (name == "mid-campaign-cell") return KillPoint::kMidCampaignCell;
  if (name == "service-post-admit") return KillPoint::kServicePostAdmit;
  if (name == "service-pre-result") return KillPoint::kServicePreResult;
  throw std::invalid_argument(
      "unknown kill-point '" + std::string(name) +
      "' (valid: pre-scaler-step post-scaler-step mid-checkpoint "
      "mid-campaign-cell service-post-admit service-pre-result)");
}

void arm_kill_point(KillPoint point, std::uint64_t nth, CrashMode mode) {
  constexpr auto kMaxNth =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  if (nth == 0 || nth > kMaxNth) {
    throw std::invalid_argument("arm_kill_point: nth must be in [1, INT64_MAX]");
  }
  detail::g_kill_point.store(static_cast<std::uint8_t>(point), std::memory_order_relaxed);
  detail::g_kill_mode.store(static_cast<std::uint8_t>(mode), std::memory_order_relaxed);
  detail::g_kill_fired.store(false, std::memory_order_relaxed);
  detail::g_kill_remaining.store(static_cast<std::int64_t>(nth),
                                 std::memory_order_release);
}

void disarm_kill_points() {
  detail::g_kill_remaining.store(0, std::memory_order_release);
}

bool kill_point_fired() {
  return detail::g_kill_fired.load(std::memory_order_acquire);
}

}  // namespace gg::common

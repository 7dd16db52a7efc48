// Named kill-points for crash-consistency testing.
//
// A kill-point is a deterministic place in the code where a test or a binary
// can make the process "die": either by calling std::_Exit (real process
// death, armed by --crash-at in greengpu_cli and greengpud — no destructors,
// no stream flushes, exactly what a SIGKILL leaves behind) or, in ctest, by
// throwing CrashInjected, which unwinds the run so the test can start a
// fresh one with resume on, as a restarted process would.  Instrumented
// code calls `killpoint(KillPoint::k...)` at the named spots; the check is
// one relaxed atomic load when nothing is armed, so shipping the probes in
// the scaler step and the checkpoint writer costs nothing in normal runs.
//
// This lives in common/ (not sim/) because the snapshot writer itself hosts
// the mid-checkpoint kill-point and common cannot depend on sim;
// sim::CrashInjector (src/sim/crash.h) is the user-facing RAII layer that
// arms and disarms these points.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace gg::common {

/// Where a run can be killed.  Names (for --crash-at and logs) are the
/// kebab-case forms returned by to_string().
enum class KillPoint : std::uint8_t {
  kPreScalerStep,      ///< before an Algorithm 1 scaler step runs
  kPostScalerStep,     ///< after the step's decision is recorded
  kMidCheckpoint,      ///< inside a checkpoint/journal write, torn-file window
  kMidCampaignCell,    ///< after a campaign cell finished, before it is journaled
  kServicePostAdmit,   ///< after a greengpud admission is journaled, before reply
  kServicePreResult,   ///< after a greengpud request executed, before its result
                       ///< is journaled (the re-execute-on-resume window)
};

inline constexpr int kKillPointCount = 6;

[[nodiscard]] std::string_view to_string(KillPoint point);
/// Accepts the kebab-case names; throws std::invalid_argument otherwise.
[[nodiscard]] KillPoint kill_point_from_string(std::string_view name);

/// What happens when an armed kill-point triggers.
enum class CrashMode : std::uint8_t {
  kThrow,  ///< throw CrashInjected (ctest's in-process stand-in for death)
  kExit,   ///< std::_Exit(kCrashExitCode): real process death (CLI / CI)
};

/// Exit status of a kExit crash, checked by the CI matrix to distinguish
/// an injected kill from a genuine failure.
inline constexpr int kCrashExitCode = 70;

/// The exception a kThrow kill-point raises.  Propagates through
/// common::JobPool (which rethrows after draining in-flight cells) out of
/// the campaign, leaving on disk what a process death there would leave.
class CrashInjected : public std::runtime_error {
 public:
  explicit CrashInjected(KillPoint point)
      : std::runtime_error("crash injected at kill-point " +
                           std::string(to_string(point))),
        point_(point) {}
  [[nodiscard]] KillPoint point() const { return point_; }

 private:
  KillPoint point_;
};

namespace detail {
/// Hits remaining until the armed point fires; <= 0 means disarmed or
/// already fired (a kill-point fires once, so a resumed in-process run
/// sails past it).
extern std::atomic<std::int64_t> g_kill_remaining;
extern std::atomic<std::uint8_t> g_kill_point;
extern std::atomic<std::uint8_t> g_kill_mode;
[[noreturn]] void trigger(KillPoint point);
}  // namespace detail

/// Arm `point` to fire once, on its `nth` hit (1 = the next one),
/// process-wide.  `nth` must lie in [1, INT64_MAX].  Only one point can be
/// armed at a time; re-arming replaces the previous arm.  Thread-safe:
/// concurrent hits from campaign workers elect exactly one trigger.
void arm_kill_point(KillPoint point, std::uint64_t nth, CrashMode mode);

/// Disarm whatever is armed (idempotent).
void disarm_kill_points();

/// True if the armed point has already fired (always false in kExit mode,
/// for obvious reasons).
[[nodiscard]] bool kill_point_fired();

/// The probe instrumented code calls.  One relaxed load when disarmed.
inline void killpoint(KillPoint point) {
  if (detail::g_kill_remaining.load(std::memory_order_relaxed) <= 0) return;
  if (static_cast<KillPoint>(detail::g_kill_point.load(std::memory_order_relaxed)) !=
      point) {
    return;
  }
  if (detail::g_kill_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    detail::trigger(point);
  }
}

}  // namespace gg::common

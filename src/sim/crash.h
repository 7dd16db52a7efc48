// RAII facade over the common kill-point registry (src/common/killpoint.h).
//
// PR 1's FaultInjector models a flaky *platform*; CrashInjector models a
// flaky *process*: the run dies outright at a named point — before/after a
// scaler step, inside a checkpoint write, or between finishing a campaign
// cell and journaling it — after a deterministic number of hits.  The
// --crash-at flag of greengpu_cli and greengpud arms exit mode, real process
// death that a restart with --resume recovers from; tests arm throw mode
// (CrashInjected unwinds the run), then start the resumed run themselves.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/killpoint.h"

namespace gg::sim {

using common::CrashInjected;
using common::CrashMode;
using common::KillPoint;
using common::kCrashExitCode;

/// A parsed --crash-at specification: which point, on which hit.
struct CrashSpec {
  KillPoint point{KillPoint::kPreScalerStep};
  std::uint64_t nth{1};
};

/// Parse "point" or "point:N" (e.g. "mid-checkpoint", "pre-scaler-step:3"),
/// N in [1, INT64_MAX] written in digits alone.  Throws
/// std::invalid_argument naming the bad token.  The one --crash-at parser of
/// greengpu_cli and greengpud.
[[nodiscard]] CrashSpec parse_crash_spec(std::string_view spec);

/// Arms one kill-point for its scope and disarms on destruction, so a test
/// that throws (or an EXPECT that fails) never leaves a live kill-point
/// behind for the next test.
class CrashInjector {
 public:
  CrashInjector(KillPoint point, std::uint64_t nth, CrashMode mode) : point_(point) {
    common::arm_kill_point(point, nth, mode);
  }

  explicit CrashInjector(const CrashSpec& spec, CrashMode mode = CrashMode::kThrow)
      : CrashInjector(spec.point, spec.nth, mode) {}

  CrashInjector(const CrashInjector&) = delete;
  CrashInjector& operator=(const CrashInjector&) = delete;

  ~CrashInjector() { common::disarm_kill_points(); }

  [[nodiscard]] KillPoint point() const { return point_; }
  /// True once the armed point has triggered (throw mode only).
  [[nodiscard]] bool fired() const { return common::kill_point_fired(); }

 private:
  KillPoint point_;
};

}  // namespace gg::sim

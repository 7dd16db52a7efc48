#include "src/sim/crash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace gg::sim {
namespace {

TEST(ParseCrashSpec, ReadsThePointAndItsHitCount) {
  EXPECT_EQ(parse_crash_spec("mid-checkpoint").point, KillPoint::kMidCheckpoint);
  EXPECT_EQ(parse_crash_spec("mid-checkpoint").nth, 1u);
  const CrashSpec spec = parse_crash_spec("pre-scaler-step:3");
  EXPECT_EQ(spec.point, KillPoint::kPreScalerStep);
  EXPECT_EQ(spec.nth, 3u);
  EXPECT_EQ(parse_crash_spec("service-pre-result:9223372036854775807").nth,
            static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()));
}

TEST(ParseCrashSpec, RefusesASignZeroAndACountPastInt64Max) {
  // A count the kill-point's signed hit counter cannot hold would never fire,
  // and a sign, a blank or a stray character is not a count.
  for (const char* count : {"-1", "+1", "0", "", " 1", "1 ", "1x", "0x1", "1.0",
                            "9223372036854775808", "18446744073709551615",
                            "18446744073709551616", "99999999999999999999"}) {
    SCOPED_TRACE(count);
    try {
      (void)parse_crash_spec(std::string("pre-scaler-step:") + count);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("hit count '") + count + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ParseCrashSpec, RefusesAnUnknownPoint) {
  EXPECT_THROW((void)parse_crash_spec("mid-nowhere"), std::invalid_argument);
  EXPECT_THROW((void)parse_crash_spec("mid-nowhere:2"), std::invalid_argument);
  EXPECT_THROW((void)parse_crash_spec(""), std::invalid_argument);
}

TEST(CrashInjector, FiresOnceOnItsNthHit) {
  CrashInjector crash(KillPoint::kPreScalerStep, 3, CrashMode::kThrow);
  common::killpoint(KillPoint::kPreScalerStep);
  common::killpoint(KillPoint::kPostScalerStep);  // another point: no hit
  common::killpoint(KillPoint::kPreScalerStep);
  EXPECT_FALSE(crash.fired());
  EXPECT_THROW(common::killpoint(KillPoint::kPreScalerStep), CrashInjected);
  EXPECT_TRUE(crash.fired());
  // Fired once, it stays quiet: a resumed run passes the same point.
  for (int i = 0; i < 10; ++i) common::killpoint(KillPoint::kPreScalerStep);
}

TEST(CrashInjector, ArmRefusesACountItsCounterCannotHold) {
  EXPECT_THROW(common::arm_kill_point(KillPoint::kPreScalerStep, 0, CrashMode::kThrow),
               std::invalid_argument);
  EXPECT_THROW(common::arm_kill_point(KillPoint::kPreScalerStep,
                                      std::uint64_t{1} << 63, CrashMode::kThrow),
               std::invalid_argument);
  common::disarm_kill_points();
}

}  // namespace
}  // namespace gg::sim

#include "src/sim/dvfs.h"

#include <gtest/gtest.h>

namespace gg::sim {
namespace {

using namespace gg::literals;

TEST(DvfsTable, RejectsEmpty) {
  EXPECT_THROW(DvfsTable({}), std::invalid_argument);
}

TEST(DvfsTable, RejectsNonDescending) {
  EXPECT_THROW(DvfsTable({{500_MHz, 1.0}, {600_MHz, 1.0}}), std::invalid_argument);
  EXPECT_THROW(DvfsTable({{500_MHz, 1.0}, {500_MHz, 1.0}}), std::invalid_argument);
}

TEST(DvfsTable, RejectsNonPositive) {
  EXPECT_THROW(DvfsTable({{0_MHz, 1.0}}), std::invalid_argument);
  EXPECT_THROW(DvfsTable({{500_MHz, 0.0}}), std::invalid_argument);
}

TEST(DvfsTable, PeakFloorAndLevels) {
  const DvfsTable t = geforce8800_memory_table();
  EXPECT_EQ(t.levels(), 6u);
  EXPECT_EQ(t.peak(), 900_MHz);
  EXPECT_EQ(t.floor(), 500_MHz);
  EXPECT_EQ(t.lowest_level(), 5u);
}

TEST(DvfsTable, PaperMemoryLevels) {
  // Section VI quotes these exactly.
  const DvfsTable t = geforce8800_memory_table();
  const double expected[] = {900, 820, 740, 660, 580, 500};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(t.frequency(i).get(), expected[i]);
  }
}

TEST(DvfsTable, CoreTableIncludes410Knee) {
  // Section III-A cites 410 MHz as the streamcluster knee.
  const DvfsTable t = geforce8800_core_table();
  EXPECT_EQ(t.levels(), 6u);
  EXPECT_EQ(t.peak(), 576_MHz);
  EXPECT_DOUBLE_EQ(t.frequency(3).get(), 410.0);
}

TEST(DvfsTable, Phenom2Levels) {
  // Section VI: 2.8 GHz, 2.1 GHz, 1.3 GHz, 800 MHz.
  const DvfsTable t = phenom2_table();
  ASSERT_EQ(t.levels(), 4u);
  EXPECT_DOUBLE_EQ(t.frequency(0).get(), 2800.0);
  EXPECT_DOUBLE_EQ(t.frequency(3).get(), 800.0);
  // Voltage scales down with frequency (true DVFS).
  EXPECT_GT(t.voltage(0), t.voltage(3));
}

TEST(DvfsTable, LevelOutOfRangeThrows) {
  const DvfsTable t = phenom2_table();
  EXPECT_THROW((void)t.point(4), std::out_of_range);
}

TEST(DvfsTable, RangeFractionEndpoints) {
  const DvfsTable t = geforce8800_memory_table();
  EXPECT_DOUBLE_EQ(t.range_fraction(0), 1.0);
  EXPECT_DOUBLE_EQ(t.range_fraction(t.lowest_level()), 0.0);
}

TEST(DvfsTable, RangeFractionLinearInFrequency) {
  const DvfsTable t = geforce8800_memory_table();
  // 820 is 320/400 of the way from 500 to 900.
  EXPECT_NEAR(t.range_fraction(1), 0.8, 1e-12);
  EXPECT_NEAR(t.range_fraction(2), 0.6, 1e-12);
}

TEST(DvfsTable, SingleLevelRangeFractionIsOne) {
  const DvfsTable t({{500_MHz, 1.0}});
  EXPECT_DOUBLE_EQ(t.range_fraction(0), 1.0);
}

TEST(FreqDomain, InitialLevelRespected) {
  FreqDomain d("x", geforce8800_memory_table(), 2);
  EXPECT_EQ(d.level(), 2u);
  EXPECT_EQ(d.frequency(), 740_MHz);
}

TEST(FreqDomain, BadInitialLevelThrows) {
  EXPECT_THROW(FreqDomain("x", phenom2_table(), 4), std::out_of_range);
}

TEST(FreqDomain, SetLevelTracksTransitions) {
  FreqDomain d("x", phenom2_table(), 0);
  EXPECT_FALSE(d.set_level(0));  // same level: no transition
  EXPECT_EQ(d.transitions(), 0u);
  EXPECT_TRUE(d.set_level(2));
  EXPECT_TRUE(d.set_level(1));
  EXPECT_EQ(d.transitions(), 2u);
  EXPECT_THROW(d.set_level(9), std::out_of_range);
}

}  // namespace
}  // namespace gg::sim

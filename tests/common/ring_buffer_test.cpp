#include "src/common/ring_buffer.h"

#include <gtest/gtest.h>

namespace gg {
namespace {

TEST(RingBuffer, ZeroCapacityThrows) {
  EXPECT_THROW(RingBuffer<int>(0), std::invalid_argument);
}

TEST(RingBuffer, StartsEmpty) {
  RingBuffer<int> rb(3);
  EXPECT_TRUE(rb.empty());
  EXPECT_FALSE(rb.full());
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_EQ(rb.capacity(), 3u);
}

TEST(RingBuffer, PushUntilFull) {
  RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  EXPECT_EQ(rb.size(), 2u);
  rb.push(3);
  EXPECT_TRUE(rb.full());
}

TEST(RingBuffer, OverwritesOldest) {
  RingBuffer<int> rb(3);
  for (int i = 1; i <= 5; ++i) rb.push(i);
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.oldest(), 3);
  EXPECT_EQ(rb.newest(), 5);
  EXPECT_EQ(rb[0], 3);
  EXPECT_EQ(rb[1], 4);
  EXPECT_EQ(rb[2], 5);
}

TEST(RingBuffer, IndexOutOfRangeThrows) {
  RingBuffer<int> rb(3);
  rb.push(1);
  EXPECT_THROW((void)rb[1], std::out_of_range);
}

TEST(RingBuffer, NewestOnEmptyThrows) {
  RingBuffer<int> rb(2);
  EXPECT_THROW((void)rb.newest(), std::out_of_range);
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<int> rb(2);
  rb.push(1);
  rb.push(2);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push(9);
  EXPECT_EQ(rb.newest(), 9);
  EXPECT_EQ(rb.oldest(), 9);
}

TEST(RingBuffer, CapacityOneBehaves) {
  RingBuffer<int> rb(1);
  rb.push(1);
  rb.push(2);
  EXPECT_EQ(rb.size(), 1u);
  EXPECT_EQ(rb.newest(), 2);
  EXPECT_EQ(rb.oldest(), 2);
}

}  // namespace
}  // namespace gg

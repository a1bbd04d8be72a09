// Tests for the simulation substrate: clock, cost model, event queue.
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/clock.h"
#include "src/sim/event_queue.h"

namespace mks {
namespace {

TEST(Clock, AdvancesMonotonically) {
  Clock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.Advance(5);
  clock.Advance(7);
  EXPECT_EQ(clock.now(), 12u);
  clock.Reset();
  EXPECT_EQ(clock.now(), 0u);
}

TEST(CostModel, StructuredFactorApplies) {
  Clock clock;
  CostModel cost(&clock);
  cost.set_structured_factor(2.0);
  cost.Charge(CodeStyle::kOptimized, 100);
  EXPECT_EQ(clock.now(), 100u);
  cost.Charge(CodeStyle::kStructured, 100);
  EXPECT_EQ(clock.now(), 300u);
}

TEST(CostModel, DefaultFactorMatchesThePaperObservation) {
  // "the number of generated machine instructions seems to increase by
  // somewhat more than a factor of two"
  EXPECT_GT(CostModel::kDefaultStructuredFactor, 2.0);
  EXPECT_LT(CostModel::kDefaultStructuredFactor, 2.5);
}

// Drains every released cookie, in order.
std::vector<uint64_t> TakeAll(EventQueue& queue) {
  std::vector<uint64_t> taken;
  uint64_t cookie = 0;
  while (queue.TakeReleased(&cookie)) {
    taken.push_back(cookie);
  }
  return taken;
}

TEST(EventQueue, PostingOrderIsReleaseOrder) {
  EventQueue queue;
  queue.Post(10, 1);
  queue.Post(20, 2);
  queue.Post(30, 3);
  EXPECT_EQ(queue.RunDue(100), 3u);
  EXPECT_EQ(TakeAll(queue), (std::vector<uint64_t>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreakAtSameTime) {
  EventQueue queue;
  for (uint64_t i = 0; i < 5; ++i) {
    queue.Post(10, i);
  }
  EXPECT_EQ(queue.RunDue(10), 5u);
  EXPECT_EQ(TakeAll(queue), (std::vector<uint64_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunDueReleasesOnlyWhatFellDue) {
  EventQueue queue;
  queue.Post(10, 1);
  queue.Post(20, 2);
  queue.Post(30, 3);
  EXPECT_EQ(queue.RunDue(9), 0u);
  EXPECT_EQ(queue.RunDue(20), 2u);
  EXPECT_EQ(queue.RunDue(20), 0u);  // already released entries are not counted again
  EXPECT_EQ(TakeAll(queue), (std::vector<uint64_t>{1, 2}));
  EXPECT_FALSE(queue.empty());
  EXPECT_EQ(queue.RunDue(30), 1u);
  EXPECT_EQ(TakeAll(queue), (std::vector<uint64_t>{3}));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, TakeReleasedYieldsNothingBeforeRunDue) {
  EventQueue queue;
  queue.Post(10, 7);
  uint64_t cookie = 0;
  EXPECT_FALSE(queue.TakeReleased(&cookie));
  queue.RunDue(10);
  EXPECT_TRUE(queue.TakeReleased(&cookie));
  EXPECT_EQ(cookie, 7u);
  EXPECT_FALSE(queue.TakeReleased(&cookie));
}

TEST(EventQueue, SizeCountsReleasedEntriesUntilTaken) {
  EventQueue queue;
  queue.Post(10, 1);
  queue.Post(20, 2);
  queue.RunDue(15);
  // empty() and next_due() cover only what has not fallen due; size() still
  // counts the released entry nobody has taken.
  EXPECT_FALSE(queue.empty());
  EXPECT_EQ(queue.size(), 2u);
  queue.RunDue(25);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 2u);
  uint64_t cookie = 0;
  ASSERT_TRUE(queue.TakeReleased(&cookie));
  EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueue, NextDueReportsEarliest) {
  EventQueue queue;
  queue.Post(40, 1);
  queue.Post(50, 2);
  EXPECT_EQ(queue.next_due(), 40u);
  queue.RunDue(45);
  EXPECT_EQ(queue.next_due(), 50u);  // the released entry no longer counts
}

TEST(EventQueueDeathTest, PostEarlierThanTheLastTripsTheAssert) {
  EventQueue queue;
  queue.Post(20, 1);
  EXPECT_DEBUG_DEATH(queue.Post(10, 2), "due");
}

}  // namespace
}  // namespace mks

#include "src/service/admission.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace gg::service {
namespace {

Request make_request(std::uint64_t seq, std::uint64_t priority = 0,
                     double deadline = 0.0) {
  Request r;
  r.seq = seq;
  r.workload = "bfs";
  r.policy = "greengpu";
  r.priority = priority;
  r.deadline = Seconds{deadline};
  return r;
}

/// offer() and, on admission, the queue changes the service applies for it:
/// the evicted-shed record's evict(), then the admit record's requeue().
AdmissionController::Decision offer(AdmissionController& adm, const Request& r,
                                    Seconds inflight_cost, bool draining) {
  AdmissionController::Decision d = adm.offer(r, inflight_cost, draining);
  if (d.admitted) {
    if (d.evicted) {
      EXPECT_EQ(adm.evict()->seq, d.evicted->seq);
    }
    adm.requeue(r);
  }
  return d;
}

TEST(AdmissionController, RejectsNonPositiveDefaultCost) {
  EXPECT_THROW(AdmissionController(4, 0.0), std::invalid_argument);
}

TEST(AdmissionController, AdmitsUntilCapacityThenShedsQueueFull) {
  AdmissionController adm(2, 60.0);
  EXPECT_TRUE(offer(adm, make_request(1), Seconds{0.0}, false).admitted);
  EXPECT_TRUE(offer(adm, make_request(2), Seconds{0.0}, false).admitted);
  const auto d = offer(adm, make_request(3), Seconds{0.0}, false);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, "queue-full");
  EXPECT_FALSE(d.evicted.has_value());
  EXPECT_EQ(adm.depth(), 2u);
}

TEST(AdmissionController, HigherPriorityArrivalEvictsLowestPriority) {
  AdmissionController adm(2, 60.0);
  ASSERT_TRUE(offer(adm, make_request(1, /*priority=*/2), Seconds{0.0}, false).admitted);
  ASSERT_TRUE(offer(adm, make_request(2, /*priority=*/0), Seconds{0.0}, false).admitted);
  const auto d = offer(adm, make_request(3, /*priority=*/1), Seconds{0.0}, false);
  EXPECT_TRUE(d.admitted);
  ASSERT_TRUE(d.evicted.has_value());
  EXPECT_EQ(d.evicted->seq, 2u);  // the priority-0 request is displaced
  EXPECT_EQ(adm.depth(), 2u);
}

TEST(AdmissionController, EqualPriorityArrivalDoesNotEvict) {
  // Eviction requires *strictly* outranking the queue's worst — otherwise a
  // full queue of equals would churn forever, shedding old work for new.
  AdmissionController adm(1, 60.0);
  ASSERT_TRUE(offer(adm, make_request(1, /*priority=*/1), Seconds{0.0}, false).admitted);
  const auto d = offer(adm, make_request(2, /*priority=*/1), Seconds{0.0}, false);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, "queue-full");
}

TEST(AdmissionController, DrainingShedsEverything) {
  AdmissionController adm(4, 60.0);
  const auto d = offer(adm, make_request(1, /*priority=*/99), Seconds{0.0}, true);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, "draining");
  EXPECT_EQ(adm.depth(), 0u);
}

TEST(AdmissionController, DeadlineUsesDefaultEstimateBeforeObservations) {
  AdmissionController adm(4, 60.0);
  // Own cost (60) alone blows a 50 s budget; a 70 s budget fits.
  const auto tight = offer(adm, make_request(1, 0, /*deadline=*/50.0),
                               Seconds{0.0}, false);
  EXPECT_FALSE(tight.admitted);
  EXPECT_EQ(tight.reason, "deadline-unmeetable");
  EXPECT_TRUE(offer(adm, make_request(2, 0, /*deadline=*/70.0), Seconds{0.0}, false)
                  .admitted);
}

TEST(AdmissionController, DeadlineCountsInflightAndOutrankingQueueOnly) {
  AdmissionController adm(4, 10.0);
  // Queue: one request that outranks the arrival (priority 5) and one that
  // does not (priority 0).  Estimated wait for a priority-1 arrival =
  // inflight (7) + outranking queued (10) + own (10) = 27.
  ASSERT_TRUE(offer(adm, make_request(1, /*priority=*/5), Seconds{0.0}, false).admitted);
  ASSERT_TRUE(offer(adm, make_request(2, /*priority=*/0), Seconds{0.0}, false).admitted);
  EXPECT_FALSE(offer(adm, make_request(3, /*priority=*/1, /*deadline=*/26.0),
                         Seconds{7.0}, false)
                   .admitted);
  EXPECT_TRUE(offer(adm, make_request(4, /*priority=*/1, /*deadline=*/27.0),
                        Seconds{7.0}, false)
                  .admitted);
}

TEST(AdmissionController, ObservedCostIsMaxSoFar) {
  AdmissionController adm(4, 60.0);
  EXPECT_DOUBLE_EQ(adm.estimate("bfs", "greengpu").get(), 60.0);
  adm.observe_cost("bfs", "greengpu", Seconds{10.0});
  EXPECT_DOUBLE_EQ(adm.estimate("bfs", "greengpu").get(), 10.0);
  adm.observe_cost("bfs", "greengpu", Seconds{25.0});
  EXPECT_DOUBLE_EQ(adm.estimate("bfs", "greengpu").get(), 25.0);
  adm.observe_cost("bfs", "greengpu", Seconds{5.0});
  EXPECT_DOUBLE_EQ(adm.estimate("bfs", "greengpu").get(), 25.0);
  // Other pairs are unaffected.
  EXPECT_DOUBLE_EQ(adm.estimate("kmeans", "greengpu").get(), 60.0);
}

TEST(AdmissionController, NextIsPriorityThenFifo) {
  AdmissionController adm(4, 60.0);
  ASSERT_TRUE(offer(adm, make_request(1, 0), Seconds{0.0}, false).admitted);
  ASSERT_TRUE(offer(adm, make_request(2, 3), Seconds{0.0}, false).admitted);
  ASSERT_TRUE(offer(adm, make_request(3, 3), Seconds{0.0}, false).admitted);
  for (const std::uint64_t seq : {2u, 3u, 1u}) {
    EXPECT_EQ(adm.next()->seq, seq);
    EXPECT_EQ(adm.claim()->seq, seq);
  }
  EXPECT_EQ(adm.next(), nullptr);
  EXPECT_EQ(adm.claim(), std::nullopt);
}

TEST(AdmissionController, OfferDecidesWithoutQueueing) {
  AdmissionController adm(1, 60.0);
  adm.requeue(make_request(1, /*priority=*/0));
  const auto d = adm.offer(make_request(2, /*priority=*/1), Seconds{0.0}, false);
  EXPECT_TRUE(d.admitted);
  ASSERT_TRUE(d.evicted.has_value());
  EXPECT_EQ(d.evicted->seq, 1u);
  EXPECT_EQ(adm.depth(), 1u);
  EXPECT_EQ(adm.next()->seq, 1u) << "offer() neither evicts nor pushes";
}

TEST(AdmissionController, RequeueBypassesAdmissionButNotCapacity) {
  AdmissionController adm(1, 60.0);
  // requeue ignores deadlines/draining — the request already passed
  // admission in the run that journaled it…
  adm.requeue(make_request(1, 0, /*deadline=*/1.0));
  EXPECT_EQ(adm.depth(), 1u);
  // …but a journal with more pending work than the queue can hold means the
  // configuration changed; that is corruption, not a shed.
  EXPECT_THROW(adm.requeue(make_request(2)), std::logic_error);
}

}  // namespace
}  // namespace gg::service

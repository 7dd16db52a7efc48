// EventQueue::fire_inline: a self-re-arming periodic action that fires its
// back-to-back instances in place must leave the simulation exactly as the
// same action re-armed through the heap does — same (time, id) firing log,
// clock, counters and save() bytes — under random co-scheduled events,
// exact ties with the tick instant, cancellations and reschedules made from
// inside the tick, compaction, and every way the queue is driven
// (run_until horizons, run_until(now()), step() loops, run_until_empty).
#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/snapshot.h"

namespace gg::sim {
namespace {

using namespace gg::literals;

/// Everything a caller outside the queue can observe, at one instant.
struct QueueState {
  std::uint64_t now_bits{0};
  std::uint64_t fired{0};
  std::uint64_t compactions{0};
  std::size_t queued{0};
  std::size_t pending{0};
  std::vector<std::uint8_t> saved;

  bool operator==(const QueueState&) const = default;
};

QueueState observe(const EventQueue& q) {
  QueueState s;
  s.now_bits = std::bit_cast<std::uint64_t>(q.now().get());
  s.fired = q.fired_count();
  s.compactions = q.compaction_count();
  s.queued = q.queued_count();
  s.pending = q.pending_count();
  common::SnapshotWriter w;
  q.save(w);
  s.saved = w.payload();
  return s;
}

/// One seeded scenario.  The periodic action re-arms through the heap, or
/// (inline_ticks) first fires its following instances with fire_inline();
/// both sims draw the same random side effects in firing order, so any
/// divergence in order shows up in the log.
class Scenario {
 public:
  Scenario(std::uint64_t seed, bool inline_ticks)
      : rng_(seed), caller_rng_(seed ^ 0xD1B54A32D192ED03ULL), inline_ticks_(inline_ticks) {
    // 0.1 s (the governor's interval: inexact in binary, so tick instants
    // accumulate rounding) or a random interval.
    dt_ = rng_.uniform() < 0.5 ? Seconds{0.1} : Seconds{rng_.uniform(0.01, 0.5)};
    ticks_left_ = 150 + static_cast<int>(rng_.uniform_int(250));
  }

  void run() {
    attach_at(Seconds{rng_.uniform(0.0, 1.0)});
    for (int round = 0; round < 400 && ticks_left_ > 0; ++round) {
      drive_once();
      trace_.push_back(observe(q_));
    }
    q_.run_until_empty();
    trace_.push_back(observe(q_));
  }

  [[nodiscard]] const std::vector<std::pair<std::uint64_t, int>>& log() const { return log_; }
  [[nodiscard]] const std::vector<QueueState>& trace() const { return trace_; }
  [[nodiscard]] std::uint64_t inline_fires() const { return inline_fires_; }
  [[nodiscard]] std::uint64_t compactions() const { return q_.compaction_count(); }

 private:
  void record(int id) {
    log_.emplace_back(std::bit_cast<std::uint64_t>(q_.now().get()), id);
  }

  void tick() {
    tick_body();
    if (inline_ticks_) {
      while (ticks_left_ > 0 && q_.fire_inline(q_.now() + dt_)) {
        ++inline_fires_;
        tick_body();
      }
    }
    if (ticks_left_ > 0) arm();
  }

  void tick_body() {
    record(0);
    --ticks_left_;
    perturb();
  }

  void arm() {
    next_due_ = q_.now() + dt_;
    next_ = q_.schedule_in(dt_, [this] { tick(); });
  }

  void attach_at(Seconds when) {
    next_due_ = when;
    next_ = q_.schedule_at(when, [this] { tick(); });
  }

  void schedule_co_event(Seconds when) {
    const int id = next_id_++;
    handles_.push_back(q_.schedule_at(when, [this, id] {
      record(id);
      if (rng_.uniform() < 0.2) perturb();
    }));
  }

  void cancel_random() {
    if (handles_.empty()) return;
    handles_[rng_.uniform_int(handles_.size())].cancel();
  }

  /// Side effects a tick (or co-event) makes on the queue it runs on.
  void perturb() {
    const double dice = rng_.uniform();
    const Seconds now = q_.now();
    if (dice < 0.15) {
      schedule_co_event(now + Seconds{rng_.uniform(0.0, 3.0 * dt_.get())});
    } else if (dice < 0.25) {
      schedule_co_event(now + dt_);  // exact tie with the next tick
    } else if (dice < 0.30) {
      schedule_co_event(now);  // due before the next tick, same instant as this one
    } else if (dice < 0.40) {
      cancel_random();
    } else if (dice < 0.50) {  // reschedule
      cancel_random();
      schedule_co_event(now + Seconds{rng_.uniform(0.0, 2.0 * dt_.get())});
    } else if (dice < 0.53) {
      // Burst of far-future events, mostly cancelled: drives compaction.
      const std::size_t first = handles_.size();
      for (int i = 0; i < 70; ++i) {
        schedule_co_event(now + Seconds{rng_.uniform(0.0, 50.0 * dt_.get())});
      }
      for (std::size_t i = first; i < handles_.size(); ++i) {
        if (rng_.uniform() < 0.7) handles_[i].cancel();
      }
    }
  }

  /// One top-level action, in the shapes the simulator's callers use.
  void drive_once() {
    const double dice = caller_rng_.uniform();
    if (dice < 0.30) {
      q_.run_until(q_.now() + Seconds{caller_rng_.uniform(0.0, 5.0 * dt_.get())});
    } else if (dice < 0.40) {
      q_.run_until(q_.now());
    } else if (dice < 0.55) {
      // Horizon exactly on a tick instant (inclusive boundary).
      if (next_.pending()) q_.run_until(next_due_);
    } else if (dice < 0.90) {
      // Wait loop (cudalite's run_queue_until / charge_transfer): step()
      // until a completion fires, then fire its co-timed events.
      bool done = false;
      q_.schedule_in(Seconds{caller_rng_.uniform(0.0, 10.0 * dt_.get())},
                     [&done] { done = true; });
      while (!done) ASSERT_TRUE(q_.step());
      q_.run_until(q_.now());
    } else if (next_.pending()) {
      // Detach and re-attach at a new phase (checkpoint restore shape).
      next_.cancel();
      attach_at(q_.now() + Seconds{caller_rng_.uniform(0.0, 2.0 * dt_.get())});
    }
  }

  EventQueue q_;
  Rng rng_;
  Rng caller_rng_;
  bool inline_ticks_;
  Seconds dt_{0.1};
  int ticks_left_{0};
  int next_id_{1};
  Seconds next_due_{0.0};
  EventHandle next_;
  std::vector<EventHandle> handles_;
  std::vector<std::pair<std::uint64_t, int>> log_;
  std::vector<QueueState> trace_;
  std::uint64_t inline_fires_{0};
};

TEST(EventQueueInline, MatchesHeapRearmedPeriodicAction) {
  std::uint64_t inline_fires = 0, compactions = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    Scenario heap(seed, false);
    Scenario in_place(seed, true);
    heap.run();
    in_place.run();
    ASSERT_EQ(heap.log(), in_place.log()) << "seed " << seed;
    ASSERT_EQ(heap.trace(), in_place.trace()) << "seed " << seed;
    inline_fires += in_place.inline_fires();
    compactions += in_place.compactions();
  }
  // The comparison is not vacuous: the inline path and compaction both ran.
  EXPECT_GT(inline_fires, 10000u);
  EXPECT_GT(compactions, 0u);
}

TEST(EventQueueInline, FiresWhenNextAndAccountsLikeTheHeap) {
  EventQueue q;
  q.schedule_at(5_s, [] {});
  ASSERT_TRUE(q.fire_inline(1_s));
  EXPECT_EQ(q.now(), 1_s);
  EXPECT_EQ(q.fired_count(), 1u);
  EventQueue heap;
  heap.schedule_at(5_s, [] {});
  heap.schedule_at(1_s, [] {});
  ASSERT_TRUE(heap.step());
  common::SnapshotWriter a, b;
  q.save(a);
  heap.save(b);
  EXPECT_EQ(a.payload(), b.payload());
}

TEST(EventQueueInline, CompactsExactlyWhenTheHeapRoundTripWould) {
  // Around the compaction threshold (cancelled entries the majority, heap
  // at least 64 entries, counting the one the round trip would push).
  for (int size = 60; size <= 68; ++size) {
    for (int cancelled = size / 2 - 2; cancelled <= size / 2 + 2; ++cancelled) {
      EventQueue in_place, heap;
      for (EventQueue* q : {&in_place, &heap}) {
        std::vector<EventHandle> handles;
        for (int i = 0; i < size; ++i) {
          handles.push_back(q->schedule_at(Seconds{10.0 + i}, [] {}));
        }
        for (int i = 0; i < cancelled; ++i) handles[2 * i % size].cancel();
      }
      ASSERT_TRUE(in_place.fire_inline(1_s));
      heap.schedule_at(1_s, [] {});
      ASSERT_TRUE(heap.step());
      common::SnapshotWriter a, b;
      in_place.save(a);
      heap.save(b);
      EXPECT_EQ(a.payload(), b.payload()) << size << " entries, " << cancelled << " cancelled";
      EXPECT_EQ(in_place.queued_count(), heap.queued_count());
    }
  }
}

TEST(EventQueueInline, DeclinesTiesAndLaterInstants) {
  EventQueue q;
  q.schedule_at(2_s, [] {});
  // An event already due at the same instant holds the smaller sequence
  // number and fires first.
  EXPECT_FALSE(q.fire_inline(2_s));
  EXPECT_FALSE(q.fire_inline(3_s));
  EXPECT_EQ(q.now(), 0_s);
  EXPECT_EQ(q.fired_count(), 0u);
}

TEST(EventQueueInline, DeclinesBehindACancelledFront) {
  EventQueue q;
  EventHandle early = q.schedule_at(1_s, [] {});
  q.schedule_at(5_s, [] {});
  early.cancel();
  EXPECT_FALSE(q.fire_inline(2_s));
  EXPECT_TRUE(q.fire_inline(0.5_s));
}

TEST(EventQueueInline, RespectsTheRunUntilHorizon) {
  EventQueue q;
  std::vector<bool> results;
  q.schedule_at(1_s, [&q, &results] {
    results.push_back(q.fire_inline(2_s));    // exactly at the horizon
    results.push_back(q.fire_inline(2.5_s));  // past it
  });
  q.run_until(2_s);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0]);
  EXPECT_FALSE(results[1]);
  // The horizon ends with run_until: a lone action outside one declines
  // (nothing bounds it), with a later event pending it fires.
  EXPECT_FALSE(q.fire_inline(3_s));
  q.schedule_at(10_s, [] {});
  EXPECT_TRUE(q.fire_inline(3_s));
}

TEST(EventQueueInline, HorizonIsRestoredWhenAnActionThrows) {
  EventQueue q;
  q.schedule_at(1_s, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(q.run_until(2_s), std::runtime_error);
  q.schedule_at(10_s, [] {});
  EXPECT_TRUE(q.fire_inline(5_s));
}

TEST(EventQueueInline, PastInstantThrows) {
  EventQueue q;
  q.run_until(1_s);
  q.schedule_at(5_s, [] {});
  EXPECT_THROW((void)q.fire_inline(0.5_s), std::invalid_argument);
}

}  // namespace
}  // namespace gg::sim

// Streaming telemetry for greengpud: the engine behind the WATCH verb.
//
// A WATCH subscriber receives the daemon's decision stream — admission
// verdicts, executor claims, outcomes with their controller counters
// (scaler decisions, division moves), and circuit-breaker transitions — as
// newline-framed text over the same Unix socket the request protocol uses.
// Two pieces make the stream robust by construction:
//
//   The stream       A *pure function of the journal*: ServiceCore folds
//                    every record through its one transition function
//                    (core.h), which yields the record's render() line and
//                    any circuit-breaker transition the record caused.  The
//                    live core, a resumed core and the offline generators
//                    run that same fold, so a `WATCH FROM <seq>` resume
//                    replays a byte-identical continuation of what a
//                    never-disconnected subscriber would have seen, and
//                    `greengpud --events` prints the same stream offline.
//
//   TelemetryHub     Fan-out with backpressure.  Each subscriber owns a
//                    bounded ring of pending frames; a slow consumer loses
//                    the *oldest* undelivered events, and every loss is
//                    accounted by an explicit `DROPPED <n>` frame in-stream —
//                    never silent.  Heartbeats cover idle streams, and a
//                    subscriber that stays unwritable for the stall budget
//                    is evicted so it can never wedge the daemon.
//
// Frame grammar (one frame per line, see docs/TELEMETRY.md):
//
//   EVENT <seq> <payload>   event seq is global, dense, starts at 1
//   DROPPED <n>             n events were dropped before the next EVENT
//   HEARTBEAT last=<seq>    stream alive; <seq> is the newest published seq
//
// The hub reads no clock: time is ticks delivered by the socket server's
// poll loop (wall-paced in the daemon, hand-cranked in tests), which keeps
// every eviction/heartbeat decision deterministic under test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/service/types.h"

namespace gg::service {

/// Fan-out hub: assigns global event sequence numbers and feeds any number
/// of bounded per-subscriber frame queues.  Single-threaded by contract —
/// the caller serializes access exactly like ServiceCore (the daemon holds
/// its core mutex, tests run single-threaded).
class TelemetryHub {
 public:
  explicit TelemetryHub(TelemetryConfig config);

  /// Broadcast one event payload.  O(subscribers); never blocks, never
  /// allocates beyond each subscriber's fixed ring.
  void publish(const std::string& payload);

  /// Set the stream position after a journal resume (events regenerated
  /// from the journal were "published" by a previous life).  Only legal
  /// before the first subscriber.
  void seed(std::uint64_t published);

  /// Newest published event seq (0 = none yet).
  [[nodiscard]] std::uint64_t published() const { return published_; }
  /// Events dropped across all subscribers, ever.
  [[nodiscard]] std::uint64_t dropped_total() const { return dropped_total_; }
  [[nodiscard]] std::size_t subscriber_count() const { return subs_.size(); }
  /// Subscribers evicted for exhausting the stall budget, ever.
  [[nodiscard]] std::uint64_t evicted_total() const { return evicted_total_; }

  /// Add a subscriber whose next frame is event `from_seq`.  `backlog`
  /// carries the journal-regenerated payloads for [from_seq, published()]
  /// (empty for a live-tail WATCH, where from_seq == published()+1); live
  /// events published after this call queue behind it seamlessly.  Returns
  /// the subscriber id, or 0 when the table is full.
  [[nodiscard]] std::uint64_t subscribe(std::uint64_t from_seq,
                                        std::vector<std::string> backlog);
  /// Remove a subscriber (idempotent; eviction and disconnect both land here).
  void unsubscribe(std::uint64_t id);

  /// Next frame for subscriber `id`, or nullopt when it has nothing to send.
  /// Delivery order per subscriber: backlog, then DROPPED accounting, then
  /// the live ring, then a heartbeat when idle long enough.
  [[nodiscard]] std::optional<std::string> next_frame(std::uint64_t id);

  /// The transport's per-tick verdict for `id`: false when frames are
  /// pending but the peer accepted no bytes this tick (a stall).
  void note_progress(std::uint64_t id, bool progressed);

  /// One server tick: advances heartbeat and stall clocks.  Returns the
  /// ids of subscribers that exhausted the stall budget — already removed
  /// from the hub; the caller closes their connections.
  [[nodiscard]] std::vector<std::uint64_t> tick();

 private:
  struct Entry {
    std::uint64_t seq{0};
    std::string payload;
  };

  struct Subscriber {
    /// Journal-regenerated catch-up payloads, drained before the ring.
    std::vector<std::string> backlog;
    std::size_t backlog_pos{0};
    std::uint64_t backlog_seq{0};  ///< seq of backlog[backlog_pos]
    /// Fixed-capacity ring of undelivered live events (oldest at head).
    std::vector<Entry> ring;
    std::size_t ring_head{0};
    std::size_t ring_size{0};
    /// Drops not yet surfaced as a DROPPED frame.
    std::uint64_t dropped_pending{0};
    std::uint64_t ticks_idle{0};
    std::uint64_t ticks_stalled{0};
    bool stalled_this_tick{false};
  };

  TelemetryConfig config_;
  std::uint64_t published_{0};
  std::uint64_t dropped_total_{0};
  std::uint64_t evicted_total_{0};
  std::uint64_t next_id_{1};
  std::map<std::uint64_t, Subscriber> subs_;
};

}  // namespace gg::service

// Discrete-event simulation core.
//
// The GreenGPU platform is modelled as a discrete-event system: kernel
// completions, DVFS controller invocations, power-meter samples and division
// decisions are all events on a single queue.  The queue provides stable FIFO
// ordering for events scheduled at the same timestamp and cheap cancellation
// (needed when a frequency change reschedules an in-flight kernel completion).
//
// This is the simulator's hottest path, so it avoids per-event allocation:
// callbacks are stored inline (InlineAction) and handle state lives in a
// pooled slab of recycled slots instead of one shared_ptr per event.
// Cancellation stays lazy, but when cancelled entries outnumber live ones
// the heap is compacted in one pass — DVFS-driven rescheduling cancels
// constantly, and without compaction long runs drag dead entries through
// every sift.
//
// A self-re-arming periodic action (the CPU governor's 0.1 s sample) can
// skip the heap altogether while nothing else is due: fire_inline() fires
// "an event at `when` scheduled right now" in place when that event would
// be the very next one the queue fires, and keeps the clock and counters
// exactly as the heap round trip would have left them.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/inline_function.h"
#include "src/common/thread_checker.h"
#include "src/common/units.h"

namespace gg::common {
class SnapshotWriter;
class SnapshotReader;
}  // namespace gg::common

namespace gg::sim {

namespace detail {

/// Recycled per-event handle state.  A slot stays allocated while the heap
/// entry exists or any EventHandle still points at it, so outcome flags
/// survive exactly as long as someone can ask about them.
struct EventSlab {
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Slot {
    std::uint32_t handle_refs{0};
    std::uint32_t next_free{kNone};
    bool in_heap{false};
    bool cancelled{false};
    bool fired{false};
  };

  std::vector<Slot> slots;
  std::uint32_t free_head{kNone};
  /// Cancelled entries still sitting in the heap (drives compaction).
  std::size_t cancelled_in_heap{0};

  GG_HOT std::uint32_t acquire() {
    if (free_head == kNone) {
      // GG_LINT_ALLOW(hot-alloc): slab grows amortized to the run's peak
      // in-flight event count, then recycles slots forever.
      slots.push_back(Slot{0, kNone, true, false, false});
      return static_cast<std::uint32_t>(slots.size() - 1);
    }
    const std::uint32_t idx = free_head;
    Slot& s = slots[idx];
    free_head = s.next_free;
    s = Slot{0, kNone, true, false, false};
    return idx;
  }

  void release_if_unused(std::uint32_t idx) {
    Slot& s = slots[idx];
    if (s.handle_refs == 0 && !s.in_heap) {
      s.next_free = free_head;
      free_head = idx;
    }
  }
};

}  // namespace detail

/// Handle to a scheduled event; allows cancellation.  Copies share state.
class EventHandle {
 public:
  EventHandle() = default;

  EventHandle(const EventHandle& other) : slab_(other.slab_), idx_(other.idx_) {
    if (slab_) ++slab_->slots[idx_].handle_refs;
  }

  EventHandle(EventHandle&& other) noexcept
      : slab_(std::move(other.slab_)), idx_(other.idx_) {
    other.idx_ = detail::EventSlab::kNone;
  }

  EventHandle& operator=(const EventHandle& other) {
    if (this != &other) {
      EventHandle copy(other);
      *this = std::move(copy);
    }
    return *this;
  }

  EventHandle& operator=(EventHandle&& other) noexcept {
    if (this != &other) {
      detach();
      slab_ = std::move(other.slab_);
      idx_ = other.idx_;
      other.idx_ = detail::EventSlab::kNone;
    }
    return *this;
  }

  ~EventHandle() { detach(); }

  /// Cancel the event if it has not fired yet.  Safe to call repeatedly and
  /// on default-constructed handles.
  void cancel() {
    if (!slab_) return;
    auto& s = slab_->slots[idx_];
    if (s.fired || s.cancelled) return;
    s.cancelled = true;
    if (s.in_heap) ++slab_->cancelled_in_heap;
  }

  [[nodiscard]] bool valid() const { return slab_ != nullptr; }
  [[nodiscard]] bool cancelled() const {
    return slab_ && slab_->slots[idx_].cancelled;
  }
  [[nodiscard]] bool fired() const { return slab_ && slab_->slots[idx_].fired; }
  [[nodiscard]] bool pending() const {
    if (!slab_) return false;
    const auto& s = slab_->slots[idx_];
    return !s.fired && !s.cancelled;
  }

 private:
  friend class EventQueue;
  EventHandle(std::shared_ptr<detail::EventSlab> slab, std::uint32_t idx)
      : slab_(std::move(slab)), idx_(idx) {
    ++slab_->slots[idx_].handle_refs;
  }

  void detach() {
    if (!slab_) return;
    auto& s = slab_->slots[idx_];
    --s.handle_refs;
    slab_->release_if_unused(idx_);
    slab_.reset();
    idx_ = detail::EventSlab::kNone;
  }

  std::shared_ptr<detail::EventSlab> slab_;
  std::uint32_t idx_{detail::EventSlab::kNone};
};

/// Min-heap event queue with deterministic same-time ordering (by insertion
/// sequence number).
class EventQueue {
 public:
  using Action = InlineAction<40>;

  /// Current simulated time.
  [[nodiscard]] Seconds now() const { return now_; }

  /// Schedule `action` at absolute time `when` (must be >= now()).
  EventHandle schedule_at(Seconds when, Action action);

  /// Schedule `action` `delay` from now (delay must be >= 0).
  EventHandle schedule_in(Seconds delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  /// Fire an action at `when` in place of `schedule_at(when, action)` when
  /// that event would be the next one fired: `when` is strictly earlier
  /// than every heap entry, and not past the horizon of the innermost
  /// run_until() in progress (outside run_until, the heap must also hold
  /// an entry, so a lone periodic action cannot spin forever).  On success
  /// the clock moves to `when`, the sequence number and fired count advance
  /// and a due compaction runs, exactly as the heap round trip would have
  /// done; the caller then runs the action itself.  Returns false and
  /// changes nothing otherwise: the caller schedules the action at `when`.
  /// Bit-exact only for a caller that fires from inside an event action and
  /// returns to the queue right after (nothing else runs between the two
  /// heap operations this replaces).
  [[nodiscard]] bool fire_inline(Seconds when);

  /// Run events with timestamp <= `until`, then advance the clock to `until`.
  void run_until(Seconds until);

  /// Run until the queue is empty (cancelled events do not keep it alive).
  void run_until_empty();

  /// Fire exactly one event if any is pending; returns false if none.
  bool step();

  [[nodiscard]] bool empty() const;
  /// Live (un-cancelled, un-fired) events.  O(1).
  [[nodiscard]] std::size_t pending_count() const {
    return heap_.size() - slab_->cancelled_in_heap;
  }
  /// Heap entries including lazily-deleted cancelled ones (lets tests and
  /// benchmarks observe compaction).
  [[nodiscard]] std::size_t queued_count() const { return heap_.size(); }

  /// Total events fired (for tests and microbenchmarks).
  [[nodiscard]] std::uint64_t fired_count() const { return fired_; }
  /// Times the heap was rebuilt to shed cancelled entries.
  [[nodiscard]] std::uint64_t compaction_count() const { return compactions_; }

  /// Serialize virtual time and counters.  Pending events are NOT captured
  /// (their callbacks are arbitrary closures); checkpoints are taken at
  /// quiescent points where the queue is drained, and load() enforces that.
  void save(common::SnapshotWriter& w) const;
  /// Restore clock/counters into an EMPTY queue (throws std::logic_error
  /// otherwise) so resumed runs schedule against the checkpointed clock.
  void load(common::SnapshotReader& r);

 private:
  struct Entry {
    Seconds when;
    std::uint64_t seq;
    Action action;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Below this size a full rebuild costs more than it saves.
  static constexpr std::size_t kCompactionMinSize = 64;
  /// horizon_ outside any run_until().
  static constexpr Seconds kNoHorizon{std::numeric_limits<double>::infinity()};

  /// Pop cancelled entries off the top so empty()/peek logic sees live
  /// events, and rebuild the heap outright once cancelled entries are the
  /// majority.
  void drop_cancelled() const;
  void compact() const;
  void retire_entry(const Entry& e) const;

  mutable std::vector<Entry> heap_;  // binary heap ordered by Later
  /// The queue is single-owner by contract: each simulation (campaign cell,
  /// test, bench) drives its own queue on one thread.  Armed in debug/TSan
  /// builds; compiles away in release.
  common::ThreadChecker owner_;
  std::shared_ptr<detail::EventSlab> slab_{std::make_shared<detail::EventSlab>()};
  Seconds now_{0.0};
  /// `until` of the innermost run_until() in progress (fire_inline bound).
  Seconds horizon_{kNoHorizon};
  std::uint64_t next_seq_{0};
  std::uint64_t fired_{0};
  mutable std::uint64_t compactions_{0};
};

}  // namespace gg::sim

#include "src/sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/common/annotations.h"
#include "src/common/snapshot.h"

namespace gg::sim {

GG_HOT EventHandle EventQueue::schedule_at(Seconds when, Action action) {
  owner_.assert_owner("sim::EventQueue");
  if (when < now_) throw std::invalid_argument("EventQueue: schedule in the past");
  if (!action) throw std::invalid_argument("EventQueue: empty action");
  const std::uint32_t slot = slab_->acquire();
  // GG_LINT_ALLOW(hot-alloc): heap storage grows amortized to the run's
  // peak pending-event count; steady-state pushes reuse capacity.
  heap_.push_back(Entry{when, next_seq_++, std::move(action), slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return EventHandle{slab_, slot};
}

void EventQueue::retire_entry(const Entry& e) const {
  auto& s = slab_->slots[e.slot];
  s.in_heap = false;
  slab_->release_if_unused(e.slot);
}

void EventQueue::compact() const {
  auto dead = [this](const Entry& e) {
    if (!slab_->slots[e.slot].cancelled) return false;
    retire_entry(e);
    return true;
  };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), dead), heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  slab_->cancelled_in_heap = 0;
  ++compactions_;
}

void EventQueue::drop_cancelled() const {
  if (slab_->cancelled_in_heap * 2 > heap_.size() &&
      heap_.size() >= kCompactionMinSize) {
    compact();
    return;
  }
  while (!heap_.empty() && slab_->slots[heap_.front().slot].cancelled) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    retire_entry(heap_.back());
    heap_.pop_back();
    --slab_->cancelled_in_heap;
  }
}

bool EventQueue::empty() const {
  drop_cancelled();
  return heap_.empty();
}

GG_HOT bool EventQueue::step() {
  owner_.assert_owner("sim::EventQueue");
  drop_cancelled();
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  now_ = e.when;
  auto& s = slab_->slots[e.slot];
  s.fired = true;
  retire_entry(e);
  ++fired_;
  e.action();
  return true;
}

GG_HOT bool EventQueue::fire_inline(Seconds when) {
  owner_.assert_owner("sim::EventQueue");
  if (when < now_) throw std::invalid_argument("EventQueue: schedule in the past");
  if (when > horizon_) return false;
  // A cancelled front entry at or before `when` may hide a later live one;
  // declining is always exact, so do not look behind it.
  if (heap_.empty() ? horizon_ == kNoHorizon : !(when < heap_.front().when)) return false;
  // With the entry (when, next_seq_) pushed, the next drop_cancelled() would
  // find no cancelled entry ahead of it, so only its compaction can happen.
  const std::size_t size = heap_.size() + 1;
  if (slab_->cancelled_in_heap * 2 > size && size >= kCompactionMinSize) compact();
  ++next_seq_;
  now_ = when;
  ++fired_;
  return true;
}

void EventQueue::run_until(Seconds until) {
  if (until < now_) throw std::invalid_argument("EventQueue: run_until in the past");
  // Restores the enclosing horizon on every exit, a throwing action included.
  struct HorizonScope {
    Seconds& horizon;
    Seconds saved;
    ~HorizonScope() { horizon = saved; }
  } scope{horizon_, horizon_};
  horizon_ = until;
  for (;;) {
    drop_cancelled();
    if (heap_.empty() || heap_.front().when > until) break;
    step();
  }
  now_ = until;
}

void EventQueue::run_until_empty() {
  while (step()) {
  }
}

void EventQueue::save(common::SnapshotWriter& w) const {
  w.f64(now_.get());
  w.u64(next_seq_);
  w.u64(fired_);
  w.u64(compactions_);
}

void EventQueue::load(common::SnapshotReader& r) {
  if (!empty()) {
    throw std::logic_error("EventQueue: load() requires an empty queue");
  }
  now_ = Seconds{r.f64()};
  next_seq_ = r.u64();
  fired_ = r.u64();
  compactions_ = r.u64();
}

}  // namespace gg::sim

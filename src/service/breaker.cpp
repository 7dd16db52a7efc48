#include "src/service/breaker.h"

#include <stdexcept>

namespace gg::service {

CircuitBreaker::CircuitBreaker(std::size_t devices, BreakerConfig config)
    : config_(config) {
  if (devices == 0) throw std::invalid_argument("CircuitBreaker: devices must be >= 1");
  config_.validate();
  // GG_BOUNDED(one slot per device, fixed at construction)
  slots_.resize(devices);
}

std::size_t CircuitBreaker::choose() const {
  const std::size_t n = slots_.size();
  // A probe-ready open device takes precedence over healthy rotation: the
  // whole point of the probe schedule is that quarantine is temporary.
  std::size_t probe = n;
  std::size_t oldest_open = n;
  for (std::size_t i = 0; i < n; ++i) {
    const Slot& slot = slots_[i];
    if (slot.state != State::kOpen) continue;
    if (oldest_open == n || slot.opened_at < slots_[oldest_open].opened_at) {
      oldest_open = i;
    }
    const bool due = completions_ >=
                     slot.opened_at + static_cast<std::uint64_t>(config_.probe_after);
    if (due && (probe == n || slot.opened_at < slots_[probe].opened_at)) {
      probe = i;
    }
  }
  if (probe != n) return probe;
  // Closed devices round-robin.  The rotation cursor is the completion
  // count, not claim history, so the journaled outcomes alone fix it.
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t i = (static_cast<std::size_t>(completions_) + step) % n;
    if (slots_[i].state == State::kClosed) return i;
  }
  // Everything is open or half-open.  Force-probe the longest-quarantined
  // open device rather than stalling the queue forever.
  if (oldest_open != n) return oldest_open;
  // All half-open (every device is mid-probe); reuse device 0 — with a
  // single executor this cannot happen, but never deadlock.
  return 0;
}

void CircuitBreaker::claim(std::size_t device) {
  Slot& slot = slots_.at(device);
  if (slot.state == State::kOpen) slot.state = State::kHalfOpen;
}

CircuitBreaker::Event CircuitBreaker::on_result(std::size_t device, bool ok) {
  Slot& slot = slots_.at(device);
  ++completions_;
  if (ok) {
    const bool was_unhealthy = slot.state != State::kClosed;
    slot.state = State::kClosed;
    slot.consecutive_failures = 0;
    return was_unhealthy ? Event::kClosed : Event::kNone;
  }
  ++slot.consecutive_failures;
  if (slot.state == State::kHalfOpen) {
    // Probe failed: back to quarantine, probe clock restarts from now.
    slot.state = State::kOpen;
    slot.opened_at = completions_;
    return Event::kReopened;
  }
  if (slot.state == State::kClosed &&
      slot.consecutive_failures >= config_.failure_threshold) {
    slot.state = State::kOpen;
    slot.opened_at = completions_;
    return Event::kOpened;
  }
  return Event::kNone;
}

CircuitBreaker::State CircuitBreaker::state(std::size_t device) const {
  return slots_.at(device).state;
}

std::string CircuitBreaker::to_string(State state) {
  switch (state) {
    case State::kClosed: return "closed";
    case State::kOpen: return "open";
    case State::kHalfOpen: return "half-open";
  }
  return "?";
}

}  // namespace gg::service

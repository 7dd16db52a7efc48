#include "src/service/telemetry.h"

#include <stdexcept>
#include <utility>

#include "src/common/annotations.h"

namespace gg::service {

TelemetryHub::TelemetryHub(TelemetryConfig config) : config_(config) {
  config_.validate();
}

void TelemetryHub::publish(const std::string& payload) {
  ++published_;
  const std::size_t cap = config_.ring_capacity;
  for (auto& [id, sub] : subs_) {
    (void)id;
    if (sub.ring_size < cap) {
      Entry& slot = sub.ring[(sub.ring_head + sub.ring_size) % cap];
      slot.seq = published_;
      slot.payload = payload;
      ++sub.ring_size;
    } else {
      // Drop the oldest undelivered event: the head slot is overwritten and
      // the loss is surfaced as a DROPPED frame before the next delivery.
      sub.ring[sub.ring_head].seq = published_;
      sub.ring[sub.ring_head].payload = payload;
      sub.ring_head = (sub.ring_head + 1) % cap;
      ++sub.dropped_pending;
      ++dropped_total_;
    }
  }
}

void TelemetryHub::seed(std::uint64_t published) {
  if (!subs_.empty()) {
    throw std::logic_error("TelemetryHub: seed() with live subscribers");
  }
  published_ = published;
}

std::uint64_t TelemetryHub::subscribe(std::uint64_t from_seq,
                                      std::vector<std::string> backlog) {
  if (subs_.size() >= config_.max_subscribers) return 0;
  const std::uint64_t id = next_id_++;
  Subscriber sub;
  sub.backlog = std::move(backlog);
  sub.backlog_seq = from_seq;
  // GG_BOUNDED(fixed ring storage of exactly ring_capacity slots)
  sub.ring.resize(config_.ring_capacity);
  // GG_BOUNDED(table capped by TelemetryConfig::max_subscribers, see above)
  subs_.emplace(id, std::move(sub));
  return id;
}

void TelemetryHub::unsubscribe(std::uint64_t id) { subs_.erase(id); }

std::optional<std::string> TelemetryHub::next_frame(std::uint64_t id) {
  const auto it = subs_.find(id);
  if (it == subs_.end()) return std::nullopt;
  Subscriber& sub = it->second;
  if (sub.backlog_pos < sub.backlog.size()) {
    std::string frame = "EVENT " + std::to_string(sub.backlog_seq) + " " +
                        sub.backlog[sub.backlog_pos];
    ++sub.backlog_pos;
    ++sub.backlog_seq;
    sub.ticks_idle = 0;
    return frame;
  }
  if (sub.dropped_pending > 0) {
    std::string frame = "DROPPED " + std::to_string(sub.dropped_pending);
    sub.dropped_pending = 0;
    sub.ticks_idle = 0;
    return frame;
  }
  if (sub.ring_size > 0) {
    Entry& head = sub.ring[sub.ring_head];
    std::string frame =
        "EVENT " + std::to_string(head.seq) + " " + head.payload;
    head.payload.clear();
    sub.ring_head = (sub.ring_head + 1) % config_.ring_capacity;
    --sub.ring_size;
    sub.ticks_idle = 0;
    return frame;
  }
  if (sub.ticks_idle >= config_.heartbeat_ticks) {
    sub.ticks_idle = 0;
    return "HEARTBEAT last=" + std::to_string(published_);
  }
  return std::nullopt;
}

void TelemetryHub::note_progress(std::uint64_t id, bool progressed) {
  const auto it = subs_.find(id);
  if (it == subs_.end()) return;
  if (progressed) {
    it->second.ticks_stalled = 0;
    it->second.stalled_this_tick = false;
  } else {
    it->second.stalled_this_tick = true;
  }
}

std::vector<std::uint64_t> TelemetryHub::tick() {
  std::vector<std::uint64_t> evicted;
  for (auto& [id, sub] : subs_) {
    ++sub.ticks_idle;
    if (sub.stalled_this_tick) {
      sub.stalled_this_tick = false;
      if (++sub.ticks_stalled >= config_.stall_budget_ticks) {
        // GG_BOUNDED(one eviction per subscriber; table capped by max-subs)
        evicted.push_back(id);
      }
    }
  }
  for (const std::uint64_t id : evicted) {
    subs_.erase(id);
    ++evicted_total_;
  }
  return evicted;
}

}  // namespace gg::service

// Per-device circuit breaker: quarantine a flaky simulated device, probe it
// back to health.
//
// The executor asks the breaker which device should run the next request.
// A device that fails `failure_threshold` requests in a row is opened
// (quarantined) and stops receiving work; after `probe_after` completions
// on other devices it becomes probe-ready and the next claim sends it a
// single half-open probe — success closes it, failure re-opens it and the
// probe clock starts over.  When every device is open the breaker force-
// probes the one quarantined longest instead of deadlocking the queue: an
// always-on service must keep trying *something*.
//
// Determinism: the breaker reads no clock — its probe schedule counts
// completed requests.  Its state is a function of the sequence of claims
// and outcomes: on_result() feeds an outcome, and claim() is the one other
// change (an open device turning half-open for its probe).  Both are
// journaled (start and outcome records), so a resumed daemon rebuilds the
// breaker exactly by replaying every claim and outcome in journal order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/service/types.h"

namespace gg::service {

class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  /// What on_result() did to the device's state (for logs and HEALTH).
  enum class Event : std::uint8_t { kNone, kOpened, kClosed, kReopened };

  CircuitBreaker(std::size_t devices, BreakerConfig config);

  /// The device the next request should run on: a probe-ready open device
  /// when one is due; otherwise closed devices round-robin; the longest-
  /// quarantined device when everything is open.  Always a valid device.
  [[nodiscard]] std::size_t choose() const;

  /// Dispatch a request to `device` (the one choose() named): an open device
  /// turns half-open and gets exactly one request, its probe.
  void claim(std::size_t device);

  /// Feed the outcome of a request executed on `device`.
  Event on_result(std::size_t device, bool ok);

  [[nodiscard]] State state(std::size_t device) const;
  [[nodiscard]] std::size_t device_count() const { return slots_.size(); }
  /// Completions observed so far (the probe clock).
  [[nodiscard]] std::uint64_t completions() const { return completions_; }

  [[nodiscard]] static std::string to_string(State state);

 private:
  struct Slot {
    State state{State::kClosed};
    int consecutive_failures{0};
    /// Value of completions_ when the device was (last) opened.
    std::uint64_t opened_at{0};
  };

  BreakerConfig config_;
  std::vector<Slot> slots_;
  std::uint64_t completions_{0};
};

}  // namespace gg::service

// Shared vocabulary of the greengpud service layer.
//
// greengpud promotes the one-shot experiment runner into an always-on
// daemon: clients submit (workload, policy) requests over a local socket,
// an executor runs them through the greengpu:: controllers on a pool of
// simulated devices, and every admission decision and outcome is journaled
// so the daemon's report is byte-reproducible across kills, restarts and
// offline replay.  This header holds the request/config/status types every
// service component shares; the state machines live in admission.h,
// breaker.h, journal.h and core.h.
//
// Time: the service never reads a wall clock.  Ordering and deadlines are
// accounted in *virtual service time* — the running sum of simulated
// exec_time over completed requests — which is a pure function of the
// journal and therefore identical in live, resumed and replayed runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/sim/fault.h"

namespace gg::service {

/// Numeric reply statuses of the line protocol, HTTP-flavored so operators
/// and scripts can pattern-match the first token of every reply.
enum class StatusCode : int {
  kOk = 200,        ///< query answered
  kAccepted = 202,  ///< request admitted and queued
  kBadRequest = 400,
  kNotFound = 404,
  kInternalError = 500,
  kShed = 503,  ///< overload / draining / deadline-unmeetable rejection
};

/// One submitted unit of work.  `seq` is assigned at submission and is the
/// request's identity everywhere (journal, STATUS, report lines).
struct Request {
  std::uint64_t seq{0};
  std::string workload;
  std::string policy;
  /// Higher runs first; ties execute in submission order.
  std::uint64_t priority{0};
  /// Virtual-time budget from admission to completion; 0 = no deadline.
  Seconds deadline{0.0};
  /// Per-request iteration override (0 = the service default).
  std::uint64_t iterations{0};
  /// Fault-RNG seed forked from the service seed by `seq` at admission, so
  /// a re-executed request (resume, replay) reproduces its run bit-for-bit.
  std::uint64_t seed{0};
  /// Virtual service time when the request was admitted.
  Seconds vtime_admit{0.0};
};

/// Streaming-telemetry (WATCH) knobs.  All host-side: none of these affect
/// admission decisions or results, so they are excluded from the journal
/// fingerprint — a daemon may resume a journal under a different streaming
/// configuration.  Ticks are socket-server poll ticks (~50 ms wall each in
/// the daemon, manual in tests), not simulated time: the stream paces
/// against real subscribers, but nothing it carries depends on the pacing.
struct TelemetryConfig {
  /// Per-subscriber pending-frame ring capacity.  Overflow drops the oldest
  /// undelivered event and accounts it in the next DROPPED frame.
  std::size_t ring_capacity{256};
  /// Subscriber-table bound; WATCH beyond it is refused with 503.
  std::size_t max_subscribers{16};
  /// Ticks with nothing delivered before a HEARTBEAT frame is emitted.
  std::uint64_t heartbeat_ticks{40};
  /// Consecutive ticks a subscriber may sit with pending frames and an
  /// unwritable socket before it is evicted.
  std::uint64_t stall_budget_ticks{400};

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// Per-device circuit-breaker thresholds.
struct BreakerConfig {
  /// Consecutive failed requests on one device before it is quarantined.
  int failure_threshold{3};
  /// Completions elsewhere before a quarantined device gets a probe.
  int probe_after{4};

  void validate() const;
};

/// Everything that configures a greengpud instance.  The journal header
/// fingerprints the result-affecting subset, so a journal can only be
/// resumed or replayed under the configuration that wrote it.
struct ServiceConfig {
  /// Simulated device lanes requests are assigned to.
  std::size_t devices{2};
  /// Admission queue capacity; submissions beyond it shed lowest-priority
  /// first.
  std::size_t queue_capacity{8};
  /// Root seed; each request's fault stream is forked from it by seq.
  std::uint64_t seed{0x5EEDDAE0ULL};
  /// Run requests with the hardened controllers (retry/reroute/watchdog).
  bool hardened{false};
  /// Default per-request iteration cap (0 = workload default).
  std::uint64_t max_iterations{0};
  /// Admission-time cost estimate (simulated seconds) for a
  /// (workload, policy) pair with no observed completions yet.
  double default_cost_estimate{60.0};
  /// Faults injected on the faulty devices (clean devices run fault-free).
  sim::FaultConfig faults{};
  /// Devices the fault config applies to (the breaker's prey).
  std::vector<std::size_t> faulty_devices;
  BreakerConfig breaker{};
  /// WATCH streaming knobs (host-side; not fingerprinted).
  TelemetryConfig telemetry{};

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;

  /// Journal-header fingerprint over every field that affects admission
  /// decisions or results.  Host-side knobs (telemetry) are excluded so a
  /// resumed daemon may stream differently.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Journal-derived counters reported by STATS (and asserted by tests).
struct ServiceStats {
  std::uint64_t submitted{0};
  std::uint64_t admitted{0};
  std::uint64_t shed{0};     ///< rejected at submission (full / deadline / drain)
  std::uint64_t evicted{0};  ///< admitted, then displaced by higher priority
  std::uint64_t completed{0};
  std::uint64_t failed{0};
};

}  // namespace gg::service

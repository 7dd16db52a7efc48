#include "src/service/types.h"

#include <stdexcept>

#include "src/common/snapshot.h"

namespace gg::service {

void TelemetryConfig::validate() const {
  if (ring_capacity == 0) {
    throw std::invalid_argument("TelemetryConfig: ring_capacity must be >= 1");
  }
  if (max_subscribers == 0) {
    throw std::invalid_argument("TelemetryConfig: max_subscribers must be >= 1");
  }
  if (heartbeat_ticks == 0) {
    throw std::invalid_argument("TelemetryConfig: heartbeat_ticks must be >= 1");
  }
  if (stall_budget_ticks == 0) {
    throw std::invalid_argument(
        "TelemetryConfig: stall_budget_ticks must be >= 1");
  }
}

void BreakerConfig::validate() const {
  if (failure_threshold < 1) {
    throw std::invalid_argument(
        "BreakerConfig: failure_threshold must be >= 1, got " +
        std::to_string(failure_threshold));
  }
  if (probe_after < 1) {
    throw std::invalid_argument("BreakerConfig: probe_after must be >= 1, got " +
                                std::to_string(probe_after));
  }
}

void ServiceConfig::validate() const {
  if (devices == 0) {
    throw std::invalid_argument("ServiceConfig: devices must be >= 1");
  }
  if (queue_capacity == 0) {
    throw std::invalid_argument("ServiceConfig: queue_capacity must be >= 1");
  }
  if (default_cost_estimate <= 0.0) {
    throw std::invalid_argument(
        "ServiceConfig: default_cost_estimate must be > 0, got " +
        std::to_string(default_cost_estimate));
  }
  for (std::size_t d : faulty_devices) {
    if (d >= devices) {
      throw std::invalid_argument("ServiceConfig: faulty device " +
                                  std::to_string(d) + " out of range (devices=" +
                                  std::to_string(devices) + ")");
    }
  }
  breaker.validate();
  faults.validate();
  telemetry.validate();
}

std::uint64_t ServiceConfig::fingerprint() const {
  common::SnapshotWriter w;
  w.u64(devices);
  w.u64(queue_capacity);
  w.u64(seed);
  w.b(hardened);
  w.u64(max_iterations);
  w.f64(default_cost_estimate);
  w.u64(faults.seed);
  w.f64(faults.util_drop_rate);
  w.f64(faults.util_stale_rate);
  w.f64(faults.util_corrupt_rate);
  w.f64(faults.clock_reject_rate);
  w.f64(faults.clock_delay_rate);
  w.f64(faults.clock_delay.get());
  w.f64(faults.clock_clamp_rate);
  w.f64(faults.launch_fail_rate);
  w.f64(faults.host_fail_rate);
  w.f64(faults.throttle_mtbf.get());
  w.f64(faults.throttle_duration.get());
  w.u64(faulty_devices.size());
  for (std::size_t d : faulty_devices) w.u64(d);
  w.u64(static_cast<std::uint64_t>(breaker.failure_threshold));
  w.u64(static_cast<std::uint64_t>(breaker.probe_after));
  const auto& payload = w.payload();
  return static_cast<std::uint64_t>(payload.size()) << 32 |
         common::crc32(payload.data(), payload.size());
}

}  // namespace gg::service

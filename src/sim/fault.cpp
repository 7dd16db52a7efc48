#include "src/sim/fault.h"

#include <cmath>
#include <stdexcept>

#include "src/sim/gpu_device.h"

namespace gg::sim {

namespace {

void check_rate_in(const char* type, double rate, const char* field) {
  if (!(rate >= 0.0 && rate <= 1.0)) {
    throw std::invalid_argument(std::string(type) + ": " + field +
                                " must be in [0, 1], got " + std::to_string(rate));
  }
}

void check_rate(double rate, const char* field) {
  check_rate_in("FaultConfig", rate, field);
}

void check_sock_rate(double rate, const char* field) {
  check_rate_in("SocketFaultConfig", rate, field);
}

}  // namespace

bool FaultConfig::any_faults() const {
  return util_drop_rate > 0.0 || util_stale_rate > 0.0 || util_corrupt_rate > 0.0 ||
         clock_reject_rate > 0.0 || clock_delay_rate > 0.0 || clock_clamp_rate > 0.0 ||
         launch_fail_rate > 0.0 || host_fail_rate > 0.0 || throttle_mtbf > Seconds{0.0};
}

void FaultConfig::validate() const {
  check_rate(util_drop_rate, "util_drop_rate");
  check_rate(util_stale_rate, "util_stale_rate");
  check_rate(util_corrupt_rate, "util_corrupt_rate");
  check_rate(clock_reject_rate, "clock_reject_rate");
  check_rate(clock_delay_rate, "clock_delay_rate");
  check_rate(clock_clamp_rate, "clock_clamp_rate");
  check_rate(launch_fail_rate, "launch_fail_rate");
  check_rate(host_fail_rate, "host_fail_rate");
  if (util_drop_rate + util_stale_rate + util_corrupt_rate > 1.0) {
    throw std::invalid_argument(
        "FaultConfig: util drop+stale+corrupt rates must sum to at most 1");
  }
  if (clock_reject_rate + clock_delay_rate + clock_clamp_rate > 1.0) {
    throw std::invalid_argument(
        "FaultConfig: clock reject+delay+clamp rates must sum to at most 1");
  }
  if (clock_delay_rate > 0.0 && clock_delay <= Seconds{0.0}) {
    throw std::invalid_argument(
        "FaultConfig: clock_delay must be > 0 when clock_delay_rate > 0");
  }
  if (throttle_mtbf < Seconds{0.0}) {
    throw std::invalid_argument("FaultConfig: throttle_mtbf must be >= 0");
  }
  if (throttle_mtbf > Seconds{0.0} && throttle_duration <= Seconds{0.0}) {
    throw std::invalid_argument(
        "FaultConfig: throttle_duration must be > 0 when throttling is enabled");
  }
}

FaultConfig FaultConfig::uniform(double rate, std::uint64_t seed) {
  check_rate(rate, "uniform rate");
  FaultConfig c;
  c.seed = seed;
  // Partitioned channels share one draw, so give each an equal slice.
  c.util_drop_rate = rate / 3.0;
  c.util_stale_rate = rate / 3.0;
  c.util_corrupt_rate = rate / 3.0;
  c.clock_reject_rate = rate / 3.0;
  c.clock_delay_rate = rate / 3.0;
  c.clock_clamp_rate = rate / 3.0;
  c.launch_fail_rate = rate;
  c.host_fail_rate = rate;
  return c;
}

FaultConfig FaultConfig::from_flags(const Flags& flags) {
  // Range errors name the flag, not the field it sets.
  const auto read = [&](const char* name, double fallback, bool rate) {
    const double v = flags.get_double(name, fallback);
    if (v >= 0.0 && (!rate || v <= 1.0)) return v;
    throw std::invalid_argument(std::string("--") + name +
                                (rate ? " must be in [0, 1]" : " must be >= 0"));
  };
  FaultConfig c;
  const auto seed = static_cast<std::uint64_t>(
      flags.get_int("fault-seed", static_cast<long long>(c.seed)));
  if (flags.has("fault-rate")) c = uniform(read("fault-rate", 0.0, true), seed);
  c.seed = seed;
  c.util_drop_rate = read("fault-util-drop", c.util_drop_rate, true);
  c.util_stale_rate = read("fault-util-stale", c.util_stale_rate, true);
  c.util_corrupt_rate = read("fault-util-corrupt", c.util_corrupt_rate, true);
  c.clock_reject_rate = read("fault-clock-reject", c.clock_reject_rate, true);
  c.clock_delay_rate = read("fault-clock-delay", c.clock_delay_rate, true);
  c.clock_delay = Seconds{read("fault-clock-delay-s", c.clock_delay.get(), false)};
  c.clock_clamp_rate = read("fault-clock-clamp", c.clock_clamp_rate, true);
  c.launch_fail_rate = read("fault-launch", c.launch_fail_rate, true);
  c.host_fail_rate = read("fault-host", c.host_fail_rate, true);
  c.throttle_mtbf = Seconds{read("fault-throttle-mtbf", c.throttle_mtbf.get(), false)};
  c.throttle_duration =
      Seconds{read("fault-throttle-duration", c.throttle_duration.get(), false)};
  c.validate();
  return c;
}

std::string to_string(FaultChannel channel) {
  switch (channel) {
    case FaultChannel::kUtilRead: return "util-read";
    case FaultChannel::kClockWrite: return "clock-write";
    case FaultChannel::kLaunch: return "launch";
    case FaultChannel::kHostTask: return "host-task";
    case FaultChannel::kThermal: return "thermal";
    case FaultChannel::kHarness: return "harness";
    case FaultChannel::kSocket: return "socket";
  }
  return "unknown";
}

std::string to_string(FaultOutcome outcome) {
  switch (outcome) {
    case FaultOutcome::kUtilDropped: return "util-dropped";
    case FaultOutcome::kUtilStale: return "util-stale";
    case FaultOutcome::kUtilCorrupted: return "util-corrupted";
    case FaultOutcome::kClockRejected: return "clock-rejected";
    case FaultOutcome::kClockDelayed: return "clock-delayed";
    case FaultOutcome::kClockClamped: return "clock-clamped";
    case FaultOutcome::kClockThrottled: return "clock-throttled";
    case FaultOutcome::kLaunchFailed: return "launch-failed";
    case FaultOutcome::kHostTaskFailed: return "host-task-failed";
    case FaultOutcome::kThrottleStart: return "throttle-start";
    case FaultOutcome::kThrottleEnd: return "throttle-end";
    case FaultOutcome::kRetrySucceeded: return "retry-succeeded";
    case FaultOutcome::kRetriesExhausted: return "retries-exhausted";
    case FaultOutcome::kRerouted: return "rerouted";
    case FaultOutcome::kForcedCompletion: return "forced-completion";
    case FaultOutcome::kWatchdogTrip: return "watchdog-trip";
    case FaultOutcome::kActuationFallback: return "actuation-fallback";
    case FaultOutcome::kSockShortWrite: return "sock-short-write";
    case FaultOutcome::kSockEintr: return "sock-eintr";
    case FaultOutcome::kSockEpipe: return "sock-epipe";
    case FaultOutcome::kSockShortRead: return "sock-short-read";
    case FaultOutcome::kSockDisconnect: return "sock-disconnect";
    case FaultOutcome::kSockStall: return "sock-stall";
  }
  return "unknown";
}

bool SocketFaultConfig::any_faults() const {
  return short_write_rate > 0.0 || eintr_rate > 0.0 || epipe_rate > 0.0 ||
         short_read_rate > 0.0 || disconnect_rate > 0.0 || stall_rate > 0.0;
}

void SocketFaultConfig::validate() const {
  check_sock_rate(short_write_rate, "short_write_rate");
  check_sock_rate(eintr_rate, "eintr_rate");
  check_sock_rate(epipe_rate, "epipe_rate");
  check_sock_rate(short_read_rate, "short_read_rate");
  check_sock_rate(disconnect_rate, "disconnect_rate");
  check_sock_rate(stall_rate, "stall_rate");
  if (short_write_rate + eintr_rate + epipe_rate + stall_rate > 1.0) {
    throw std::invalid_argument(
        "SocketFaultConfig: write-side rates (short_write+eintr+epipe+stall) "
        "must sum to at most 1");
  }
  if (short_read_rate + eintr_rate + disconnect_rate > 1.0) {
    throw std::invalid_argument(
        "SocketFaultConfig: read-side rates (short_read+eintr+disconnect) "
        "must sum to at most 1");
  }
}

SocketFaultConfig SocketFaultConfig::uniform(double rate, std::uint64_t seed) {
  check_sock_rate(rate, "uniform rate");
  SocketFaultConfig c;
  c.seed = seed;
  // The write draw partitions across four channels, the read draw across
  // three (sharing eintr_rate), so rate/4 keeps both direction sums <= rate.
  c.short_write_rate = rate / 4.0;
  c.eintr_rate = rate / 4.0;
  c.epipe_rate = rate / 4.0;
  c.stall_rate = rate / 4.0;
  c.short_read_rate = rate / 4.0;
  c.disconnect_rate = rate / 4.0;
  return c;
}

SocketFaultConfig SocketFaultConfig::from_flags(const Flags& flags) {
  SocketFaultConfig cfg;
  const auto seed = static_cast<std::uint64_t>(
      flags.get_int("socket-fault-seed", static_cast<long long>(cfg.seed)));
  if (flags.has("socket-fault-rate")) {
    cfg = uniform(flags.get_double("socket-fault-rate", 0.0), seed);
  }
  cfg.seed = seed;
  cfg.short_write_rate =
      flags.get_double("socket-fault-short-write", cfg.short_write_rate);
  cfg.eintr_rate = flags.get_double("socket-fault-eintr", cfg.eintr_rate);
  cfg.epipe_rate = flags.get_double("socket-fault-epipe", cfg.epipe_rate);
  cfg.short_read_rate =
      flags.get_double("socket-fault-short-read", cfg.short_read_rate);
  cfg.disconnect_rate =
      flags.get_double("socket-fault-disconnect", cfg.disconnect_rate);
  cfg.stall_rate = flags.get_double("socket-fault-stall", cfg.stall_rate);
  cfg.validate();
  return cfg;
}

std::string to_string(SocketFault fault) {
  switch (fault) {
    case SocketFault::kNone: return "none";
    case SocketFault::kShortWrite: return "short-write";
    case SocketFault::kEintr: return "eintr";
    case SocketFault::kEpipe: return "epipe";
    case SocketFault::kShortRead: return "short-read";
    case SocketFault::kDisconnect: return "disconnect";
    case SocketFault::kStall: return "stall";
  }
  return "unknown";
}

SocketFaultInjector::SocketFaultInjector(SocketFaultConfig config)
    : config_(config) {
  config_.validate();
  Rng master(config_.seed);
  write_rng_ = master.fork();
  read_rng_ = master.fork();
}

void SocketFaultInjector::bump(SocketFault fault) {
  ++counts_[static_cast<std::size_t>(fault)];
}

SocketFault SocketFaultInjector::draw_write(std::size_t size,
                                            std::size_t& allowed) {
  allowed = size;
  if (!config_.any_faults()) return SocketFault::kNone;
  const double r = write_rng_.uniform();
  double band = config_.short_write_rate;
  if (r < band && size > 1) {
    // At least one byte goes through: a short write is progress, not a stall.
    allowed = 1 + static_cast<std::size_t>(
                      write_rng_.uniform_int(static_cast<std::uint64_t>(size - 1)));
    bump(SocketFault::kShortWrite);
    return SocketFault::kShortWrite;
  }
  band = config_.short_write_rate + config_.eintr_rate;
  if (r < band) {
    bump(SocketFault::kEintr);
    return SocketFault::kEintr;
  }
  band += config_.epipe_rate;
  if (r < band) {
    bump(SocketFault::kEpipe);
    return SocketFault::kEpipe;
  }
  band += config_.stall_rate;
  if (r < band) {
    bump(SocketFault::kStall);
    return SocketFault::kStall;
  }
  bump(SocketFault::kNone);
  return SocketFault::kNone;
}

SocketFault SocketFaultInjector::draw_read(std::size_t size,
                                           std::size_t& allowed) {
  allowed = size;
  if (!config_.any_faults()) return SocketFault::kNone;
  const double r = read_rng_.uniform();
  double band = config_.short_read_rate;
  if (r < band && size > 1) {
    allowed = 1 + static_cast<std::size_t>(
                      read_rng_.uniform_int(static_cast<std::uint64_t>(size - 1)));
    bump(SocketFault::kShortRead);
    return SocketFault::kShortRead;
  }
  band = config_.short_read_rate + config_.eintr_rate;
  if (r < band) {
    bump(SocketFault::kEintr);
    return SocketFault::kEintr;
  }
  band += config_.disconnect_rate;
  if (r < band) {
    bump(SocketFault::kDisconnect);
    return SocketFault::kDisconnect;
  }
  bump(SocketFault::kNone);
  return SocketFault::kNone;
}

std::uint64_t SocketFaultInjector::count(SocketFault fault) const {
  return counts_[static_cast<std::size_t>(fault)];
}

std::uint64_t SocketFaultInjector::injected() const {
  std::uint64_t total = 0;
  for (std::size_t i = 1; i < counts_.size(); ++i) total += counts_[i];
  return total;
}

FaultInjector::FaultInjector(EventQueue& queue, FaultConfig config)
    : queue_(&queue), config_(config), master_(config.seed), host_rng_(master_.fork()) {
  config_.validate();
}

FaultInjector::~FaultInjector() { stop(); }

void FaultInjector::add_gpu(GpuDevice& gpu, std::size_t index) {
  if (started_) throw std::logic_error("FaultInjector: add_gpu after start");
  if (index != gpus_.size()) {
    throw std::invalid_argument("FaultInjector: GPUs must be added in index order");
  }
  GpuSlot slot;
  slot.gpu = &gpu;
  slot.util_rng = master_.fork();
  slot.clock_rng = master_.fork();
  slot.launch_rng = master_.fork();
  slot.throttle_rng = master_.fork();
  slot.requested_core = gpu.core_level();
  slot.requested_mem = gpu.mem_level();
  gpus_.push_back(std::move(slot));
}

void FaultInjector::start() {
  if (started_) return;
  started_ = true;
  if (config_.throttle_mtbf <= Seconds{0.0}) return;
  for (std::size_t d = 0; d < gpus_.size(); ++d) schedule_next_episode(d);
}

void FaultInjector::stop() {
  for (std::size_t d = 0; d < gpus_.size(); ++d) {
    gpus_[d].episode.cancel();
    if (gpus_[d].throttled) end_episode(d);
  }
  started_ = false;
}

void FaultInjector::schedule_next_episode(std::size_t device) {
  GpuSlot& slot = gpus_[device];
  // Exponentially distributed gap with mean mtbf (memoryless arrivals, the
  // standard thermal-event model); u < 1 so the log is finite.
  const double u = slot.throttle_rng.uniform();
  const Seconds gap{-config_.throttle_mtbf.get() * std::log1p(-u)};
  slot.episode = queue_->schedule_in(gap, [this, device] { begin_episode(device); });
}

void FaultInjector::begin_episode(std::size_t device) {
  GpuSlot& slot = gpus_[device];
  slot.throttled = true;
  note(FaultChannel::kThermal, FaultOutcome::kThrottleStart, device);
  slot.gpu->set_core_level(slot.gpu->core_table().lowest_level());
  slot.gpu->set_mem_level(slot.gpu->mem_table().lowest_level());
  slot.episode = queue_->schedule_in(config_.throttle_duration, [this, device] {
    end_episode(device);
    schedule_next_episode(device);
  });
}

void FaultInjector::end_episode(std::size_t device) {
  GpuSlot& slot = gpus_[device];
  slot.throttled = false;
  // The driver restores the most recently requested clocks, not the
  // pre-episode ones: a write that arrived mid-episode wins.
  slot.gpu->set_core_level(slot.requested_core);
  slot.gpu->set_mem_level(slot.requested_mem);
  note(FaultChannel::kThermal, FaultOutcome::kThrottleEnd, device);
}

UtilFault FaultInjector::draw_util_fault(std::size_t device) {
  GpuSlot& slot = gpus_.at(device);
  const double r = slot.util_rng.uniform();
  if (r < config_.util_drop_rate) return UtilFault::kDrop;
  if (r < config_.util_drop_rate + config_.util_stale_rate) return UtilFault::kStale;
  if (r < config_.util_drop_rate + config_.util_stale_rate + config_.util_corrupt_rate) {
    return UtilFault::kCorrupt;
  }
  return UtilFault::kNone;
}

std::pair<unsigned, unsigned> FaultInjector::corrupt_utilization(std::size_t device) {
  GpuSlot& slot = gpus_.at(device);
  return {static_cast<unsigned>(slot.util_rng.uniform_int(101)),
          static_cast<unsigned>(slot.util_rng.uniform_int(101))};
}

ClockFault FaultInjector::draw_clock_fault(std::size_t device) {
  GpuSlot& slot = gpus_.at(device);
  const double r = slot.clock_rng.uniform();
  if (r < config_.clock_reject_rate) return ClockFault::kReject;
  if (r < config_.clock_reject_rate + config_.clock_delay_rate) return ClockFault::kDelay;
  if (r < config_.clock_reject_rate + config_.clock_delay_rate + config_.clock_clamp_rate) {
    return ClockFault::kClamp;
  }
  return ClockFault::kNone;
}

bool FaultInjector::draw_launch_fail(std::size_t device) {
  if (config_.launch_fail_rate <= 0.0) return false;
  return gpus_.at(device).launch_rng.uniform() < config_.launch_fail_rate;
}

bool FaultInjector::draw_host_fail() {
  if (config_.host_fail_rate <= 0.0) return false;
  return host_rng_.uniform() < config_.host_fail_rate;
}

bool FaultInjector::throttled(std::size_t device) const {
  return device < gpus_.size() && gpus_[device].throttled;
}

void FaultInjector::note_requested_levels(std::size_t device, std::size_t core,
                                          std::size_t mem) {
  GpuSlot& slot = gpus_.at(device);
  slot.requested_core = core;
  slot.requested_mem = mem;
}

void FaultInjector::note(FaultChannel channel, FaultOutcome outcome, std::size_t device) {
  // GG_LINT_ALLOW(hot-alloc-transitive): the fault-event log grows only when
  // an injected fault, throttle or watchdog trip actually fires; the
  // no-fault fast path through the observation helpers never reaches this
  // push_back, so hot callers (step_fast, actuate) stay allocation-free.
  events_.push_back(FaultEvent{queue_->now(), channel, outcome, device});
}

}  // namespace gg::sim

// greengpud — the always-on GreenGPU service.
//
// Three modes, one binary:
//
//   server (default)
//     greengpud --socket /tmp/gg.sock --journal /tmp/gg.journal [--resume]
//     Listens on a Unix socket for the line protocol (see docs/SERVICE.md),
//     runs admitted requests through the greengpu:: controllers on one
//     executor thread, journals every decision, and on SIGTERM/SIGINT stops
//     admitting, finishes in-flight work, writes the report and exits 0.
//     --crash-at POINT[:N] kills the process (exit 70) at the Nth hit of a
//     service kill-point; recovery is a new process with --resume, which
//     rebuilds the state from the journal and re-runs the journaled claim.
//
//   client
//     greengpud --client --socket /tmp/gg.sock   (request lines on stdin)
//     greengpud --client --socket /tmp/gg.sock --watch [--from N]
//       [--idle-timeout-ms T]   (stream telemetry frames to stdout)
//
//   replay
//     greengpud --replay /tmp/gg.journal --window 3:7 [service flags]
//     Re-executes the journaled outcomes of records [3,7] from their
//     recorded (seed, device) and verifies them against the journal; prints
//     the window's report lines (byte-identical to the live report's) on
//     success, a divergence diagnosis on failure.
//
//   events
//     greengpud --events /tmp/gg.journal [--from N] [service flags]
//     Regenerates the telemetry stream from the journal — the offline twin
//     of `--watch`: the EVENT lines are byte-identical to what a live
//     subscriber (or a WATCH FROM resume) received for the same records.
//
// Each mode refuses (exit 2) a flag that only another mode reads: the
// service configuration flags are read by the server, --replay and
// --events; --socket-fault-* and --crash-at by the server alone.
//
// Chaos: --socket-fault-rate R (and the --socket-fault-* per-channel
// family) arms a deterministic sim::SocketFaultInjector on the server's
// transport — short reads/writes, EINTR, EPIPE, mid-frame disconnects and
// stalled peers are then drawn from a seeded stream, never from luck.
// SIGPIPE is ignored daemon-wide: a vanished peer surfaces as EPIPE on its
// own connection (slow-consumer eviction), never as process death.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/common/parse.h"
#include "src/service/core.h"
#include "src/service/socket_server.h"
#include "src/service/types.h"
#include "src/sim/crash.h"

namespace {

std::atomic<bool> g_shutdown{false};

void on_signal(int) { g_shutdown.store(true, std::memory_order_release); }

/// An unsigned flag: digits alone (common::parse_u64), `fallback` when
/// absent; a sign, a blank or a trailing byte is refused naming the flag.
std::uint64_t get_u64(const gg::Flags& flags, const std::string& name,
                      std::uint64_t fallback) {
  if (!flags.has(name)) return fallback;
  const std::string value = flags.get_string(name);
  const std::optional<std::uint64_t> parsed = gg::common::parse_u64(value);
  if (!parsed) {
    throw std::invalid_argument("--" + name + ": '" + value +
                                "' is not an unsigned integer");
  }
  return *parsed;
}

/// Reads the service configuration flags; the caller validates.
gg::service::ServiceConfig config_from_flags(const gg::Flags& flags) {
  gg::service::ServiceConfig config;
  config.devices = get_u64(flags, "devices", 2);
  config.queue_capacity = get_u64(flags, "queue-cap", 8);
  config.seed = get_u64(flags, "seed", config.seed);
  config.hardened = flags.get_bool("hardened", false);
  config.max_iterations = get_u64(flags, "max-iterations", 0);
  config.default_cost_estimate = flags.get_double("default-cost", 60.0);
  config.faults = gg::sim::FaultConfig::from_flags(flags);
  // --faulty-device accepts one index or a comma list ("1" or "0,2").
  const std::string faulty = flags.get_string("faulty-device", "");
  for (std::size_t begin = 0; begin < faulty.size();) {
    std::size_t end = faulty.find(',', begin);
    if (end == std::string::npos) end = faulty.size();
    const std::string index = faulty.substr(begin, end - begin);
    const std::optional<std::uint64_t> device = gg::common::parse_u64(index);
    if (!device) {
      throw std::invalid_argument("--faulty-device: '" + index + "' is not a device index");
    }
    // GG_BOUNDED(one entry per comma-separated token of one flag value)
    config.faulty_devices.push_back(static_cast<std::size_t>(*device));
    begin = end + 1;
  }
  config.breaker.failure_threshold =
      static_cast<int>(flags.get_int("breaker-threshold", 3));
  config.breaker.probe_after =
      static_cast<int>(flags.get_int("breaker-probe-after", 4));
  config.telemetry.ring_capacity = get_u64(flags, "telemetry-ring", 256);
  config.telemetry.max_subscribers = get_u64(flags, "telemetry-max-subs", 16);
  config.telemetry.heartbeat_ticks = get_u64(flags, "heartbeat-ticks", 40);
  config.telemetry.stall_budget_ticks = get_u64(flags, "stall-ticks", 400);
  return config;
}

/// What one invocation runs, chosen by --client, --replay or --events; the
/// server otherwise.
enum class Mode { kServer, kClient, kReplay, kEvents };

Mode mode_of(gg::Flags flags) {  // a copy: choosing the mode reads no flag
  if (flags.get_bool("client", false)) return Mode::kClient;
  if (!flags.get_string("replay").empty()) return Mode::kReplay;
  if (!flags.get_string("events").empty()) return Mode::kEvents;
  return Mode::kServer;
}

/// Marks read every flag that some mode reads.
void read_every_flag(const gg::Flags& flags) {
  for (const char* name : {"client", "watch", "from", "idle-timeout-ms", "replay",
                           "window", "events", "socket", "journal", "report", "resume",
                           "crash-at"}) {
    (void)flags.has(name);
  }
  (void)config_from_flags(flags);
  (void)gg::sim::SocketFaultConfig::from_flags(flags);
}

/// Call after `flags` read what `mode` reads: refuses the first flag left
/// that another mode reads, then any unknown flag.
void reject_unread(const gg::Flags& flags, const char* mode) {
  const gg::Flags every = flags;
  read_every_flag(every);
  const std::vector<std::string> unknown = every.unconsumed();
  for (const std::string& name : flags.unconsumed()) {
    if (std::find(unknown.begin(), unknown.end(), name) == unknown.end()) {
      throw std::invalid_argument("--" + name + " is not read by " + mode);
    }
  }
  flags.reject_unknown();
}

int run_client(const std::string& socket_path) {
  std::string lines;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, stdin) != nullptr) lines += buf;
  if (lines.empty()) return 0;
  std::fputs(gg::service::socket_request(socket_path, lines).c_str(), stdout);
  return 0;
}

int run_watch(const std::string& socket_path, std::uint64_t from,
              int idle_timeout_ms) {
  const std::string request =
      from == 0 ? "WATCH" : "WATCH FROM " + std::to_string(from);
  bool first = true;
  bool refused = false;
  const std::size_t frames = gg::service::socket_watch(
      socket_path, request, idle_timeout_ms,
      [&](const std::string& frame) {
        std::fputs(frame.c_str(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
        // The first frame is the handshake reply; a non-2xx means refused.
        if (first) {
          first = false;
          refused = frame.empty() || frame[0] != '2';
        }
        return !refused;
      });
  return refused || frames == 0 ? 1 : 0;
}

int run_events(const gg::service::ServiceConfig& config,
               const std::string& journal_path, std::uint64_t from) {
  std::string out;
  std::string error;
  if (!gg::service::ServiceCore::events_window(config, journal_path, from, out,
                                               error)) {
    std::fprintf(stderr, "events failed: %s\n", error.c_str());
    return 1;
  }
  std::fputs(out.c_str(), stdout);
  return 0;
}

int run_replay(const gg::service::ServiceConfig& config,
               const std::string& journal_path, const std::string& window) {
  const std::size_t colon = window.find(':');
  const std::optional<std::uint64_t> lo =
      gg::common::parse_u64(std::string_view(window).substr(0, colon));
  const std::optional<std::uint64_t> hi =
      colon == std::string::npos
          ? std::nullopt
          : gg::common::parse_u64(std::string_view(window).substr(colon + 1));
  if (!lo || !hi) {
    std::fprintf(stderr, "--replay needs --window <lo>:<hi> in digits, got '%s'\n",
                 window.c_str());
    return 2;
  }
  std::string out;
  std::string error;
  if (!gg::service::ServiceCore::replay_window(config, journal_path, *lo, *hi,
                                               out, error)) {
    std::fprintf(stderr, "replay failed: %s\n", error.c_str());
    return 1;
  }
  std::fputs(out.c_str(), stdout);
  return 0;
}

/// The executor loop: claim under the lock, run outside it, land under the
/// lock.  An armed --crash-at kill-point ends the process here (exit 70).
void executor_loop(gg::service::ServiceCore& core, std::mutex& mu) {
  while (!g_shutdown.load(std::memory_order_acquire) ||
         [&] { std::lock_guard<std::mutex> lock(mu); return !core.drained(); }()) {
    std::optional<gg::service::ServiceCore::Job> job;
    {
      std::lock_guard<std::mutex> lock(mu);
      job = core.take_next();
    }
    if (!job) {
      if (g_shutdown.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(mu);
        if (core.drained()) return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    const auto outcome = gg::service::ServiceCore::run_job(
        core.config(), job->request, job->device, job->vtime_before);
    std::lock_guard<std::mutex> lock(mu);
    core.complete(*job, outcome);
  }
}

int run_server(const gg::service::ServiceConfig& config,
               const std::string& socket_path, const std::string& journal_path,
               const std::string& report_path, bool resume,
               const gg::sim::SocketFaultConfig& socket_faults) {
  gg::service::ServiceCore core(config, journal_path, resume);
  std::mutex mu;

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  gg::service::SocketServer server(socket_path);
  std::optional<gg::sim::SocketFaultInjector> injector;
  if (socket_faults.any_faults()) {
    injector.emplace(socket_faults);
    server.set_fault_injector(&*injector);
  }

  // The transport-to-telemetry bridge: every hook takes the core lock, so
  // stream state mutates in the same critical sections as the protocol.
  gg::service::StreamHooks hooks;
  hooks.subscribe = [&](const std::string& line, std::string& reply) {
    std::lock_guard<std::mutex> lock(mu);
    return core.watch(line, reply);
  };
  hooks.unsubscribe = [&](std::uint64_t id) {
    std::lock_guard<std::mutex> lock(mu);
    core.unwatch(id);
  };
  hooks.next_frame = [&](std::uint64_t id) {
    std::lock_guard<std::mutex> lock(mu);
    return core.next_frame(id);
  };
  hooks.note_progress = [&](std::uint64_t id, bool progressed) {
    std::lock_guard<std::mutex> lock(mu);
    core.telemetry_progress(id, progressed);
  };
  hooks.tick = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return core.telemetry_tick();
  };

  std::thread executor([&] { executor_loop(core, mu); });

  server.serve(
      [&](const std::string& line) {
        std::lock_guard<std::mutex> lock(mu);
        return core.handle_line(line);
      },
      hooks, g_shutdown);

  // Graceful drain: the socket stopped admitting; let the executor finish
  // everything queued and in flight, then derive the report from the journal.
  {
    std::lock_guard<std::mutex> lock(mu);
    (void)core.handle_line("DRAIN");
  }
  executor.join();
  if (!report_path.empty()) {
    std::lock_guard<std::mutex> lock(mu);
    core.write_report(report_path);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Daemon-wide: a peer that vanishes mid-write must surface as EPIPE on
    // its own connection (handled as slow-consumer eviction), never as a
    // process-killing signal.
    std::signal(SIGPIPE, SIG_IGN);

    const gg::Flags flags(argc, argv);
    switch (mode_of(flags)) {
      case Mode::kClient: {
        (void)flags.get_bool("client", false);
        const std::string socket_path = flags.get_string("socket", "");
        const bool watch = flags.get_bool("watch", false);
        std::uint64_t from = 0;
        int idle_timeout_ms = 0;
        if (watch) {
          from = get_u64(flags, "from", 0);
          idle_timeout_ms = static_cast<int>(flags.get_int("idle-timeout-ms", 10000));
        }
        reject_unread(flags, watch ? "greengpud --client --watch" : "greengpud --client");
        if (socket_path.empty()) throw std::invalid_argument("--client needs --socket");
        return watch ? run_watch(socket_path, from, idle_timeout_ms)
                     : run_client(socket_path);
      }
      case Mode::kReplay: {
        const std::string journal_path = flags.get_string("replay", "");
        const std::string window = flags.get_string("window", "");
        const gg::service::ServiceConfig config = config_from_flags(flags);
        reject_unread(flags, "greengpud --replay");
        config.validate();
        return run_replay(config, journal_path, window);
      }
      case Mode::kEvents: {
        const std::string journal_path = flags.get_string("events", "");
        const std::uint64_t from = get_u64(flags, "from", 0);
        const gg::service::ServiceConfig config = config_from_flags(flags);
        reject_unread(flags, "greengpud --events");
        config.validate();
        return run_events(config, journal_path, from);
      }
      case Mode::kServer: break;
    }
    const std::string socket_path = flags.get_string("socket", "");
    const std::string journal_path = flags.get_string("journal", "");
    const std::string report_path = flags.get_string("report", "");
    const bool resume = flags.get_bool("resume", false);
    const std::string crash_at = flags.get_string("crash-at", "");
    const gg::service::ServiceConfig config = config_from_flags(flags);
    const gg::sim::SocketFaultConfig socket_faults =
        gg::sim::SocketFaultConfig::from_flags(flags);
    reject_unread(flags, "the greengpud server");
    config.validate();
    if (socket_path.empty() || journal_path.empty()) {
      std::fprintf(stderr, "usage: greengpud --socket <path> --journal <path> "
                           "[--report <path>] [--resume] | --client --socket "
                           "<path> [--watch [--from N]] | --replay <journal> "
                           "--window <lo>:<hi> | --events <journal> [--from N]\n");
      return 2;
    }
    // --crash-at arms a service kill-point in exit mode: the process dies
    // with _Exit(70) exactly where a real fault would strike, which is what
    // tools/service_smoke.sh's kill-and-resume matrix drives.
    std::optional<gg::sim::CrashInjector> crash;
    if (!crash_at.empty()) {
      crash.emplace(gg::sim::parse_crash_spec(crash_at), gg::sim::CrashMode::kExit);
    }
    return run_server(config, socket_path, journal_path, report_path, resume,
                      socket_faults);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "greengpud: %s\n", e.what());
    return 1;
  }
}

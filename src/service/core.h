// ServiceCore: the greengpud state machine, free of sockets and threads.
//
// The daemon (tools/greengpud.cpp) is a thin shell: a socket loop feeding
// client lines into handle_line() and one executor thread driving
// take_next() / run_job() / complete().  Everything that decides anything
// lives here, synchronously, so the whole service — admission, shedding,
// deadlines, the circuit breaker, drain, resume, replay — is testable
// in-process without a daemon, and deterministic by construction:
//
//   * State changes in one place: every handler builds a journal record,
//     appends it, and folds it through State::apply(), the one transition
//     function.  A resumed daemon folds the records it reads back through
//     the same function, and so do WATCH FROM and `greengpud --events` over
//     a fresh State, so live, resumed and regenerated state cannot drift.
//     The caller serializes handle_line(), take_next() and complete() (the
//     daemon holds a mutex, tests are single-threaded).
//   * run_job() — the expensive part — is a pure static function of
//     (config, request, device, vtime); the daemon runs it outside the
//     lock so admissions stay responsive while work executes.
//   * The journal is the single source of truth: the report is generated
//     from it (write_report), a restarted daemon rebuilds every byte of
//     state by folding it (resume), and replay_window() re-executes journaled
//     outcomes from their recorded (seed, device) and verifies the journal
//     bit-for-bit.
//
// Protocol (one text line in, one text line out; replies start with a
// numeric status — see docs/SERVICE.md for the operator guide):
//
//   SUBMIT <workload> <policy> [priority=N] [deadline=S] [iters=N]
//   STATUS <seq> | STATS | HEALTH | PAUSE | RESUME | DRAIN | PING
//   WATCH [FROM <seq>]   (streaming connections only — see watch())
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/greengpu/runner.h"
#include "src/service/admission.h"
#include "src/service/breaker.h"
#include "src/service/journal.h"
#include "src/service/telemetry.h"
#include "src/service/types.h"

namespace gg::service {

class ServiceCore {
 public:
  /// One claimed unit of work: the request, the device the breaker chose,
  /// and the virtual time it started at (fixed until its outcome lands).
  struct Job {
    Request request;
    std::size_t device{0};
    Seconds vtime_before{0.0};
  };

  /// Open (or resume from) `journal_path`.  With `resume` every record read
  /// back is applied in order, which rebuilds the queue, the claimed
  /// request, virtual time, breaker state, the cost model and all counters
  /// — the daemon continues as if never killed.  Without `resume` the
  /// journal starts fresh.  Throws common::SnapshotError on a journal
  /// written by a different configuration, or at the first record the
  /// rebuilt state contradicts (index and seq in the message).
  ServiceCore(ServiceConfig config, std::string journal_path, bool resume);

  /// Handle one protocol line; returns the reply line (no newline).  Hosts
  /// the service-post-admit kill-point (admission journaled, reply lost).
  [[nodiscard]] std::string handle_line(const std::string& line);

  // -- Executor half ---------------------------------------------------------

  /// Claim the next runnable request.  nullopt when paused, empty, or a job
  /// is already in flight (the executor is a single lane — serial execution
  /// is what makes the outcome order deterministic).
  [[nodiscard]] std::optional<Job> take_next();

  /// Execute `request` on `device`: the expensive, lock-free part.  Pure —
  /// both the live executor and offline replay produce outcomes through
  /// this one function, which is why replay can verify the journal
  /// bit-for-bit.  Propagates common::CrashInjected (supervised by the
  /// caller); a run the platform kills (ExperimentAborted) becomes a
  /// kFailed outcome that does not advance virtual time.
  [[nodiscard]] static OutcomeRecord run_job(const ServiceConfig& config,
                                             const Request& request,
                                             std::size_t device,
                                             Seconds vtime_before);

  /// Land `outcome` for the in-flight `job`: journal it (service-pre-result
  /// kill-point — executed but not yet journaled, the re-execute-on-resume
  /// window) and apply it, which advances virtual time and feeds the breaker
  /// and the cost model.
  void complete(const Job& job, const OutcomeRecord& outcome);

  /// take_next + run_job + complete, one request, for tests and drain
  /// loops.  False when nothing is runnable.  Retries nothing: a crash
  /// (CrashInjected) unwinds to the caller with the job still in flight and
  /// its claim journaled, which a resumed core re-runs first.
  bool step();

  // -- Streaming telemetry (WATCH) -------------------------------------------

  /// Open a WATCH subscription from a raw request line ("WATCH" for a live
  /// tail, "WATCH FROM <seq>" to resume from event seq).  A resume cursor is
  /// honoured by regenerating [seq, now] from the journal — the continuation
  /// is byte-identical to what an uninterrupted subscriber would have seen.
  /// Returns the subscriber id (> 0) with `reply` set to the success line,
  /// or 0 with `reply` set to the refusal (400 bad/beyond cursor, 503 full).
  [[nodiscard]] std::uint64_t watch(const std::string& line, std::string& reply);
  void unwatch(std::uint64_t id) { hub_.unsubscribe(id); }
  [[nodiscard]] std::optional<std::string> next_frame(std::uint64_t id) {
    return hub_.next_frame(id);
  }
  void telemetry_progress(std::uint64_t id, bool progressed) {
    hub_.note_progress(id, progressed);
  }
  [[nodiscard]] std::vector<std::uint64_t> telemetry_tick() {
    return hub_.tick();
  }
  [[nodiscard]] const TelemetryHub& telemetry() const { return hub_; }
  /// Journal records appended or resumed so far (STATS/HEALTH progress seq).
  [[nodiscard]] std::uint64_t journal_records() const { return state_.records(); }

  // -- State queries ---------------------------------------------------------

  [[nodiscard]] bool paused() const { return paused_; }
  [[nodiscard]] bool draining() const { return draining_; }
  /// Drain requested and nothing queued or in flight: safe to exit 0.
  [[nodiscard]] bool drained() const;
  [[nodiscard]] std::size_t queue_depth() const { return state_.admission().depth(); }
  [[nodiscard]] const ServiceStats& stats() const { return state_.stats(); }
  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  [[nodiscard]] const CircuitBreaker& breaker() const { return state_.breaker(); }
  [[nodiscard]] Seconds vtime() const { return state_.vtime(); }

  // -- Journal-derived outputs -----------------------------------------------

  /// Regenerate the report (one render()ed line per record, journal order)
  /// from the journal and write it to `path`.
  void write_report(const std::string& report_path) const;

  /// Re-execute the journal's records [lo, hi] (0-based, inclusive): admits
  /// and sheds are rendered as-is; every outcome is re-run through
  /// run_job() from its journaled (seed, device) and compared field-for-
  /// field against the journal.  On success `out` holds the window's report
  /// lines (byte-identical to the same lines of write_report()) and true is
  /// returned; on divergence or a bad window, `error` names the record and
  /// field.
  [[nodiscard]] static bool replay_window(const ServiceConfig& config,
                                          const std::string& journal_path,
                                          std::size_t lo, std::size_t hi,
                                          std::string& out, std::string& error);

  /// Regenerate the telemetry stream from the journal, one "EVENT <seq>
  /// <payload>" line per event starting at `from_seq` (1-based).  This is
  /// the offline twin of WATCH FROM — the chaos harness byte-compares a
  /// resumed live stream against this output.  On a bad journal or a cursor
  /// beyond the stream, `error` says why and false is returned.
  [[nodiscard]] static bool events_window(const ServiceConfig& config,
                                          const std::string& journal_path,
                                          std::uint64_t from_seq,
                                          std::string& out, std::string& error);

 private:
  /// Everything the journal determines about a service, changed only by
  /// apply().  The live core, a resumed core and the telemetry generators
  /// all fold journal records through it, so they drive the same breaker
  /// with the same claims and outcomes.
  class State {
   public:
    State(const ServiceConfig& config, std::string source);

    /// Fold one journal record, appending its event payloads (the render()
    /// line, then any breaker transition) to `events`.  Throws
    /// common::SnapshotError naming the source, the record index and the
    /// seq when the record contradicts the state: a start on a device the
    /// breaker would not choose or of a request that is not next, an
    /// eviction of a request that is not the lowest-ranked, an outcome for
    /// a request that is not in flight.
    void apply(const ServiceRecord& record, std::vector<std::string>& events);

    /// The event stream of the journal at `journal_path`, folded over a
    /// fresh state.
    [[nodiscard]] static std::vector<std::string> events(
        const ServiceConfig& config, const std::string& journal_path);

    [[nodiscard]] const AdmissionController& admission() const { return admission_; }
    [[nodiscard]] const CircuitBreaker& breaker() const { return breaker_; }
    [[nodiscard]] const ServiceStats& stats() const { return stats_; }
    [[nodiscard]] const std::optional<Job>& inflight() const { return inflight_; }
    [[nodiscard]] Seconds vtime() const { return vtime_; }
    [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }
    /// Records applied so far; the next record's index.
    [[nodiscard]] std::uint64_t records() const { return records_; }
    /// seq -> lifecycle state ("queued", "running", "ok", "failed",
    /// "shed:<reason>", "evicted") for STATUS.
    [[nodiscard]] const std::map<std::uint64_t, std::string>& states() const {
      return states_;
    }

   private:
    [[noreturn]] void refuse(std::uint64_t seq, const std::string& why) const;

    std::string source_;
    AdmissionController admission_;
    CircuitBreaker breaker_;
    ServiceStats stats_;
    /// Virtual service time: simulated seconds of completed (ok) work.
    Seconds vtime_{0.0};
    std::uint64_t next_seq_{1};
    std::uint64_t records_{0};
    std::optional<Job> inflight_;
    std::map<std::uint64_t, std::string> states_;
  };

  [[nodiscard]] std::string handle_submit(const std::vector<std::string>& tokens);
  [[nodiscard]] Seconds inflight_cost() const;
  /// Apply one just-journaled record and broadcast its events, so the live
  /// stream is the same fold of the journal the offline generators compute.
  void commit(const ServiceRecord& record);

  ServiceConfig config_;
  ServiceJournal journal_;
  State state_;
  TelemetryHub hub_;
  /// Scratch for commit (cleared per call; at most two payloads a record).
  std::vector<std::string> scratch_events_;
  bool paused_{false};
  bool draining_{false};
};

}  // namespace gg::service

// The greengpud service journal: the daemon's single source of truth.
//
// Every admission decision (admit or shed) and every outcome is appended
// here the moment it happens, CRC-framed through common::Journal (magic
// "GGSL", so a service journal can never be resumed as a campaign journal
// or vice versa).  Everything user-visible derives from it:
//
//   report   One text line per record, in journal order (render()).  A live
//            run's report, a killed-and-resumed run's report and an offline
//            replay of the same window are byte-identical because they are
//            all renderings of the same journal bytes.
//
//   resume   A restarted daemon applies every record it reads back through
//            the same transition function the live daemon applied them
//            with (core.h), and continues as if never killed.
//
//   replay   `greengpud --replay` re-executes journaled outcomes from their
//            recorded (seed, device) and verifies the results match the
//            journal bit-for-bit (see core.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/journal.h"
#include "src/service/types.h"

namespace gg::service {

enum class RecordKind : std::uint64_t {
  kAdmit = 1,
  kShed = 2,
  kOutcome = 3,
  kStart = 4,
};

/// The executor claimed a request.  Journaled *before* execution so the
/// claim order — which in a live daemon depends on how admissions interleave
/// with the executor — is durable: a resumed daemon re-runs the claimed
/// request first instead of letting the rebuilt queue reorder history.
struct StartRecord {
  std::uint64_t seq{0};
  std::uint64_t device{0};
  /// Virtual service time at the claim (the request's vtime_before).
  double vtime{0.0};
};

/// A rejected (or evicted) submission.
struct ShedRecord {
  std::uint64_t seq{0};
  std::string workload;
  std::string policy;
  std::uint64_t priority{0};
  /// "queue-full", "deadline-unmeetable", "draining" or "evicted".
  std::string reason;
};

enum class OutcomeStatus : std::uint8_t { kOk = 0, kFailed = 1 };
enum class DeadlineVerdict : std::uint8_t { kNone = 0, kMet = 1, kViolated = 2 };

/// One executed request's scalar results — everything the report and the
/// replay verifier consume.
struct OutcomeRecord {
  std::uint64_t seq{0};
  std::uint64_t device{0};
  OutcomeStatus status{OutcomeStatus::kOk};
  double exec_time{0.0};
  double gpu_energy{0.0};
  double cpu_energy{0.0};
  bool verified{false};
  std::uint64_t fault_events{0};
  std::uint64_t watchdog_trips{0};
  /// Controller telemetry (PR-3 DecisionRecorder counters): frequency-scaler
  /// decisions taken and division moves (ratio changes) during the run.
  /// Journaled so the WATCH stream can be regenerated from the journal alone.
  std::uint64_t scaler_decisions{0};
  std::uint64_t division_moves{0};
  DeadlineVerdict deadline{DeadlineVerdict::kNone};
  /// Virtual service time after this outcome (== vtime before + exec_time
  /// for ok outcomes; failed outcomes do not advance it).
  double vtime_after{0.0};
};

/// One journal record, decoded.  Exactly one of the payload structs is
/// meaningful, selected by `kind`.
struct ServiceRecord {
  RecordKind kind{RecordKind::kAdmit};
  Request admit;
  ShedRecord shed;
  OutcomeRecord outcome;
  StartRecord start;
};

/// The report/replay text form of a record: "admit seq=... | shed seq=... |
/// outcome seq=...", one line, no trailing newline.  Fixed-width %.6f for
/// every double so the bytes are reproducible.
[[nodiscard]] std::string render(const ServiceRecord& record);

class ServiceJournal {
 public:
  /// Scan `path`, validating the header against `fingerprint` and dropping
  /// a torn or schema-mismatched tail in place.  Throws common::SnapshotError
  /// (with path and byte offset) on a missing/foreign journal.
  [[nodiscard]] static std::vector<ServiceRecord> read(const std::string& path,
                                                       std::uint64_t fingerprint);

  ServiceJournal(std::string path, std::uint64_t fingerprint, bool fresh);

  void admit(const Request& request);
  void shed(const ShedRecord& record);
  void outcome(const OutcomeRecord& record);
  void start(const StartRecord& record);

  [[nodiscard]] const std::string& path() const { return journal_.path(); }

 private:
  common::Journal journal_;
};

}  // namespace gg::service

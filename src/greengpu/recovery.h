// Crash recovery: the campaign journal and the RecoverySupervisor.
//
// A campaign is a (workload x policy) matrix of independent, deterministic
// cells (campaign.h).  Crash consistency therefore works at cell
// granularity: every completed cell's scalar results are appended to a
// crash-safe journal, and a resumed campaign loads the journal, skips the
// journaled cells and re-runs the rest from scratch.  Because each cell's
// fault RNG is forked from the configured seed by cell *position*
// (campaign_cell_seed), a re-run cell produces bit-identical results — so a
// campaign killed at ANY point and resumed reports byte-identical CSV/JSON
// to an uninterrupted run, for any --jobs value, faults on or off.
//
// The journal is append-only with per-record CRC framing.  A torn trailing
// record (the process died mid-append — exactly what the mid-checkpoint
// kill-point and std::_Exit produce) is detected on open and truncated away;
// everything before it stays trusted.  A header fingerprint derived from the
// campaign plan and options refuses to resume against a journal written by a
// different configuration.
//
// The RecoverySupervisor is the in-process form of "systemd restarts the
// daemon": it runs the checkpointed campaign, catches CrashInjected (the
// throw-mode kill-point), flips resume on and tries again, up to a restart
// budget.  Real process death (exit-mode kill-points, exit code 70) is
// supervised the same way from the outside by the CI crash-recovery matrix
// re-invoking `greengpu_cli --campaign --resume`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/backoff.h"
#include "src/common/journal.h"
#include "src/greengpu/campaign.h"

namespace gg::greengpu {

/// Checkpoint/resume knobs threaded from the CLI.
struct CheckpointOptions {
  /// Journal + snapshot directory; empty disables checkpointing entirely.
  std::string dir;
  /// Controller snapshot cadence in iterations (0 = journal only): each
  /// batch row atomically rewrites `<dir>/row-<first cell>.ggsn` with the
  /// latest checkpoint of each of its cells (BatchCampaignEngine).
  std::size_t every{0};
  /// Skip cells already present in the journal instead of starting fresh.
  bool resume{false};

  [[nodiscard]] bool enabled() const { return !dir.empty(); }
};

/// Append-only, CRC-framed journal of completed campaign cells — the
/// campaign-cell schema layered on common::Journal's framing (magic "GGJL",
/// record tag = cell index, payload = serialized scalar results).
class CampaignJournal {
 public:
  struct Entry {
    std::size_t cell_index{0};
    ExperimentResult result;
  };

  /// Configuration fingerprint stored in the header: covers the resolved
  /// plan (workload and policy names) and every option that affects cell
  /// results, so a journal can only resume the campaign that wrote it.
  [[nodiscard]] static std::uint64_t fingerprint(const CampaignPlan& plan,
                                                 const RunOptions& options);

  /// Scan `path`: validate the header against `fingerprint`, load every
  /// intact record and truncate a torn tail in place.  Throws
  /// common::SnapshotError on a missing/foreign/mismatched journal.
  [[nodiscard]] static std::vector<Entry> read(const std::string& path,
                                               std::uint64_t fingerprint);

  /// Open for appending.  `fresh` truncates and writes a new header;
  /// otherwise records append after the existing (already truncated-to-good)
  /// content.
  CampaignJournal(std::string path, std::uint64_t fingerprint, bool fresh);

  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  /// Append one completed cell and flush.  Hosts the mid-checkpoint
  /// kill-point between two half-record flushes, so an exit-mode kill here
  /// leaves exactly the torn tail that read() truncates.
  void append(std::size_t cell_index, const ExperimentResult& result);

  [[nodiscard]] const std::string& path() const { return journal_.path(); }

 private:
  common::Journal journal_;
};

/// The campaign driver behind run_campaign.  With `ckpt` enabled it keeps
/// a crash-safe journal: journaled cells are skipped on resume, finished
/// cells are appended as they complete, and the report is byte-identical to
/// an uninterrupted run.  With `ckpt` disabled it is plain run_campaign.
[[nodiscard]] CampaignResult run_campaign_checkpointed(
    const CampaignConfig& config, const CheckpointOptions& ckpt,
    const CampaignProgress& progress = {});

/// In-process supervisor: reruns the checkpointed campaign after every
/// injected crash (CrashInjected from a throw-mode kill-point), resuming
/// from the journal, until it completes or the restart budget is exhausted
/// (then the last CrashInjected propagates).
class RecoverySupervisor {
 public:
  RecoverySupervisor(CampaignConfig config, CheckpointOptions ckpt,
                     int max_restarts = 16,
                     common::BackoffConfig backoff = {})
      : config_(std::move(config)), ckpt_(std::move(ckpt)),
        max_restarts_(max_restarts), backoff_(backoff) {}

  [[nodiscard]] CampaignResult run(const CampaignProgress& progress = {});

  /// Crashes survived during the last run().
  [[nodiscard]] int restarts() const { return restarts_; }

  /// The backoff delay planned before each restart of the last run(), in
  /// order (size == restarts()).  The supervisor itself never sleeps —
  /// campaigns run in simulated time and tests must stay instant — but the
  /// schedule is the exact deterministic sequence a daemon-style caller
  /// sleeps through, so tests assert on it directly.
  [[nodiscard]] const std::vector<Seconds>& restart_delays() const {
    return restart_delays_;
  }

 private:
  CampaignConfig config_;
  CheckpointOptions ckpt_;
  int max_restarts_;
  common::BackoffConfig backoff_;
  int restarts_{0};
  std::vector<Seconds> restart_delays_;
};

}  // namespace gg::greengpu

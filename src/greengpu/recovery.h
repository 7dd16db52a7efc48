// Crash recovery: the campaign journal and run_campaign_checkpointed.
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
// There is one crash model: the process dies (an exit-mode kill-point exits
// 70, as SIGKILL would leave it) and a new one runs `greengpu_cli --campaign
// --resume` on the same directory.  Tests take the same path in process: a
// throw-mode kill-point unwinds the run, and the test calls
// run_campaign_checkpointed again with resume on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

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
  /// plan (workload names, and each policy's name and settings) and every
  /// option that affects cell results, so a journal can only resume the
  /// campaign that wrote it.
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
/// Under glibc the first call pins the process's mmap threshold at 128 KiB,
/// so a freed cell buffer of that size or more goes back to the kernel.
[[nodiscard]] CampaignResult run_campaign_checkpointed(
    const CampaignConfig& config, const CheckpointOptions& ckpt,
    const CampaignProgress& progress = {});

}  // namespace gg::greengpu

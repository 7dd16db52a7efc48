// Test-side decoders for the controller checkpoint files.
//
// Reports never read these files back; tests do, to prove what they
// hold.  Two layouts carry the same per-cell record (the
// ExperimentEngine::save_checkpoint payload):
//   * a standalone run's `<dir>/<tag>.ggsn` — the frame's payload is one
//     record;
//   * a campaign row's `<dir>/row-<first flat index>.ggsn` — the payload is
//     [u64 n] then n x ([u64 cell index][u64 length][record bytes]).
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/snapshot.h"
#include "src/greengpu/runner.h"
#include "src/workloads/registry.h"

namespace gg::greengpu::test {

/// One decoded save_checkpoint record.
struct CheckpointRecord {
  std::uint64_t iteration{0};
  double sim_time{0.0};
  std::uint64_t cards{0};
  bool has_scaler{false};
  bool has_divider{false};
  /// The raw record bytes, for byte-equality against save_checkpoint.
  std::vector<std::uint8_t> payload;
};

/// Decode a record's leading fields; throws common::SnapshotError.
inline CheckpointRecord decode_checkpoint_record(std::vector<std::uint8_t> payload) {
  CheckpointRecord rec;
  common::SnapshotReader r = common::SnapshotReader::from_payload(payload);
  rec.iteration = r.u64();
  rec.sim_time = r.f64();
  rec.cards = r.u64();
  rec.has_scaler = r.b();
  rec.has_divider = r.b();
  rec.payload = std::move(payload);
  return rec;
}

/// The record a standalone ExperimentEngine run of `workload` under
/// `policy` with `options` holds at iteration `boundary`.
inline std::vector<std::uint8_t> expected_checkpoint(const std::string& workload,
                                                     const Policy& policy,
                                                     const RunOptions& options,
                                                     std::size_t boundary) {
  auto w = workloads::make_workload(workload);
  ExperimentEngine engine(*w, policy, options);
  engine.start();
  while (engine.iteration() < boundary) engine.step_iteration();
  common::SnapshotWriter record;
  engine.save_checkpoint(record);
  return record.payload();
}

/// A standalone run's `<tag>.ggsn`.  nullopt for a missing, truncated or
/// corrupt file.
inline std::optional<CheckpointRecord> read_run_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                        std::istreambuf_iterator<char>()};
  try {
    // from_frame validates the header and CRC; the payload is the tail.
    const common::SnapshotReader r =
        common::SnapshotReader::from_frame(bytes.data(), bytes.size(), path);
    return decode_checkpoint_record(
        {bytes.end() - static_cast<std::ptrdiff_t>(r.remaining()), bytes.end()});
  } catch (const common::SnapshotError&) {
    return std::nullopt;
  }
}

/// A campaign row's `row-<first>.ggsn`: records by flat cell index.  nullopt
/// for a missing, truncated or corrupt file.
inline std::optional<std::map<std::size_t, CheckpointRecord>> read_row_checkpoint(
    const std::string& path) {
  try {
    common::SnapshotReader r = common::SnapshotReader::from_file(path);
    std::map<std::size_t, CheckpointRecord> records;
    const std::uint64_t n = r.u64();
    for (std::uint64_t k = 0; k < n; ++k) {
      const auto index = static_cast<std::size_t>(r.u64());
      const std::string bytes = r.str();
      records[index] = decode_checkpoint_record({bytes.begin(), bytes.end()});
    }
    r.expect_done();
    return records;
  } catch (const common::SnapshotError&) {
    return std::nullopt;
  }
}

}  // namespace gg::greengpu::test

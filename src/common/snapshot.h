// Versioned, checksummed binary snapshot format for crash-consistent
// checkpoints.
//
// Every piece of learned controller state (weight tables, division ratios,
// RNG streams, telemetry recorders) serializes through this one format so
// a killed process can restart from its last good checkpoint:
//
//   [magic "GGSN"][schema version u32][payload length u64][CRC32 u32][payload]
//
// All integers are little-endian regardless of host; doubles round-trip as
// their raw IEEE-754 bit pattern, so restored state is bit-identical to
// what was saved.  Files are written atomically (write to `<path>.tmp`,
// flush, rename), so a crash mid-write leaves either the previous good
// snapshot or no snapshot — never a torn one.  Readers validate magic,
// version, length and CRC before handing out a single byte; any mismatch
// (truncated file, flipped bit, wrong schema) throws SnapshotError, which
// callers treat as "fall back to the last good state / cold start".
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace gg::common {

/// Corrupt, truncated, version-mismatched or unreadable snapshot.  Always
/// recoverable: the consistent reaction is a cold start.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// File magic: "GGSN" as bytes on disk.
inline constexpr std::uint32_t kSnapshotMagic = 0x4E534747u;
/// Bumped whenever the serialized layout of any snapshottable type changes.
/// v2: per-GPU copy-engine state in Platform::save, copy sampler in
/// NvmlDevice, overlap/copy-busy fields in IterationRecord + ScalerDecision.
/// v3: controller-telemetry counters (scaler_decisions, division_moves) in
/// the service journal's OutcomeRecord.
/// v4: copy sampler dropped from NvmlDevice, copy-busy/overlap fields
/// dropped from ScalerDecision.
/// v5: the controller checkpoint becomes ExperimentEngine::save_checkpoint,
/// and campaign rows write it per cell inside one row frame.
/// v6: the GPU scaler's EWMA pre-filter state and the filtered utilizations
/// of every ScalerDecision dropped.
/// v7: one divider record (share vector, streak, then its kind's state; no
/// decision log) at any card count; engine snapshots hold one NVML + scaler
/// record per card, the checkpoint a card count, and save_prefix the
/// division-move count instead of the CPU share.
inline constexpr std::uint32_t kSnapshotVersion = 7;

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG one) of `size` bytes.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

/// Append-only binary serializer.  Build the payload with the typed
/// writers, then either `write_atomic()` it to a file or embed `payload()`
/// in a larger frame (the campaign journal does the latter).
class SnapshotWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Raw IEEE-754 bit pattern; restores bit-identically.
  void f64(double v);
  /// Length-prefixed UTF-8 bytes.
  void str(std::string_view s);
  void f64_vec(const std::vector<double>& v);

  [[nodiscard]] const std::vector<std::uint8_t>& payload() const { return buf_; }

  /// The full on-disk frame: header + CRC + payload.
  [[nodiscard]] std::vector<std::uint8_t> frame() const;

  /// Atomically replace `path` with this snapshot: write `<path>.tmp`,
  /// flush, rename.  Crash-consistent — a reader never observes a partial
  /// file.  Throws SnapshotError on I/O failure.  This is the ONLY
  /// sanctioned way to put a snapshot on disk (greengpu-lint's
  /// checkpoint-write rule flags direct ofstream writes to checkpoint
  /// paths).
  void write_atomic(const std::string& path) const;

 private:
  std::vector<std::uint8_t> buf_;
};

/// Validating deserializer.  Construction from a file or frame checks
/// magic, version, declared length and CRC up front; the typed readers
/// then throw SnapshotError on any over-read, so a partial-state load is
/// impossible — either the whole payload is trusted or none of it is.
class SnapshotReader {
 public:
  /// Parse a full frame (header + CRC + payload).  Throws SnapshotError;
  /// `context` (usually the file path) is threaded into every diagnostic so
  /// daemon logs name the offending file and byte offset.
  static SnapshotReader from_frame(const std::uint8_t* data, std::size_t size,
                                   const std::string& context = "");
  /// Load and validate `path`.  Throws SnapshotError (missing file,
  /// truncation, bad magic/version/CRC), always naming `path` and the
  /// offending byte offset.
  static SnapshotReader from_file(const std::string& path);
  /// Wrap an already-validated payload (journal records carry their own
  /// framing and CRC).  `context` names the payload's origin for reader
  /// diagnostics.
  static SnapshotReader from_payload(std::vector<std::uint8_t> payload,
                                     const std::string& context = "");

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] bool b() { return u8() != 0; }
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<double> f64_vec();

  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }
  /// Throws SnapshotError if any payload bytes were left unconsumed —
  /// trailing garbage means the schema and the data disagree.
  void expect_done() const;

 private:
  SnapshotReader() = default;
  void need(std::size_t n) const;
  /// "snapshot <context>: " or "snapshot: " — every diagnostic's prefix.
  [[nodiscard]] std::string where() const;

  std::vector<std::uint8_t> buf_;
  std::size_t pos_{0};
  std::string context_;
};

}  // namespace gg::common

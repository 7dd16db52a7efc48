// Bounded decision/telemetry recording for controllers and runners.
//
// Every controller in the stack (scaler, CPU governor, divider) and the
// experiment runner keep per-step logs that the paper's figures and the
// tests consume.  A long campaign neither reads nor needs those logs, yet
// the seed implementation grew them without bound — linear memory in
// simulated time.  `DecisionRecorder` makes the retention policy explicit:
//
//  * kFull     — keep every record (traces, figures, tests; the default for
//                single runs so existing consumers see identical data);
//  * kRing     — keep only the most recent `ring_capacity` records (long
//                interactive runs that want a tail for debugging);
//  * kCounters — keep nothing but the count (campaign default; memory is
//                O(1) no matter how long the run).
//
// Recording mode is pure telemetry: it never feeds back into any control
// decision, so switching modes leaves joules, traces and decision streams
// bit-identical — only what is *retained* changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/snapshot.h"
#include "src/common/thread_checker.h"

namespace gg::greengpu {

enum class RecordMode {
  kFull,      // unbounded log (seed behaviour)
  kRing,      // last `ring_capacity` records
  kCounters,  // count only, no storage
};

/// Retention policy knob threaded through RunOptions.
struct RecordOptions {
  RecordMode mode{RecordMode::kFull};
  /// Retained tail length in kRing mode (ignored otherwise).
  std::size_t ring_capacity{256};
};

/// A telemetry sink with a configurable retention policy.  `push` is O(1)
/// and allocation-free once the store reached its working size (kFull
/// amortizes like vector::push_back; kRing and kCounters never allocate
/// after the first wrap / at all).
template <typename T>
class DecisionRecorder {
 public:
  DecisionRecorder() = default;
  explicit DecisionRecorder(RecordOptions opts)
      : mode_(opts.mode), cap_(opts.ring_capacity == 0 ? 1 : opts.ring_capacity) {
    if (mode_ == RecordMode::kRing) store_.reserve(cap_);
  }

  GG_HOT void push(const T& value) {
    owner_.assert_owner("greengpu::DecisionRecorder");
    ++total_;
    switch (mode_) {
      case RecordMode::kFull:
        // GG_LINT_ALLOW(hot-alloc): kFull retention is the explicit
        // opt-in unbounded mode; growth amortizes like vector::push_back.
        store_.push_back(value);
        break;
      case RecordMode::kRing:
        if (store_.size() < cap_) {
          // GG_LINT_ALLOW(hot-alloc): fills pre-reserved ring capacity;
          // never reallocates (reserve(cap_) ran at construction).
          store_.push_back(value);
        } else {
          store_[head_] = value;
        }
        head_ = (head_ + 1) % cap_;
        break;
      case RecordMode::kCounters:
        break;
    }
  }

  [[nodiscard]] RecordMode mode() const { return mode_; }
  /// Records pushed over the recorder's lifetime (all modes).
  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// Records currently retained (0 in kCounters mode).
  [[nodiscard]] std::size_t retained() const { return store_.size(); }

  /// The retained records, oldest first.  kFull: everything; kRing: the
  /// tail in arrival order; kCounters: empty.
  [[nodiscard]] std::vector<T> snapshot() const {
    if (mode_ != RecordMode::kRing || store_.size() < cap_) return store_;
    std::vector<T> out;
    out.reserve(store_.size());
    for (std::size_t i = 0; i < store_.size(); ++i) {
      out.push_back(store_[(head_ + i) % cap_]);
    }
    return out;
  }

  /// Move the retained records out, oldest first, leaving the recorder
  /// empty (total is kept).  Avoids the snapshot() copy when the recorder
  /// is about to be discarded — e.g. the runner handing a run's iteration
  /// log to the result.
  [[nodiscard]] std::vector<T> take() {
    std::vector<T> out;
    if (mode_ != RecordMode::kRing || store_.size() < cap_) {
      out = std::move(store_);
    } else {
      out = snapshot();
    }
    store_.clear();
    head_ = 0;
    return out;
  }

  /// Zero-copy view of the full log.  Meaningful in kFull mode only (kRing
  /// storage is rotated; kCounters keeps nothing) — legacy accessors that
  /// return `const std::vector<T>&` route through this.
  [[nodiscard]] const std::vector<T>& log() const { return store_; }

  void clear() {
    store_.clear();
    head_ = 0;
    total_ = 0;
  }

  /// Serialize policy + counters + retained records; `item` writes one T
  /// (`item(w, t)`).  Restoring into a recorder with the same policy
  /// continues the stream bit-identically.
  template <typename WriteItem>
  void save(common::SnapshotWriter& w, WriteItem item) const {
    w.u8(static_cast<std::uint8_t>(mode_));
    w.u64(cap_);
    w.u64(head_);
    w.u64(total_);
    w.u64(store_.size());
    for (const T& t : store_) item(w, t);
  }

  /// Counterpart of save(); `item` reads one T (`T t = item(r)`).  Throws
  /// common::SnapshotError when the saved retention policy does not match
  /// this recorder's (policy is configuration, not state).
  template <typename ReadItem>
  void load(common::SnapshotReader& r, ReadItem item) {
    const auto mode = static_cast<RecordMode>(r.u8());
    const std::uint64_t cap = r.u64();
    if (mode != mode_ || cap != cap_) {
      throw common::SnapshotError(
          "DecisionRecorder: retention policy mismatch between snapshot and "
          "restored recorder");
    }
    head_ = static_cast<std::size_t>(r.u64());
    total_ = r.u64();
    const std::uint64_t n = r.u64();
    store_.clear();
    store_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) store_.push_back(item(r));
  }

 private:
  RecordMode mode_{RecordMode::kFull};
  std::size_t cap_{256};
  std::size_t head_{0};
  std::uint64_t total_{0};
  std::vector<T> store_;
  /// Recorders are per-run, single-owner state (each campaign cell records
  /// on its own worker); armed in debug/TSan builds, free in release.
  common::ThreadChecker owner_;
};

}  // namespace gg::greengpu

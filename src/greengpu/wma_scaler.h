// Algorithm 1: the online-learning GPU frequency-scaling daemon.
//
// Periodically reads GPU core/memory utilizations through the NVML-style
// interface, updates the core-memory pair weight table (Table I + Eq. 1-4)
// and enforces the argmax pair through the nvidia-settings-style actuator —
// exactly the role of the paper's background Python daemon.
//
// One step implementation, allocation-free: utilization arrives as integer
// percent, so the Eq. 1/2 losses per level are 101-row lookups built at
// construction (loss.h: QuantizedLossTable, rows pre-blended by the Eq. 3
// weights), and the Eq. 4 decay, renormalization and argmax run as one
// fused table pass (WeightTable::update_fused).  The straight-line
// transcription of the equations lives in tests/greengpu/wma_oracle.h; the
// equivalence suite replays every decision of full runs, faults included,
// through it (tests/greengpu/scaler_fastpath_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "src/cudalite/nvml.h"
#include "src/cudalite/nvsettings.h"
#include "src/greengpu/loss.h"
#include "src/greengpu/params.h"
#include "src/greengpu/telemetry.h"
#include "src/greengpu/weight_table.h"
#include "src/sim/event_queue.h"

namespace gg::greengpu {

/// One record of what the scaler saw and decided (for traces and tests).
struct ScalerDecision {
  Seconds time{0.0};
  double core_util{0.0};  // measurements, as fractions (integer percent / 100)
  double mem_util{0.0};
  PairIndex chosen{};
  /// False when a hardened step held the weights because the sample was
  /// missing or stale (fault layer active).
  bool sample_ok{true};
  /// False when the chosen pair could not be applied this step (write
  /// rejected/clamped/throttled); an asynchronous retry may still land it.
  bool actuation_ok{true};
};

class GpuFrequencyScaler {
 public:
  /// Binds the controller to the monitoring and actuation interfaces.
  /// `hardened` (GreenGpuParams::hardened) holds the weights on failed or
  /// stale samples and retries rejected clock writes with bounded backoff.
  GpuFrequencyScaler(cudalite::NvmlDevice& nvml, cudalite::NvSettings& settings,
                     WmaParams params, bool hardened = false);

  /// One Algorithm 1 step: read utilizations, update weights, enforce argmax.
  /// Returns the decision taken.
  ScalerDecision step(Seconds now);

  /// Start periodic invocation on the queue (first step after one interval).
  void attach(sim::EventQueue& queue);
  /// Start periodic invocation with the first step at the absolute instant
  /// `first_step` (must be >= queue.now()); subsequent steps follow every
  /// `interval`.  Used when restoring a saved run: re-arms the tick train at
  /// the exact phase the donor run's pending tick had, so the decision
  /// stream continues bit-identically.
  void attach_at(sim::EventQueue& queue, Seconds first_step);
  /// Stop periodic invocation.
  void detach();

  [[nodiscard]] const WeightTable& table() const { return table_; }
  [[nodiscard]] const WmaParams& params() const { return params_; }
  /// The retained decision log (everything in kFull record mode — the
  /// default; empty in kRing/kCounters modes, see decisions_snapshot()).
  [[nodiscard]] const std::vector<ScalerDecision>& decisions() const {
    return decisions_.log();
  }
  /// Retained decisions, oldest first, under any record mode.
  [[nodiscard]] std::vector<ScalerDecision> decisions_snapshot() const {
    return decisions_.snapshot();
  }
  /// Decisions taken over the scaler's lifetime, independent of retention.
  [[nodiscard]] std::uint64_t decision_count() const { return decisions_.total(); }
  /// Replace the decision-retention policy (clears retained decisions).
  void set_record(RecordOptions opts) { decisions_ = DecisionRecorder<ScalerDecision>(opts); }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  /// Hardened-path counters (for tests and the ablation).
  [[nodiscard]] std::uint64_t held_steps() const { return held_steps_; }
  [[nodiscard]] std::uint64_t actuation_failures() const { return actuation_failures_; }

  /// Forget all learned state (weights back to uniform).
  void reset();

  /// Serialize every piece of learned/derived state (weights, running
  /// argmax, counters, retained decisions).  A scaler
  /// restored from this snapshot continues the exact decision stream the
  /// saved one would have produced.
  void save(common::SnapshotWriter& w) const;
  /// Restore into a scaler built with the SAME WmaParams (parameters are
  /// configuration; mismatched table dimensions or retention policy throw
  /// common::SnapshotError with state unchanged where detectable).
  void load(common::SnapshotReader& r);

 private:
  void arm(sim::EventQueue& queue);
  ScalerDecision step_fast(Seconds now);
  /// Enforce `pair` through the actuator, with bounded immediate re-tries
  /// and (when attached + hardened) asynchronous backoff re-tries.  Returns
  /// true when the pair is applied or in flight (delayed write).
  bool actuate(PairIndex pair);
  void schedule_retry(PairIndex pair, int attempt);

  cudalite::NvmlDevice* nvml_;
  cudalite::NvSettings* settings_;
  WmaParams params_;
  bool hardened_;
  WeightTable table_;
  /// Pre-blended 101-row loss tables (phi * core loss, (1-phi) * mem loss).
  QuantizedLossTable core_loss_q_;
  QuantizedLossTable mem_loss_q_;
  /// Precomputed Eq. 4 constant.
  double one_minus_beta_;
  /// Running argmax maintained by the fused update (what a hold step
  /// re-enforces without rescanning the table).
  PairIndex argmax_{0, 0};
  DecisionRecorder<ScalerDecision> decisions_;
  std::uint64_t steps_{0};
  std::uint64_t held_steps_{0};
  std::uint64_t actuation_failures_{0};
  sim::EventHandle next_;
  sim::EventHandle retry_;
  sim::EventQueue* attached_queue_{nullptr};
};

}  // namespace gg::greengpu

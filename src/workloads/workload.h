// Workload interface: the application structure of Section VI.
//
// Every workload is a sequence of *iterations* (the paper's division
// granularity: a reduction point in kmeans, a barrier step in hotspot, a
// chunk for embarrassingly parallel codes).  Each iteration's work can be
// split between the CPU and the GPUs by a share vector (r/(1-r) on the
// paper's one-GPU testbed); the chunks are launched concurrently (the
// pthreads + CUDA structure of [16], [23]) and the caller measures per-slot
// completion times.
//
// Workloads REALLY compute: the per-iteration chunk functions run actual
// kernels on the cudalite pool.  `reference` recomputes the final output from
// the config's inputs, every iteration of it (nbody, kmeans, bfs and QG run
// the very per-item kernel their chunks use over every item; bfs stops at the
// first round that changes nothing, as its run does); it depends on the config
// alone, so a campaign computes it once per workload, and `matches` checks
// each run's own output against it.  nbody and kmeans recompute on the pool
// `reference` is handed — a run's own, so a 1-worker pool is the serial
// case — in fixed blocks whose size does not depend on the worker count and
// differs from the launch partition, so a pool that lost or repeated a
// launch chunk cannot corrupt the kernel and the reference alike; the other,
// cheap references ignore the pool.  In parallel, each workload carries an
// `IntensityProfile` per iteration that drives the simulated timing/energy
// (calibrated to the Table II utilization classes with the paper's enlarged
// problem sizes).
//
// The constructor holds the config and nothing else.  `setup` builds the
// real inputs (once per object; later full runs reuse them) only when the
// runtime computes (`rt.compute_enabled()`): a model-only run touches no
// real data, so every simulated quantity — allocation sizes, transfer
// counts, item counts — comes from the config, never from a host buffer.
// `matches` holds only after a full run.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/cudalite/api.h"
#include "src/workloads/profile.h"

namespace gg::workloads {

/// Work shares for a multi-device iteration: slot 0 is the CPU, slots 1..N
/// are the GPUs.  Shares are fractions of the iteration's work and must sum
/// to 1 (within floating-point tolerance).
using ShareVector = std::vector<double>;

/// The final output of a full run, flattened to doubles (bfs' and
/// pathfinder's integer outputs are exact in a double).
using Reference = std::vector<double>;

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Table II style description of the utilization characteristics.
  [[nodiscard]] virtual std::string_view description() const = 0;
  /// Number of iterations in a full run.
  [[nodiscard]] virtual std::size_t iterations() const = 0;
  /// Whether the iteration work can be divided between CPU and GPU (the
  /// paper's two-tier experiments divide kmeans and hotspot).
  [[nodiscard]] virtual bool divisible() const = 0;

  /// Simulation intensity for iteration `iter` (fluctuating workloads vary
  /// this with the iteration index).
  [[nodiscard]] virtual IntensityProfile profile(std::size_t iter) const = 0;

  /// Allocate device buffers and copy inputs (charges simulated H2D time);
  /// builds the real inputs first under kFull only.
  virtual void setup(cudalite::Runtime& rt) = 0;

  /// Launch iteration `iter` split across the CPU (shares[0]) and one
  /// stream per GPU (shares[1 + k] on streams[k]) — "one pthread for one
  /// GPU", Section VI.  Shares are fractions of the iteration's work and
  /// must sum to 1; non-divisible workloads put everything on GPU 0.  Does
  /// not synchronize: `on_done(slot)` fires at each slot's simulated
  /// completion; a slot with no work signals completion immediately.
  virtual void run_iteration(cudalite::Runtime& rt, std::vector<cudalite::Stream>& streams,
                             std::size_t iter, const ShareVector& shares,
                             std::function<void(std::size_t)> on_done) = 0;

  /// Called after every slot of iteration `iter` completed: merge step
  /// (e.g. kmeans centroid update, hotspot buffer swap).
  virtual void finish_iteration(cudalite::Runtime& rt, std::size_t iter) = 0;

  /// Copy results back (charges simulated D2H time).
  virtual void teardown(cudalite::Runtime& rt) = 0;

  /// The final output a correct full run of this config must produce,
  /// recomputed on `pool` (the result does not depend on the pool).  Empty
  /// when this object never built its inputs, which no run matches.
  [[nodiscard]] virtual Reference reference(common::JobPool& pool) const = 0;
  /// This object's own final output against `ref`, with the workload's
  /// tolerance; false after a model-only run or before any run.
  [[nodiscard]] virtual bool matches(const Reference& ref) const = 0;
  [[nodiscard]] bool verify(common::JobPool& pool) const { return matches(reference(pool)); }
};

/// Base class implementing the generic split-launch plumbing.  Subclasses
/// provide the real chunk kernels over item ranges plus per-iteration
/// profiles; the base converts the share vector into simulated work
/// estimates and real index ranges.
class ProfiledWorkload : public Workload {
 public:
  /// Launches the GPU slots first and the CPU slot last; the last GPU
  /// slot's work is the total minus every other slot's, so the units always
  /// add up to the iteration's.
  void run_iteration(cudalite::Runtime& rt, std::vector<cudalite::Stream>& streams,
                     std::size_t iter, const ShareVector& shares,
                     std::function<void(std::size_t)> on_done) override;

  /// Default: nothing to merge.
  void finish_iteration(cudalite::Runtime& /*rt*/, std::size_t /*iter*/) override {}

 protected:
  /// Number of real (host-memory) items an iteration processes; chunk
  /// functions receive ranges over [0, real_items()).
  [[nodiscard]] virtual std::size_t real_items() const = 0;

  /// Real computation of items [begin, end) on the GPU path.  Runs on the
  /// cudalite pool; must only write state owned by those items.
  virtual void gpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) = 0;

  /// Real computation of items [begin, end) on the CPU path.
  virtual void cpu_chunk(std::size_t begin, std::size_t end, std::size_t iter) = 0;
};

using WorkloadPtr = std::unique_ptr<Workload>;

/// `matches` helper: `out` has `ref`'s size and every element lies within
/// `tol(r)` of its reference value r (a NaN never does).
template <class T, class Tol>
[[nodiscard]] bool within(const std::vector<T>& out, const Reference& ref, Tol tol) {
  return std::equal(out.begin(), out.end(), ref.begin(), ref.end(), [&](T o, double r) {
    return std::fabs(static_cast<double>(o) - r) <= tol(r);
  });
}

}  // namespace gg::workloads

#include "src/greengpu/weight_table.h"

#include <gtest/gtest.h>

#include "src/common/snapshot.h"
#include "src/greengpu/loss.h"
#include "tests/greengpu/wma_oracle.h"

namespace gg::greengpu {
namespace {

std::vector<double> losses_for(double u, const std::vector<double>& umeans, double alpha) {
  std::vector<double> out(umeans.size());
  for (std::size_t i = 0; i < umeans.size(); ++i) {
    out[i] = component_loss(u, umeans[i], alpha);
  }
  return out;
}

const std::vector<double> kUmeans{1.0, 0.8, 0.6, 0.4, 0.2, 0.0};

/// One Eq. 3/4 update of `t` from unblended per-level losses: pre-blend the
/// rows the way QuantizedLossTable does and run the fused update.
PairIndex update(WeightTable& t, const std::vector<double>& core_losses,
                 const std::vector<double>& mem_losses, double phi, double beta,
                 double weight_floor) {
  std::vector<double> scl(core_losses.size()), sml(mem_losses.size());
  for (std::size_t i = 0; i < scl.size(); ++i) scl[i] = phi * core_losses[i];
  for (std::size_t j = 0; j < sml.size(); ++j) sml[j] = (1.0 - phi) * mem_losses[j];
  return t.update_fused(scl.data(), sml.data(), 1.0 - beta, weight_floor);
}

TEST(WeightTable, StartsUniform) {
  WeightTable t(6, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) EXPECT_DOUBLE_EQ(t.weight(i, j), 1.0);
  }
}

TEST(WeightTable, ZeroDimensionThrows) {
  EXPECT_THROW(WeightTable(0, 6), std::invalid_argument);
  EXPECT_THROW(WeightTable(6, 0), std::invalid_argument);
}

TEST(WeightTable, IndexOutOfRangeThrows) {
  WeightTable t(2, 3);
  EXPECT_THROW((void)t.weight(2, 0), std::out_of_range);
  EXPECT_THROW((void)t.weight(0, 3), std::out_of_range);
}

TEST(WeightTable, LossSizeMismatchThrows) {
  // The fused update takes unchecked row pointers; the vector-taking
  // updates — the straight-line oracle's and the Q0.8 table's — check sizes.
  oracle::Weights t(6, 6);
  EXPECT_THROW(t.update({0.1}, std::vector<double>(6, 0.1), 0.3, 0.2, 1e-9),
               std::invalid_argument);
  FixedWeightTable q(6, 6);
  EXPECT_THROW(q.update(std::vector<double>(6, 0.1), {0.1}, 0.3, 0.2),
               std::invalid_argument);
}

TEST(WeightTable, InitialArgmaxIsPeakPair) {
  // Zero losses keep the weights uniform, and uniform weights tie-break
  // toward the performance-safe peak pair.
  WeightTable t(6, 6);
  const PairIndex p =
      update(t, std::vector<double>(6, 0.0), std::vector<double>(6, 0.0), 0.3, 0.2, 1e-9);
  EXPECT_EQ(p.core, 0u);
  EXPECT_EQ(p.mem, 0u);
  EXPECT_DOUBLE_EQ(t.weight(5, 5), 1.0);
}

TEST(WeightTable, ArgmaxSelectsMinimalLossPair) {
  WeightTable t(6, 6);
  // Utilizations 0.6 core / 0.4 mem: the zero-loss pair is (2, 3).
  const auto cl = losses_for(0.6, kUmeans, 0.15);
  const auto ml = losses_for(0.4, kUmeans, 0.02);
  const PairIndex p = update(t, cl, ml, 0.3, 0.2, 1e-9);
  EXPECT_EQ(p.core, 2u);
  EXPECT_EQ(p.mem, 3u);
}

TEST(WeightTable, MaxWeightRenormalizedToOne) {
  WeightTable t(6, 6);
  for (int k = 0; k < 50; ++k) {
    update(t, losses_for(0.6, kUmeans, 0.15), losses_for(0.4, kUmeans, 0.02), 0.3, 0.2,
           1e-9);
  }
  EXPECT_DOUBLE_EQ(t.weight(2, 3), 1.0);  // zero-loss pair stays at 1
}

TEST(WeightTable, FloorBoundsWorstWeight) {
  WeightTable t(6, 6);
  for (int k = 0; k < 500; ++k) {
    update(t, losses_for(1.0, kUmeans, 0.15), losses_for(1.0, kUmeans, 0.02), 0.3, 0.2,
           1e-2);
  }
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) EXPECT_GE(t.weight(i, j), 1e-2);
  }
}

TEST(WeightTable, AdaptsWhenUtilizationChanges) {
  WeightTable t(6, 6);
  // Learn a low-utilization phase...
  PairIndex p;
  for (int k = 0; k < 20; ++k) {
    p = update(t, losses_for(0.2, kUmeans, 0.15), losses_for(0.2, kUmeans, 0.02), 0.3,
               0.2, 1e-2);
  }
  EXPECT_EQ(p.core, 4u);
  // ...then a high-utilization phase takes over quickly because performance
  // losses are weighted heavily.
  for (int k = 0; k < 10; ++k) {
    p = update(t, losses_for(1.0, kUmeans, 0.15), losses_for(1.0, kUmeans, 0.02), 0.3,
               0.2, 1e-2);
  }
  EXPECT_EQ(p.core, 0u);
  EXPECT_EQ(p.mem, 0u);
}

TEST(WeightTable, ResetRestoresUniform) {
  WeightTable t(3, 3);
  update(t, {0.5, 0.1, 0.9}, {0.2, 0.3, 0.4}, 0.3, 0.2, 1e-9);
  t.reset();
  EXPECT_DOUBLE_EQ(t.weight(2, 2), 1.0);
}

// --- Fixed-point variant ---------------------------------------------------

TEST(FixedWeightTable, StorageIs36BytesFor6x6) {
  // Section VI: "we only need a 36 bytes table (6x6x8)".
  FixedWeightTable t(6, 6);
  EXPECT_EQ(t.storage_bytes(), 36u);
}

TEST(FixedWeightTable, StartsSaturated) {
  FixedWeightTable t(6, 6);
  EXPECT_EQ(t.weight(0, 0), UQ08::one());
}

TEST(FixedWeightTable, TracksDoubleTableWithinQuantizationLimits) {
  // Section VI claims 8-bit precision is "accurate enough for the purpose of
  // picking up the largest weight".  Reproduction finding: that holds
  // exactly for the core dimension (alpha_c = 0.15 yields losses well above
  // one LSB), but the memory dimension's alpha_m = 0.02 produces per-step
  // losses below the Q0.8 LSB, so the 8-bit table resolves memory levels
  // only coarsely — and, with truncating arithmetic, always errs toward the
  // HIGHER frequency (the performance-safe side).  See EXPERIMENTS.md.
  const double utils[][2] = {{0.6, 0.4}, {0.9, 0.8}, {0.2, 0.1}, {1.0, 1.0},
                             {0.45, 0.7}, {0.0, 0.0}};
  for (const auto& u : utils) {
    WeightTable dbl(6, 6);
    FixedWeightTable fix(6, 6);
    const auto cl = losses_for(u[0], kUmeans, 0.15);
    const auto ml = losses_for(u[1], kUmeans, 0.02);
    PairIndex a;
    for (int k = 0; k < 8; ++k) {
      a = update(dbl, cl, ml, 0.3, 0.2, 1e-2);
      fix.update(cl, ml, 0.3, 0.2);
    }
    const PairIndex b = fix.argmax();
    EXPECT_EQ(a.core, b.core) << "u_core=" << u[0] << " u_mem=" << u[1];
    // Memory: never over-throttled, and within two levels of the double
    // table's choice.
    EXPECT_LE(b.mem, a.mem) << "u_core=" << u[0] << " u_mem=" << u[1];
    EXPECT_LE(a.mem - b.mem, 2u) << "u_core=" << u[0] << " u_mem=" << u[1];
  }
}

TEST(FixedWeightTable, RenormalizationPreservesOrder) {
  FixedWeightTable t(6, 6);
  // Heavy uniform losses force repeated doubling renormalizations.
  for (int k = 0; k < 100; ++k) {
    t.update(losses_for(0.5, kUmeans, 0.15), losses_for(0.5, kUmeans, 0.02), 0.3, 0.2);
  }
  // The best pair for u = 0.5 is core umean 0.6 (index 2); mem conservative
  // side picks umean 0.6 as well.
  const PairIndex p = t.argmax();
  EXPECT_EQ(p.core, 2u);
  // Weights must stay in a representable, ordered state.
  EXPECT_GT(t.weight(p.core, p.mem).raw(), 127);
}

TEST(WeightTable, SnapshotRoundTripIsBitIdentical) {
  WeightTable t(6, 6);
  for (int k = 0; k < 5; ++k) {
    update(t, losses_for(0.55, kUmeans, 0.15), losses_for(0.3, kUmeans, 0.02), 0.3, 0.2,
           1e-9);
  }
  common::SnapshotWriter w;
  t.save(w);
  WeightTable restored(6, 6);
  common::SnapshotReader r = common::SnapshotReader::from_payload(w.payload());
  restored.load(r);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(t.weight(i, j), restored.weight(i, j));
    }
  }
  // The restored table continues the same learning.
  const auto cl = losses_for(0.7, kUmeans, 0.15);
  const auto ml = losses_for(0.2, kUmeans, 0.02);
  EXPECT_EQ(update(t, cl, ml, 0.3, 0.2, 1e-9), update(restored, cl, ml, 0.3, 0.2, 1e-9));
  EXPECT_EQ(t.weight(3, 4), restored.weight(3, 4));
}

TEST(WeightTable, SnapshotDimensionMismatchThrows) {
  WeightTable t(6, 6);
  common::SnapshotWriter w;
  t.save(w);
  WeightTable other(4, 6);
  common::SnapshotReader r = common::SnapshotReader::from_payload(w.payload());
  EXPECT_THROW(other.load(r), common::SnapshotError);
}

TEST(FixedWeightTable, SnapshotRoundTripsRawEntries) {
  FixedWeightTable t(6, 6);
  for (int k = 0; k < 5; ++k) {
    t.update(losses_for(0.5, kUmeans, 0.15), losses_for(0.5, kUmeans, 0.02), 0.3, 0.2);
  }
  common::SnapshotWriter w;
  t.save(w);
  FixedWeightTable restored(6, 6);
  common::SnapshotReader r = common::SnapshotReader::from_payload(w.payload());
  restored.load(r);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(t.weight(i, j).raw(), restored.weight(i, j).raw());
    }
  }
  FixedWeightTable mismatch(6, 3);
  common::SnapshotReader r2 = common::SnapshotReader::from_payload(w.payload());
  EXPECT_THROW(mismatch.load(r2), common::SnapshotError);
}

TEST(FixedWeightTable, AllZeroRecoversToUniform) {
  FixedWeightTable t(2, 2);
  // Maximal loss drives everything to zero quickly; table must self-reset
  // rather than dead-lock at all-zero.
  for (int k = 0; k < 200; ++k) {
    t.update({1.0, 1.0}, {1.0, 1.0}, 0.5, 0.2);
  }
  EXPECT_GT(t.weight(0, 0).raw(), 0);
}

}  // namespace
}  // namespace gg::greengpu

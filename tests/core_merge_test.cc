// Merge semantics: distributed aggregation of sketches (§1-2 motivation;
// see ItemsetState::Merge for the exact semantics).

#include <gtest/gtest.h>

#include "baseline/exact_counter.h"
#include "core/nips_ci_ensemble.h"
#include "util/random.h"

namespace implistat {
namespace {

ImplicationConditions Cond(uint32_t k, uint64_t sigma, double gamma,
                           uint32_t c, bool strict = true) {
  ImplicationConditions cond;
  cond.max_multiplicity = k;
  cond.min_support = sigma;
  cond.min_top_confidence = gamma;
  cond.confidence_c = c;
  cond.strict_multiplicity = strict;
  return cond;
}

TEST(ItemsetStateMergeTest, SupportsAdd) {
  auto cond = Cond(2, 100, 0.5, 1);
  ItemsetState a, b;
  for (int i = 0; i < 3; ++i) a.Observe(1, cond);
  for (int i = 0; i < 5; ++i) b.Observe(1, cond);
  a.Merge(b, cond);
  EXPECT_EQ(a.support(), 8u);
  EXPECT_DOUBLE_EQ(a.TopConfidence(1), 1.0);
}

TEST(ItemsetStateMergeTest, PairCountersCombine) {
  auto cond = Cond(3, 100, 0.5, 2);
  ItemsetState a, b;
  a.Observe(10, cond);
  a.Observe(11, cond);
  b.Observe(10, cond);
  b.Observe(12, cond);
  a.Merge(b, cond);
  EXPECT_EQ(a.support(), 4u);
  EXPECT_EQ(a.multiplicity(), 3u);
  // counts: b=10 → 2, b=11 → 1, b=12 → 1; top-2 = 3/4.
  EXPECT_DOUBLE_EQ(a.TopConfidence(2), 0.75);
}

TEST(ItemsetStateMergeTest, DirtyIsInfectious) {
  auto cond = Cond(1, 1, 1.0, 1);
  ItemsetState clean, dirty;
  clean.Observe(1, cond);
  dirty.Observe(1, cond);
  dirty.Observe(2, cond);
  ASSERT_TRUE(dirty.dirty());
  clean.Merge(dirty, cond);
  EXPECT_TRUE(clean.dirty());
}

TEST(ItemsetStateMergeTest, MergedCountersCanViolateConditions) {
  // Locally clean on both nodes (one b each, below nothing), globally a
  // multiplicity violation once combined.
  auto cond = Cond(1, 1, 1.0, 1);
  ItemsetState a, b;
  a.Observe(10, cond);
  b.Observe(11, cond);
  ASSERT_FALSE(a.dirty());
  ASSERT_FALSE(b.dirty());
  a.Merge(b, cond);
  EXPECT_TRUE(a.dirty());
}

TEST(ItemsetStateMergeTest, MergedConfidenceReEvaluated) {
  auto cond = Cond(5, 4, 0.9, 1);
  ItemsetState a, b;
  a.Observe(1, cond);
  a.Observe(1, cond);
  b.Observe(2, cond);
  b.Observe(2, cond);
  // Each side: support 2 < σ=4, clean. Merged: support 4, top-1 = 2/4.
  a.Merge(b, cond);
  EXPECT_TRUE(a.dirty());
}

TEST(FringeCellMergeTest, ReportsNonImplicationAcrossNodes) {
  auto cond = Cond(1, 1, 1.0, 1);
  FringeCell x, y;
  x.Observe(7, 10, cond);
  y.Observe(7, 11, cond);
  EXPECT_EQ(x.Merge(y, cond), FringeCell::Outcome::kNonImplication);
}

TEST(FringeCellMergeTest, DisjointItemsetsUnion) {
  auto cond = Cond(1, 2, 1.0, 1);
  FringeCell x, y;
  x.Observe(1, 10, cond);
  y.Observe(2, 20, cond);
  EXPECT_EQ(x.Merge(y, cond), FringeCell::Outcome::kUndecided);
  EXPECT_EQ(x.num_itemsets(), 2u);
}

NipsCiOptions Opts(uint64_t seed) {
  NipsCiOptions opts;
  opts.seed = seed;
  return opts;
}

// The central distributed property: splitting a stream across nodes and
// merging their sketches answers like one node that saw everything, on
// workloads whose itemsets are either always-loyal or violating-on-every-
// node (where the node-local-prefix semantics coincide exactly).
TEST(NipsCiMergeTest, ShardedStreamMatchesSingleNode) {
  auto cond = Cond(1, 2, 1.0, 1);
  NipsCi single(cond, Opts(5));
  NipsCi node_a(cond, Opts(5));
  NipsCi node_b(cond, Opts(5));
  Rng rng(3);
  for (ItemsetKey a = 0; a < 3000; ++a) {
    bool loyal = a % 3 != 0;
    for (int occurrence = 0; occurrence < 4; ++occurrence) {
      // Violators alternate partners within every node's share.
      ItemsetKey b = loyal ? 1 : (occurrence % 2 ? 2 : 3);
      single.Observe(a, b);
      (rng.Bernoulli(0.5) ? node_a : node_b).Observe(a, b);
    }
  }
  ASSERT_TRUE(node_a.Merge(node_b).ok());
  EXPECT_NEAR(node_a.EstimateImplicationCount(),
              single.EstimateImplicationCount(),
              single.EstimateImplicationCount() * 0.15 + 8);
  EXPECT_NEAR(node_a.EstimateNonImplicationCount(),
              single.EstimateNonImplicationCount(),
              single.EstimateNonImplicationCount() * 0.15 + 8);
}

TEST(NipsCiMergeTest, MergeAccumulatesAcrossManyNodes) {
  auto cond = Cond(1, 2, 1.0, 1);
  NipsCi aggregate(cond, Opts(9));
  constexpr int kNodes = 8;
  constexpr uint64_t kPerNode = 500;
  for (int node = 0; node < kNodes; ++node) {
    NipsCi local(cond, Opts(9));
    for (uint64_t i = 0; i < kPerNode; ++i) {
      ItemsetKey a = node * kPerNode + i;  // disjoint itemsets per node
      local.Observe(a, 1);
      local.Observe(a, 1);
    }
    ASSERT_TRUE(aggregate.Merge(local).ok());
  }
  EXPECT_NEAR(aggregate.EstimateImplicationCount(), kNodes * kPerNode,
              kNodes * kPerNode * 0.25);
}

TEST(NipsCiMergeTest, BudgetHoldsAfterMerge) {
  auto cond = Cond(1, 5, 1.0, 1);
  NipsCi a(cond, Opts(1));
  NipsCi b(cond, Opts(1));
  for (ItemsetKey key = 0; key < 50000; ++key) {
    (key % 2 ? a : b).Observe(key, 1);
  }
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_LE(a.TrackedItemsets(), 1920u);
}

TEST(NipsCiMergeTest, RejectsIncompatibleEnsembles) {
  auto cond = Cond(1, 2, 1.0, 1);
  NipsCi a(cond, Opts(1));
  NipsCi different_seed(cond, Opts(2));
  EXPECT_FALSE(a.Merge(different_seed).ok());

  NipsCi different_cond(Cond(2, 2, 1.0, 1), Opts(1));
  EXPECT_FALSE(a.Merge(different_cond).ok());

  NipsCiOptions fewer;
  fewer.num_bitmaps = 32;
  fewer.seed = 1;
  NipsCi different_shape(cond, fewer);
  EXPECT_FALSE(a.Merge(different_shape).ok());
}

// A refused merge mutates nothing: not the bitmaps, and not the delta
// baselines a receiver may still be polling against.
TEST(NipsCiMergeTest, RefusedMergeLeavesTargetUntouched) {
  auto cond = Cond(1, 2, 1.0, 1);
  NipsCi target(cond, Opts(3));
  NipsCiOptions other_fringe = Opts(3);
  other_fringe.nips.fringe_size = 5;
  NipsCi other(cond, other_fringe);
  for (ItemsetKey a = 0; a < 500; ++a) {
    target.Observe(a, a % 2);
    other.Observe(a, a % 3);
  }
  target.NoteSnapshotEpoch(1);
  target.Observe(7, 9);
  const std::string before = target.Serialize();
  EXPECT_FALSE(target.Merge(other).ok());
  EXPECT_EQ(target.Serialize(), before);
  EXPECT_TRUE(target.SerializeDelta(1, 2).ok())
      << "a refused merge dropped the delta baselines";
}

TEST(NipsCiMergeTest, MergeWithEmptyIsIdentity) {
  auto cond = Cond(1, 2, 1.0, 1);
  NipsCi loaded(cond, Opts(4));
  NipsCi empty(cond, Opts(4));
  for (ItemsetKey a = 0; a < 1000; ++a) {
    loaded.Observe(a, 1);
    loaded.Observe(a, 1);
  }
  double before = loaded.EstimateImplicationCount();
  ASSERT_TRUE(loaded.Merge(empty).ok());
  EXPECT_DOUBLE_EQ(loaded.EstimateImplicationCount(), before);
}

}  // namespace
}  // namespace implistat

#include "core/conditions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

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

TEST(ConditionsTest, ValidateAcceptsReasonable) {
  EXPECT_TRUE(Cond(1, 1, 1.0, 1).Validate().ok());
  EXPECT_TRUE(Cond(10, 50, 0.8, 2).Validate().ok());
}

TEST(ConditionsTest, ValidateRejectsDegenerate) {
  EXPECT_FALSE(Cond(0, 1, 1.0, 1).Validate().ok());
  EXPECT_FALSE(Cond(1, 0, 1.0, 1).Validate().ok());
  EXPECT_FALSE(Cond(1, 1, 0.0, 1).Validate().ok());
  EXPECT_FALSE(Cond(1, 1, 1.5, 1).Validate().ok());
  EXPECT_FALSE(Cond(1, 1, 1.0, 0).Validate().ok());
}

TEST(ItemsetStateTest, PureOneToOneImplies) {
  auto cond = Cond(1, 3, 1.0, 1);
  ItemsetState state;
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(state.Observe(/*b=*/7, cond));
  }
  EXPECT_TRUE(state.supported(cond));
  EXPECT_FALSE(state.dirty());
  EXPECT_EQ(state.support(), 5u);
  EXPECT_EQ(state.multiplicity(), 1u);
  EXPECT_DOUBLE_EQ(state.TopConfidence(1), 1.0);
}

TEST(ItemsetStateTest, NotSupportedIsNeverDirty) {
  auto cond = Cond(1, 100, 1.0, 1);
  ItemsetState state;
  // Wild multiplicity, but support stays below σ: not dirty.
  for (ItemsetKey b = 0; b < 50; ++b) EXPECT_FALSE(state.Observe(b, cond));
  EXPECT_FALSE(state.supported(cond));
  EXPECT_FALSE(state.dirty());
}

TEST(ItemsetStateTest, StrictMultiplicityViolationDirties) {
  auto cond = Cond(2, 1, 0.01, 1, /*strict=*/true);
  ItemsetState state;
  EXPECT_FALSE(state.Observe(1, cond));
  EXPECT_FALSE(state.Observe(2, cond));
  // Third distinct b: K = 2 exceeded while supported → dirty, despite the
  // permissive confidence threshold.
  EXPECT_TRUE(state.Observe(3, cond));
  EXPECT_TRUE(state.dirty());
  EXPECT_EQ(state.multiplicity(), 3u);  // saturated at K+1
}

TEST(ItemsetStateTest, NonStrictMultiplicityOnlyBoundsTracking) {
  auto cond = Cond(2, 1, 0.01, 2, /*strict=*/false);
  ItemsetState state;
  EXPECT_FALSE(state.Observe(1, cond));
  EXPECT_FALSE(state.Observe(2, cond));
  EXPECT_FALSE(state.Observe(3, cond));  // not dirty: K is a tracking bound
  EXPECT_FALSE(state.dirty());
}

TEST(ItemsetStateTest, ConfidenceViolationDirties) {
  // γ = 0.9 at c=1, σ=4: two b's at 50/50 → top-1 conf 0.5 < 0.9.
  auto cond = Cond(5, 4, 0.9, 1);
  ItemsetState state;
  state.Observe(1, cond);
  state.Observe(2, cond);
  state.Observe(1, cond);
  EXPECT_FALSE(state.dirty());  // support 3 < σ=4, check not armed yet
  EXPECT_TRUE(state.Observe(2, cond));
  EXPECT_TRUE(state.dirty());
}

TEST(ItemsetStateTest, DirtyIsMonotone) {
  auto cond = Cond(5, 2, 0.9, 1);
  ItemsetState state;
  state.Observe(1, cond);
  state.Observe(2, cond);  // conf 0.5 at support 2 → dirty
  ASSERT_TRUE(state.dirty());
  // A long loyal suffix cannot rehabilitate it (§3.1.1).
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(state.Observe(1, cond));
  EXPECT_TRUE(state.dirty());
}

TEST(ItemsetStateTest, TopConfidenceSumsTopC) {
  // The paper's P2P example: confidences {2/4, 1/4, 1/4};
  // γ_1 = 50%, γ_2 = 75%, γ_3 = 100%.
  auto cond = Cond(5, 100, 0.5, 3);  // high σ: never dirty here
  ItemsetState state;
  state.Observe(/*S1*/ 1, cond);
  state.Observe(1, cond);
  state.Observe(/*S2*/ 2, cond);
  state.Observe(/*S3*/ 3, cond);
  EXPECT_DOUBLE_EQ(state.TopConfidence(1), 0.5);
  EXPECT_DOUBLE_EQ(state.TopConfidence(2), 0.75);
  EXPECT_DOUBLE_EQ(state.TopConfidence(3), 1.0);
  EXPECT_DOUBLE_EQ(state.TopConfidence(10), 1.0);  // c beyond distinct b's
}

TEST(ItemsetStateTest, BoundaryConfidencePasses) {
  // conf == γ exactly must pass (the check is "< γ" with a small epsilon).
  auto cond = Cond(5, 10, 0.8, 1);
  ItemsetState state;
  for (int i = 0; i < 8; ++i) state.Observe(1, cond);
  for (int i = 0; i < 2; ++i) state.Observe(2, cond);
  // support 10, top-1 = 8/10 = 0.8 == γ.
  EXPECT_FALSE(state.dirty());
}

TEST(ItemsetStateTest, NonStrictEvictionKeepsHeavyCounters) {
  // K = 1 tracking slot; the heavy b must survive singleton interlopers.
  auto cond = Cond(1, 1000, 0.9, 1, /*strict=*/false);
  ItemsetState state;
  state.Observe(100, cond);  // heavy b enters
  state.Observe(100, cond);  // count 2: now immune to eviction
  for (ItemsetKey noise = 0; noise < 10; ++noise) {
    state.Observe(noise, cond);  // ten singleton b's
    state.Observe(100, cond);
  }
  // top-1 confidence must reflect the heavy counter: 12/22 of arrivals.
  EXPECT_NEAR(state.TopConfidence(1), 12.0 / 22.0, 1e-9);
}

TEST(ItemsetStateTest, NonStrictEvictionReplacesSingleton) {
  auto cond = Cond(1, 1000, 0.9, 1, /*strict=*/false);
  ItemsetState state;
  state.Observe(1, cond);  // slot: b=1 count 1
  state.Observe(2, cond);  // evicts the count-1 entry
  state.Observe(2, cond);
  state.Observe(2, cond);
  EXPECT_NEAR(state.TopConfidence(1), 3.0 / 4.0, 1e-9);
}

TEST(ItemsetStateTest, MemoryStaysSmallAfterDirty) {
  auto cond = Cond(3, 1, 0.99, 1);
  ItemsetState state;
  for (ItemsetKey b = 0; b < 100; ++b) state.Observe(b, cond);
  ASSERT_TRUE(state.dirty());
  EXPECT_LE(state.MemoryBytes(), sizeof(ItemsetState) + 16);
}

TEST(ItemsetStateTest, SupportCountsAllArrivalsIncludingUntracked) {
  auto cond = Cond(1, 1, 0.01, 1, /*strict=*/false);
  ItemsetState state;
  for (ItemsetKey b = 0; b < 7; ++b) state.Observe(b, cond);
  EXPECT_EQ(state.support(), 7u);
}

// TopConfidence against a sort-based reference, across the three ways it
// sums the top c counts (c at or past the counter count, a small c, and a
// c large enough to bisect), with heavy ties among the counts.
TEST(ItemsetStateTest, TopConfidenceMatchesSortedReference) {
  // A support bound never reached keeps every state clean, so all the
  // counters stay (unlimited tracking keeps one per distinct b).
  auto cond = Cond(1, uint64_t{1} << 40, 1.0, 1, /*strict=*/false);
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    ItemsetState state(/*unlimited_tracking=*/true);
    std::vector<uint64_t> counts(1 + rng.Uniform(60), 0);
    const uint64_t spread = 1 + rng.Uniform(6);
    for (int i = 0; i < 400; ++i) {
      const ItemsetKey b = rng.Uniform(counts.size());
      if (rng.Uniform(spread) == 0 || counts[b] == 0) {
        state.Observe(b, cond);
        ++counts[b];
      }
    }
    std::vector<uint64_t> seen;
    for (uint64_t n : counts) {
      if (n > 0) seen.push_back(n);
    }
    std::sort(seen.begin(), seen.end(), std::greater<uint64_t>());
    for (uint32_t c : {1u, 2u, 3u, 8u, 9u, 17u, 40u, 100u}) {
      uint64_t sum = 0;
      for (size_t i = 0; i < std::min<size_t>(c, seen.size()); ++i) {
        sum += seen[i];
      }
      EXPECT_EQ(state.TopConfidence(c),
                static_cast<double>(sum) /
                    static_cast<double>(state.support()))
          << "trial " << trial << " c=" << c;
    }
  }
}

std::string Encode(const ItemsetState& state) {
  ByteWriter out;
  state.SerializeTo(&out);
  return out.Release();
}

// Zero, one (inline) and several (spilled) pair counters survive copies,
// moves and a wire round trip with their order intact.
TEST(ItemsetStateTest, CopiesMovesAndRoundTripsKeepEveryCounter) {
  auto cond = Cond(4, 1000, 0.5, 2, /*strict=*/false);
  for (ItemsetKey partners : {0u, 1u, 2u, 3u, 4u, 9u}) {
    ItemsetState state;
    for (ItemsetKey b = 0; b < partners; ++b) {
      for (ItemsetKey rep = 0; rep <= b; ++rep) state.Observe(10 + b, cond);
    }
    const std::string bytes = Encode(state);

    ItemsetState copy(state);
    EXPECT_EQ(Encode(copy), bytes);
    ItemsetState assigned;
    assigned.Observe(99, cond);
    assigned = copy;
    EXPECT_EQ(Encode(assigned), bytes);
    ItemsetState moved(std::move(copy));
    EXPECT_EQ(Encode(moved), bytes);
    ItemsetState move_assigned;
    move_assigned.Observe(98, cond);
    move_assigned = std::move(moved);
    EXPECT_EQ(Encode(move_assigned), bytes);

    ByteReader in(bytes);
    auto decoded = ItemsetState::Deserialize(&in);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(Encode(*decoded), bytes);
    EXPECT_EQ(decoded->TopConfidence(2), state.TopConfidence(2));
  }
}

// At K = 1 the single pair counter is inline: no heap beyond the state.
TEST(ItemsetStateTest, SinglePairStateHoldsNoHeap) {
  auto cond = Cond(1, 1000, 1.0, 1, /*strict=*/false);
  ItemsetState state;
  for (int i = 0; i < 10; ++i) state.Observe(5, cond);
  EXPECT_EQ(state.MemoryBytes(), sizeof(ItemsetState));
  state.Observe(6, cond);  // K = 1: evicts nothing, keeps one counter
  EXPECT_EQ(state.MemoryBytes(), sizeof(ItemsetState));
}

}  // namespace
}  // namespace implistat

#include "core/fringe_cell.h"

#include <gtest/gtest.h>

#include <string>

namespace implistat {
namespace {

ImplicationConditions OneToOne(uint64_t sigma) {
  ImplicationConditions cond;
  cond.max_multiplicity = 1;
  cond.min_support = sigma;
  cond.min_top_confidence = 1.0;
  cond.confidence_c = 1;
  return cond;
}

TEST(FringeCellTest, TracksMultipleItemsets) {
  FringeCell cell;
  auto cond = OneToOne(100);
  for (ItemsetKey a = 0; a < 5; ++a) {
    EXPECT_EQ(cell.Observe(a, /*b=*/a + 100, cond),
              FringeCell::Outcome::kUndecided);
  }
  EXPECT_EQ(cell.num_itemsets(), 5u);
}

TEST(FringeCellTest, ReportsNonImplication) {
  FringeCell cell;
  auto cond = OneToOne(1);
  EXPECT_EQ(cell.Observe(1, 10, cond), FringeCell::Outcome::kUndecided);
  // Second distinct b for itemset 1 with K = 1 and σ = 1 → dirty.
  EXPECT_EQ(cell.Observe(1, 11, cond),
            FringeCell::Outcome::kNonImplication);
}

TEST(FringeCellTest, SupportedFlagLatches) {
  FringeCell cell;
  auto cond = OneToOne(3);
  cell.Observe(1, 10, cond);
  cell.Observe(1, 10, cond);
  EXPECT_FALSE(cell.has_supported());
  cell.Observe(1, 10, cond);
  EXPECT_TRUE(cell.has_supported());
  // Another itemset's arrival does not reset it.
  cell.Observe(2, 20, cond);
  EXPECT_TRUE(cell.has_supported());
}

TEST(FringeCellTest, IndependentItemsets) {
  FringeCell cell;
  auto cond = OneToOne(1);
  cell.Observe(1, 10, cond);
  // Itemset 2 going dirty must not implicate itemset 1.
  cell.Observe(2, 20, cond);
  EXPECT_EQ(cell.Observe(2, 21, cond),
            FringeCell::Outcome::kNonImplication);
  EXPECT_EQ(cell.Observe(1, 10, cond), FringeCell::Outcome::kUndecided);
}

TEST(FringeCellTest, MemoryGrowsWithItemsets) {
  FringeCell cell;
  auto cond = OneToOne(100);
  size_t empty = cell.MemoryBytes();
  for (ItemsetKey a = 0; a < 32; ++a) cell.Observe(a, 1000, cond);
  EXPECT_GT(cell.MemoryBytes(), empty);
}

// Our writers emit itemsets in strictly increasing key order; a foreign
// snapshot may not. Decoding canonicalizes it: keys sorted, and the first
// occurrence of a duplicated key wins.
TEST(FringeCellTest, DeserializeCanonicalizesForeignKeyOrder) {
  auto cond = OneToOne(100);
  ItemsetState once, twice;
  once.Observe(1000, cond);
  twice.Observe(1000, cond);
  twice.Observe(1000, cond);
  ByteWriter foreign;
  foreign.PutBool(false);
  foreign.PutVarint64(3);
  foreign.PutU64(9);
  twice.SerializeTo(&foreign);
  foreign.PutU64(4);
  once.SerializeTo(&foreign);
  foreign.PutU64(9);  // duplicate: dropped
  once.SerializeTo(&foreign);
  ByteReader in(foreign.str());
  auto cell = FringeCell::Deserialize(&in);
  ASSERT_TRUE(cell.ok()) << cell.status().message();
  EXPECT_TRUE(in.AtEnd());
  EXPECT_EQ(cell->num_itemsets(), 2u);

  ByteWriter canonical;
  canonical.PutBool(false);
  canonical.PutVarint64(2);
  canonical.PutU64(4);
  once.SerializeTo(&canonical);
  canonical.PutU64(9);
  twice.SerializeTo(&canonical);
  ByteWriter out;
  cell->SerializeTo(&out);
  EXPECT_EQ(out.str(), canonical.str());
}

}  // namespace
}  // namespace implistat

#include "core/nips.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/random.h"
#include "util/serde.h"

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

NipsOptions Bounded(int fringe = 4, int factor = 2) {
  NipsOptions opts;
  opts.fringe_size = fringe;
  opts.capacity_factor = factor;
  opts.bitmap_bits = 32;
  return opts;
}

NipsOptions Unbounded() {
  NipsOptions opts;
  opts.fringe_size = 0;
  opts.bitmap_bits = 32;
  return opts;
}

TEST(NipsTest, FreshBitmapHasZeroPositions) {
  Nips nips(OneToOne(1), Bounded());
  EXPECT_EQ(nips.RNonImplication(), 0);
  EXPECT_EQ(nips.RSupport(), 0);
  EXPECT_EQ(nips.fringe_right(), -1);
  EXPECT_EQ(nips.fringe_left(), 0);
}

TEST(NipsTest, ItemBudgetFollowsFringeSize) {
  EXPECT_EQ(Nips(OneToOne(1), Bounded(4, 2)).ItemBudget(), 30u);
  EXPECT_EQ(Nips(OneToOne(1), Bounded(8, 2)).ItemBudget(), 510u);
  EXPECT_EQ(Nips(OneToOne(1), Bounded(4, 1)).ItemBudget(), 15u);
  EXPECT_EQ(Nips(OneToOne(1), Unbounded()).ItemBudget(), 0u);
}

TEST(NipsTest, FringeRightTracksRightmostHashedCell) {
  Nips nips(OneToOne(1), Bounded());
  nips.ObserveAt(10, /*a=*/1, /*b=*/1);
  EXPECT_EQ(nips.fringe_right(), 10);
  nips.ObserveAt(4, 2, 1);
  EXPECT_EQ(nips.fringe_right(), 10);
  nips.ObserveAt(12, 3, 1);
  EXPECT_EQ(nips.fringe_right(), 12);
}

TEST(NipsTest, NoForcingWhileWithinBudget) {
  // Budget 30: a handful of itemsets spread over cells stays untouched.
  Nips nips(OneToOne(1000), Bounded(4, 2));
  for (int cell = 0; cell < 10; ++cell) {
    nips.ObserveAt(cell, 100 + cell, 1);
  }
  EXPECT_EQ(nips.TrackedItemsets(), 10u);
  EXPECT_EQ(nips.fringe_left(), 0);
  EXPECT_EQ(nips.RNonImplication(), 0);
}

TEST(NipsTest, BudgetPressureForcesLeftmostCells) {
  // Budget 1·(2^1 − 1) = 1 itemset: a second tracked itemset forces the
  // prefix up to (and including) the first populated cell.
  Nips nips(OneToOne(1000), Bounded(1, 1));
  nips.ObserveAt(5, 1, 1);
  EXPECT_EQ(nips.TrackedItemsets(), 1u);
  nips.ObserveAt(3, 2, 1);
  // Cells 0..3 forced to one (freeing itemset 2), budget satisfied again.
  EXPECT_EQ(nips.TrackedItemsets(), 1u);
  EXPECT_EQ(nips.fringe_left(), 4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(nips.CellIsOne(i)) << i;
  EXPECT_FALSE(nips.CellIsOne(4));
  EXPECT_EQ(nips.RNonImplication(), 4);
}

TEST(NipsTest, ObservationsBelowForcedZoneAreDropped) {
  Nips nips(OneToOne(1000), Bounded(1, 1));
  nips.ObserveAt(5, 1, 1);
  nips.ObserveAt(3, 2, 1);  // forces cells 0..3 (see above)
  ASSERT_EQ(nips.fringe_left(), 4);
  nips.ObserveAt(2, 3, 1);  // lands in Zone-1: already recorded as 1
  EXPECT_EQ(nips.TrackedItemsets(), 1u);
  EXPECT_TRUE(nips.CellIsOne(2));
}

TEST(NipsTest, NonImplicationSetsCellToOneAndFrees) {
  Nips nips(OneToOne(1), Bounded(4));
  nips.ObserveAt(2, 1, 10);
  EXPECT_EQ(nips.TrackedItemsets(), 1u);
  nips.ObserveAt(2, 1, 11);  // K=1, second b → non-implication
  EXPECT_TRUE(nips.CellIsOne(2));
  EXPECT_EQ(nips.TrackedItemsets(), 0u);
}

TEST(NipsTest, DecisionsGrowZoneOneOnlyFromTheLeft) {
  Nips nips(OneToOne(1), Bounded(4));
  nips.ObserveAt(2, 1, 10);
  nips.ObserveAt(2, 1, 11);  // cell 2 decided 1
  // Cells 0 and 1 are still zero, so the Zone-1 prefix has not moved.
  EXPECT_EQ(nips.fringe_left(), 0);
  EXPECT_EQ(nips.RNonImplication(), 0);
  nips.ObserveAt(0, 2, 10);
  nips.ObserveAt(0, 2, 11);
  nips.ObserveAt(1, 3, 10);
  nips.ObserveAt(1, 3, 11);
  // Now cells 0,1,2 are all one: the prefix (and R_~S) reaches 3.
  EXPECT_EQ(nips.fringe_left(), 3);
  EXPECT_EQ(nips.RNonImplication(), 3);
}

TEST(NipsTest, RSupportCountsSupportedFringeCells) {
  auto cond = OneToOne(2);
  Nips nips(cond, Bounded(8));
  nips.ObserveAt(2, 1, 1);
  nips.ObserveAt(1, 2, 1);
  nips.ObserveAt(0, 3, 1);
  // No itemset supported yet (σ=2): R_sup stops at cell 0.
  EXPECT_EQ(nips.RSupport(), 0);
  nips.ObserveAt(0, 3, 1);  // support reaches 2 in cell 0
  EXPECT_EQ(nips.RSupport(), 1);
  nips.ObserveAt(1, 2, 1);
  EXPECT_EQ(nips.RSupport(), 2);
  nips.ObserveAt(2, 1, 1);
  EXPECT_EQ(nips.RSupport(), 3);
  // None of them is a non-implication, so R_~S < R_sup.
  EXPECT_EQ(nips.RNonImplication(), 0);
}

TEST(NipsTest, OverflowForcesThroughCrowdedCell) {
  // Budget 1: a second itemset overflows; forcing sweeps the prefix up to
  // and including the crowded cell.
  Nips nips(OneToOne(1000), Bounded(1, 1));
  nips.ObserveAt(6, 1, 1);
  EXPECT_FALSE(nips.CellIsOne(6));
  nips.ObserveAt(6, 2, 1);
  EXPECT_TRUE(nips.CellIsOne(6));
  EXPECT_EQ(nips.TrackedItemsets(), 0u);
  EXPECT_EQ(nips.fringe_left(), 7);
}

TEST(NipsTest, UnboundedFringeNeverForcesCells) {
  Nips nips(OneToOne(1000), Unbounded());
  nips.ObserveAt(0, 1, 1);
  nips.ObserveAt(20, 2, 1);
  EXPECT_EQ(nips.fringe_left(), 0);
  EXPECT_EQ(nips.TrackedItemsets(), 2u);
  // Cell 1 was never hashed: still zero, so R_~S = 0.
  EXPECT_EQ(nips.RNonImplication(), 0);
}

TEST(NipsTest, UnboundedTracksEverythingUntilDecided) {
  Nips nips(OneToOne(1), Unbounded());
  for (int cell = 0; cell < 10; ++cell) {
    nips.ObserveAt(cell, 100 + cell, 1);
  }
  EXPECT_EQ(nips.TrackedItemsets(), 10u);
  for (int cell = 0; cell < 10; ++cell) {
    nips.ObserveAt(cell, 100 + cell, 2);  // all become non-implications
  }
  EXPECT_EQ(nips.TrackedItemsets(), 0u);
  EXPECT_EQ(nips.RNonImplication(), 10);
}

TEST(NipsTest, HashPositionsBeyondBitmapClampToLastCell) {
  auto opts = Bounded(4);
  opts.bitmap_bits = 8;
  Nips nips(OneToOne(1), opts);
  nips.ObserveAt(63, 1, 1);
  EXPECT_EQ(nips.fringe_right(), 7);
}

TEST(NipsTest, ObservationsOnDecidedCellsAreNoOps) {
  Nips nips(OneToOne(1), Bounded(4));
  nips.ObserveAt(3, 1, 10);
  nips.ObserveAt(3, 1, 11);  // decide cell 3
  ASSERT_TRUE(nips.CellIsOne(3));
  nips.ObserveAt(3, 2, 20);  // lands on a decided cell
  EXPECT_EQ(nips.TrackedItemsets(), 0u);
  EXPECT_TRUE(nips.CellIsOne(3));
}

TEST(NipsTest, TrackedItemsetsNeverExceedsBudget) {
  Nips nips(OneToOne(1000), Bounded(4, 2));
  // Adversarial spread: 1000 itemsets over low cells.
  for (int i = 0; i < 1000; ++i) {
    nips.ObserveAt(i % 8, 5000 + i, 1);
  }
  EXPECT_LE(nips.TrackedItemsets(), nips.ItemBudget());
}

TEST(NipsTest, FringeTrafficCountersMatchTrackedItemsets) {
  // Every itemset that enters a fringe leaves it exactly once — evicted
  // by §4.3.3 budget fixation or promoted when its cell settles — so the
  // counter deltas over any workload must balance the live population:
  //   insertions − evictions − promotions == Σ TrackedItemsets().
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "built with IMPLISTAT_METRICS=OFF";
  }
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* insertions = reg.GetCounter("nips_fringe_insertions_total");
  obs::Counter* evictions = reg.GetCounter("nips_fringe_evictions_total");
  obs::Counter* promotions = reg.GetCounter("nips_settled_promotions_total");
  uint64_t ins0 = insertions->Value();
  uint64_t ev0 = evictions->Value();
  uint64_t pr0 = promotions->Value();

  // A budget-pressured bitmap (evictions) plus an unbounded one whose
  // K=1 violations settle cells (promotions), observed interleaved.
  Nips bounded(OneToOne(2), Bounded(4, 2));
  Nips unbounded(OneToOne(1), Unbounded());
  for (int i = 0; i < 5000; ++i) {
    bounded.ObserveAt(i % 16, 1000 + i % 300, i % 5);
    unbounded.ObserveAt(i % 16, 1000 + i % 300, i % 3);
  }

  // TrackedItemsets() is the read boundary that folds each bitmap's
  // batched events into the registry — take it first, then the deltas.
  size_t live = bounded.TrackedItemsets() + unbounded.TrackedItemsets();
  uint64_t inserted = insertions->Value() - ins0;
  uint64_t evicted = evictions->Value() - ev0;
  uint64_t promoted = promotions->Value() - pr0;
  EXPECT_GT(inserted, 0u);
  EXPECT_EQ(inserted - evicted - promoted, live);
}

TEST(NipsTest, MemoryShrinksAsCellsDecide) {
  Nips nips(OneToOne(1), Bounded(8));
  for (int cell = 0; cell < 8; ++cell) {
    nips.ObserveAt(cell, 200 + cell, 1);
  }
  size_t loaded = nips.MemoryBytes();
  for (int cell = 0; cell < 8; ++cell) {
    nips.ObserveAt(cell, 200 + cell, 2);
  }
  EXPECT_LT(nips.MemoryBytes(), loaded);
}

// --- Edge cases of the compact layout (cell masks + live slots) ---------

std::string Bytes(const Nips& nips) {
  ByteWriter out;
  nips.SerializeTo(&out);
  return out.Release();
}

// Per-cell flags as the wire format lists them — a reference independent
// of the in-memory masks.
struct WireCell {
  bool one = false;
  bool supported = false;
  bool has_data = false;
};

std::vector<WireCell> WireCells(const Nips& nips) {
  ByteWriter conditions;
  nips.conditions().SerializeTo(&conditions);
  const std::string bytes = Bytes(nips);
  ByteReader in(bytes);
  std::string_view skipped;
  EXPECT_TRUE(in.ReadBytes(conditions.size() + 5 * sizeof(uint32_t),
                           &skipped).ok());
  std::vector<WireCell> cells(static_cast<size_t>(nips.options().bitmap_bits));
  for (WireCell& cell : cells) {
    EXPECT_TRUE(in.ReadBool(&cell.one).ok());
    EXPECT_TRUE(in.ReadBool(&cell.supported).ok());
    EXPECT_TRUE(in.ReadBool(&cell.has_data).ok());
    if (cell.has_data) {
      EXPECT_TRUE(FringeCell::Deserialize(&in).ok());
    }
  }
  EXPECT_TRUE(in.AtEnd());
  return cells;
}

// The scalar scans the bit-scan readout replaced.
int ReferenceRNonImplication(const Nips& nips) {
  const std::vector<WireCell> cells = WireCells(nips);
  int i = nips.fringe_left();
  while (i < nips.options().bitmap_bits && cells[i].one) ++i;
  return i;
}

int ReferenceRSupport(const Nips& nips) {
  const std::vector<WireCell> cells = WireCells(nips);
  int i = nips.fringe_left();
  while (i < nips.options().bitmap_bits &&
         (cells[i].one || cells[i].supported)) {
    ++i;
  }
  return i;
}

void ExpectRoundTrips(const Nips& nips) {
  const std::string bytes = Bytes(nips);
  ByteReader in(bytes);
  auto back = Nips::Deserialize(&in);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(Bytes(*back), bytes);
  EXPECT_EQ(back->RNonImplication(), nips.RNonImplication());
  EXPECT_EQ(back->RSupport(), nips.RSupport());
}

TEST(NipsLayoutTest, FullWidthBitmapAddressesAll64Cells) {
  NipsOptions opts = Unbounded();
  opts.bitmap_bits = 64;
  Nips nips(OneToOne(1), opts);
  nips.ObserveAt(63, 1, 10);
  nips.ObserveAt(200, 2, 10);  // clamps into cell 63 too
  EXPECT_EQ(nips.fringe_right(), 63);
  EXPECT_EQ(nips.TrackedItemsets(), 2u);
  EXPECT_FALSE(nips.CellIsOne(63));
  EXPECT_EQ(nips.RSupport(), 0);  // cell 0 holds nothing yet
  ExpectRoundTrips(nips);
  // Settle every cell: both readouts run off the end of the bitmap.
  for (int cell = 0; cell < 64; ++cell) {
    nips.ObserveAt(cell, 1000 + cell, 1);
    nips.ObserveAt(cell, 1000 + cell, 2);
    ASSERT_TRUE(nips.CellIsOne(cell)) << cell;
  }
  EXPECT_EQ(nips.fringe_left(), 64);
  EXPECT_EQ(nips.RNonImplication(), 64);
  EXPECT_EQ(nips.RSupport(), 64);
  EXPECT_EQ(nips.TrackedItemsets(), 0u);
  ExpectRoundTrips(nips);
}

TEST(NipsLayoutTest, SingleCellBitmap) {
  NipsOptions opts = Bounded(4);
  opts.bitmap_bits = 1;
  Nips nips(OneToOne(1), opts);
  EXPECT_EQ(nips.RNonImplication(), 0);
  nips.ObserveAt(5, 1, 10);  // clamps to cell 0
  EXPECT_EQ(nips.fringe_right(), 0);
  EXPECT_EQ(nips.RSupport(), 1);  // supported (σ = 1), not yet decided
  EXPECT_EQ(nips.RNonImplication(), 0);
  ExpectRoundTrips(nips);
  nips.ObserveAt(0, 1, 11);
  EXPECT_TRUE(nips.CellIsOne(0));
  EXPECT_EQ(nips.fringe_left(), 1);
  EXPECT_EQ(nips.RNonImplication(), 1);
  EXPECT_EQ(nips.RSupport(), 1);
  ExpectRoundTrips(nips);
}

TEST(NipsLayoutTest, PositionsPastTheLastCellShareIt) {
  NipsOptions opts = Bounded(4);
  opts.bitmap_bits = 8;
  Nips nips(OneToOne(1), opts);
  nips.ObserveAt(40, /*a=*/1, /*b=*/10);
  nips.ObserveAt(7, /*a=*/1, /*b=*/10);  // the same itemset, same cell
  EXPECT_EQ(nips.TrackedItemsets(), 1u);
  nips.ObserveAt(9, /*a=*/1, /*b=*/11);  // second partner: cell 7 decides
  EXPECT_TRUE(nips.CellIsOne(7));
  EXPECT_FALSE(nips.CellIsOne(6));
  EXPECT_EQ(nips.TrackedItemsets(), 0u);
}

TEST(NipsLayoutTest, MergeOfNonOverlappingLiveCells) {
  NipsOptions opts = Unbounded();
  Nips x(OneToOne(2), opts), y(OneToOne(2), opts), both(OneToOne(2), opts);
  // x holds cells 2 and 9, y holds 3, 5 and 30; no itemset is shared.
  const std::vector<std::pair<int, ItemsetKey>> xs = {{2, 1}, {9, 2}, {2, 3}};
  const std::vector<std::pair<int, ItemsetKey>> ys = {
      {3, 4}, {5, 5}, {30, 6}, {5, 7}};
  for (auto [cell, a] : xs) {
    x.ObserveAt(cell, a, 100 + a);
    both.ObserveAt(cell, a, 100 + a);
  }
  for (auto [cell, a] : ys) {
    y.ObserveAt(cell, a, 100 + a);
    both.ObserveAt(cell, a, 100 + a);
  }
  ASSERT_TRUE(x.Merge(y).ok());
  EXPECT_EQ(x.TrackedItemsets(), 7u);
  EXPECT_EQ(x.fringe_right(), 30);
  EXPECT_EQ(Bytes(x), Bytes(both));
  // And the other way round.
  Nips y2(OneToOne(2), opts), x2(OneToOne(2), opts);
  for (auto [cell, a] : ys) y2.ObserveAt(cell, a, 100 + a);
  for (auto [cell, a] : xs) x2.ObserveAt(cell, a, 100 + a);
  ASSERT_TRUE(y2.Merge(x2).ok());
  EXPECT_EQ(Bytes(y2), Bytes(both));
}

TEST(NipsLayoutTest, MergeSettlesCellsTheOtherSideDecided) {
  Nips x(OneToOne(1), Bounded(4)), y(OneToOne(1), Bounded(4));
  x.ObserveAt(4, 1, 10);  // live in x
  y.ObserveAt(4, 2, 10);
  y.ObserveAt(4, 2, 11);  // decided in y
  y.ObserveAt(6, 3, 10);  // live in y only
  ASSERT_TRUE(x.Merge(y).ok());
  EXPECT_TRUE(x.CellIsOne(4));
  EXPECT_FALSE(x.CellIsOne(6));
  EXPECT_EQ(x.TrackedItemsets(), 1u);  // x's cell-4 itemset was freed
  ExpectRoundTrips(x);
}

// Decoded cells of a delta section shipped from `nips` since `since`,
// validated against `baseline` (the receiver's copy at that clock).
std::vector<Nips::DeltaPatch::CellPatch> ShippedCells(const Nips& nips,
                                                      uint64_t since,
                                                      const Nips& baseline) {
  ByteWriter out;
  nips.SerializeDeltaTo(since, &out);
  ByteReader in(out.str());
  auto patch = baseline.DecodeDeltaSection(&in);
  EXPECT_TRUE(patch.ok()) << patch.status().message();
  if (!patch.ok()) return {};
  return patch->cells;
}

Nips Copy(const Nips& nips) {
  const std::string bytes = Bytes(nips);
  ByteReader in(bytes);
  auto copy = Nips::Deserialize(&in);
  EXPECT_TRUE(copy.ok());
  return std::move(*copy);
}

TEST(NipsLayoutTest, SettledCellsKeepTheirStampUnderDeltaTracking) {
  Nips nips(OneToOne(1), Bounded(4));
  EXPECT_FALSE(nips.delta_tracking());
  nips.ObserveAt(0, 1, 10);  // before tracking: never shipped
  nips.EnableDeltaTracking();
  EXPECT_TRUE(nips.delta_tracking());
  nips.ObserveAt(3, 2, 10);
  const uint64_t base_clock = nips.change_clock();
  const Nips baseline = Copy(nips);

  nips.ObserveAt(0, 1, 11);  // settles cell 0: Zone-1 grows to cell 1
  nips.ObserveAt(3, 2, 11);  // settles cell 3
  nips.ObserveAt(5, 3, 10);  // a later live cell
  ASSERT_EQ(nips.fringe_left(), 1);
  std::vector<Nips::DeltaPatch::CellPatch> cells =
      ShippedCells(nips, base_clock, baseline);
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].index, 0);
  EXPECT_TRUE(cells[0].settled);  // settled, now left of the fringe
  EXPECT_EQ(cells[1].index, 3);
  EXPECT_TRUE(cells[1].settled);
  EXPECT_EQ(cells[2].index, 5);
  EXPECT_FALSE(cells[2].settled);
  EXPECT_EQ(cells[2].items.items.size(), 1u);

  // Applying the section reproduces the sender byte for byte.
  Nips twin = Copy(baseline);
  ByteWriter out;
  nips.SerializeDeltaTo(base_clock, &out);
  ByteReader in(out.str());
  auto patch = twin.DecodeDeltaSection(&in);
  ASSERT_TRUE(patch.ok()) << patch.status().message();
  twin.ApplyDeltaPatch(std::move(*patch));
  EXPECT_EQ(Bytes(twin), Bytes(nips));

  // Nothing moved since the current clock: no cell ships.
  EXPECT_TRUE(ShippedCells(nips, nips.change_clock(), nips).empty());
}

TEST(NipsLayoutTest, BitScanReadoutMatchesScalarScan) {
  Rng rng(20240611);
  for (int trial = 0; trial < 200; ++trial) {
    NipsOptions opts;
    opts.bitmap_bits = static_cast<int>(rng.UniformRange(1, 64));
    opts.fringe_size = static_cast<int>(rng.Uniform(5));  // 0 = unbounded
    opts.capacity_factor = static_cast<int>(rng.UniformRange(1, 2));
    ImplicationConditions cond = OneToOne(rng.UniformRange(1, 3));
    Nips nips(cond, opts);
    if (rng.Bernoulli(0.5)) nips.EnableDeltaTracking();
    const int ops = static_cast<int>(rng.UniformRange(1, 300));
    for (int op = 0; op < ops; ++op) {
      // Geometric cells like a real p(), plus some past the last cell.
      int cell = 0;
      while (cell < 70 && rng.Bernoulli(0.5)) ++cell;
      nips.ObserveAt(cell, rng.Uniform(40), rng.Uniform(3));
      if (op % 16 == 0 || op + 1 == ops) {
        ASSERT_EQ(nips.RNonImplication(), ReferenceRNonImplication(nips))
            << "trial " << trial << " op " << op;
        ASSERT_EQ(nips.RSupport(), ReferenceRSupport(nips))
            << "trial " << trial << " op " << op;
        const std::vector<WireCell> cells = WireCells(nips);
        for (int i = 0; i < opts.bitmap_bits; ++i) {
          ASSERT_EQ(nips.CellIsOne(i), i < nips.fringe_left() || cells[i].one);
        }
      }
    }
    ExpectRoundTrips(nips);
  }
}

}  // namespace
}  // namespace implistat

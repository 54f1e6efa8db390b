// Golden byte pins for the NIPS/CI snapshot, delta and sliding-window
// formats.
//
// Every checkpoint, wire payload and delta fragment a NIPS bitmap emits is
// a persisted or shipped format: a node running a newer build must read
// (and reproduce, byte for byte) what an older one wrote. The in-memory
// layout of a bitmap is free to change; these bytes are not. Each test
// drives a seeded netflow stream through an estimator with delta tracking
// on and pins FNV-1a digests of what it serializes. A digest mismatch
// means the format changed — that needs a format version bump, not a new
// pin.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/nips_ci_ensemble.h"
#include "core/sliding.h"
#include "datagen/netflow_gen.h"

namespace implistat {
namespace {

uint64_t Fnv1a(std::string_view bytes, uint64_t h = 14695981039346656037ull) {
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Folds a sequence of fragments into one digest; the length prefix keeps
// fragment boundaries significant.
struct ChainDigest {
  uint64_t h = 14695981039346656037ull;
  void Add(std::string_view fragment) {
    const std::string len = std::to_string(fragment.size()) + ":";
    h = Fnv1a(fragment, Fnv1a(len, h));
  }
};

ImplicationConditions Conditions() {
  ImplicationConditions cond;
  cond.max_multiplicity = 2;
  cond.min_support = 3;
  cond.min_top_confidence = 0.8;
  cond.confidence_c = 2;
  return cond;
}

// Source → Destination pairs from a small, skewed netflow tape with a
// port-scan episode (one source fanning out over many destinations).
class Tape {
 public:
  explicit Tape(uint64_t seed) : gen_(Params(seed)) {}

  template <typename Sink>
  void Feed(uint64_t tuples, Sink&& sink) {
    for (uint64_t i = 0; i < tuples; ++i) {
      auto t = gen_.Next();
      ASSERT_TRUE(t.has_value());
      sink(static_cast<ItemsetKey>((*t)[NetflowGenerator::kSource]),
           static_cast<ItemsetKey>((*t)[NetflowGenerator::kDestination]));
    }
  }

 private:
  static NetflowGenParams Params(uint64_t seed) {
    NetflowGenParams params;
    params.num_sources = 5000;
    params.num_destinations = 400;
    params.seed = seed;
    Episode scan;
    scan.kind = EpisodeKind::kPortScan;
    scan.start_tuple = 6000;
    scan.length = 3000;
    scan.intensity = 0.3;
    scan.focus = 17;
    params.episodes = {scan};
    return params;
  }

  NetflowGenerator gen_;
};

struct EnsembleDigests {
  uint64_t snapshot = 0;
  uint64_t delta_chain = 0;
  // Coverage of the pinned state: the stream must have settled cells
  // (a Zone-1 prefix) and still hold live fringe itemsets.
  size_t tracked_itemsets = 0;
  int max_fringe_left = 0;
};

// Warm-up, then five poll intervals, each shipped as one delta fragment
// that is also applied to a twin (which must stay byte-identical).
EnsembleDigests RunEnsemble(const NipsCiOptions& options, uint64_t seed) {
  NipsCi source(Conditions(), options);
  Tape tape(seed);
  source.NoteSnapshotEpoch(0);
  NipsCi twin(Conditions(), options);
  auto observe = [&](ItemsetKey a, ItemsetKey b) { source.Observe(a, b); };
  tape.Feed(20000, observe);
  // The warm-up ships as a delta against the empty epoch-0 baseline.
  ChainDigest chain;
  for (uint64_t epoch = 1; epoch <= 5; ++epoch) {
    if (epoch > 1) tape.Feed(1500, observe);
    auto fragment = source.SerializeDelta(epoch - 1, epoch);
    EXPECT_TRUE(fragment.ok()) << fragment.status().message();
    if (!fragment.ok()) return {};
    chain.Add(*fragment);
    EXPECT_TRUE(twin.ApplyDelta(*fragment).ok()) << "epoch " << epoch;
    EXPECT_EQ(twin.Serialize(), source.Serialize()) << "epoch " << epoch;
  }
  EnsembleDigests d;
  d.snapshot = Fnv1a(source.Serialize());
  d.delta_chain = chain.h;
  d.tracked_itemsets = source.TrackedItemsets();
  for (int i = 0; i < source.num_bitmaps(); ++i) {
    d.max_fringe_left = std::max(d.max_fringe_left,
                                 source.bitmap(i).fringe_left());
  }
  return d;
}

TEST(GoldenBytesTest, NipsCiM64SnapshotAndDeltaChain) {
  NipsCiOptions options;
  options.num_bitmaps = 64;
  options.seed = 42;
  EnsembleDigests d = RunEnsemble(options, /*seed=*/7);
  EXPECT_GT(d.tracked_itemsets, 0u);
  EXPECT_GT(d.max_fringe_left, 0);
  EXPECT_EQ(d.snapshot, 0xf58a99b8e5d7ac19ull);
  EXPECT_EQ(d.delta_chain, 0xbb2208d2979147daull);
}

// A single full-width bitmap (no routing bits: every one of the 64 cells
// is addressable) with an unbounded fringe.
TEST(GoldenBytesTest, SingleFullWidthBitmap) {
  NipsCiOptions options;
  options.num_bitmaps = 1;
  options.nips.bitmap_bits = 64;
  options.nips.fringe_size = 0;
  options.seed = 3;
  EnsembleDigests d = RunEnsemble(options, /*seed=*/11);
  EXPECT_GT(d.tracked_itemsets, 0u);
  EXPECT_GT(d.max_fringe_left, 0);
  EXPECT_EQ(d.snapshot, 0x174aed918f82b910ull);
  EXPECT_EQ(d.delta_chain, 0x4f2291957b17f806ull);
}

TEST(GoldenBytesTest, SlidingWindowStateAndDeltaChain) {
  SlidingOptions options;
  options.window = 1000;
  options.stride = 100;
  options.estimator.num_bitmaps = 8;
  options.estimator.seed = 9;
  SlidingNipsCi source(Conditions(), options);
  SlidingNipsCi twin(Conditions(), options);
  Tape tape(/*seed=*/5);
  source.NoteSnapshotEpoch(0);
  auto observe = [&](ItemsetKey a, ItemsetKey b) { source.Observe(a, b); };
  tape.Feed(5000, observe);
  ChainDigest chain;
  for (uint64_t epoch = 1; epoch <= 5; ++epoch) {
    if (epoch > 1) tape.Feed(250, observe);
    auto fragment = source.SerializeDelta(epoch - 1, epoch);
    ASSERT_TRUE(fragment.ok()) << fragment.status().message();
    chain.Add(*fragment);
    ASSERT_TRUE(twin.ApplyDelta(*fragment).ok()) << "epoch " << epoch;
    EXPECT_EQ(*twin.SerializeState(), *source.SerializeState())
        << "epoch " << epoch;
  }
  auto state = source.SerializeState();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(Fnv1a(*state), 0xc39691416c36f7f6ull);
  EXPECT_EQ(chain.h, 0x3ffd4fa8a8fc5b44ull);
}

}  // namespace
}  // namespace implistat

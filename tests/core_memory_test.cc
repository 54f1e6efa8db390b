// MemoryBytes() must report the heap an estimator really holds.
//
// The paper's contribution is a memory bound (§4.6), and every synopsis
// size this project reports — the CLI's mem= column, the query engine's
// TotalSynopsisMemoryBytes, the benchmark's synopsis_kb — comes from
// MemoryBytes(). This binary replaces the global allocation functions to
// count live heap bytes, builds an estimator from a seeded netflow stream,
// and checks
//
//   heap held  ≤  MemoryBytes()  ≤  1.25 · heap held + sizeof(estimator)
//
// so the figure is never an undercount and never a loose overestimate.
// (The slack term covers an estimator held on the stack; here each one is
// heap-allocated, so its own sizeof is already part of the heap.)

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "baseline/exact_counter.h"
#include "core/nips_ci_ensemble.h"
#include "core/sliding.h"
#include "datagen/netflow_gen.h"

namespace {

// Each block carries its requested size in a header, so frees subtract
// exactly what the matching allocation added. 16 bytes keeps the user
// pointer aligned for any fundamental type.
constexpr size_t kHeader = 16;
std::atomic<int64_t> g_live_bytes{0};

void* CountedAlloc(size_t n) {
  void* base = std::malloc(n + kHeader);
  if (base == nullptr) return nullptr;
  *static_cast<size_t*>(base) = n;
  g_live_bytes.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
  return static_cast<char*>(base) + kHeader;
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  char* base = static_cast<char*>(p) - kHeader;
  const size_t n = *reinterpret_cast<size_t*>(base);
  g_live_bytes.fetch_sub(static_cast<int64_t>(n), std::memory_order_relaxed);
  std::free(base);
}

void* CountedAllocOrThrow(size_t n) {
  void* p = CountedAlloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t n) { return CountedAllocOrThrow(n); }
void* operator new[](size_t n) { return CountedAllocOrThrow(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace implistat {
namespace {

int64_t LiveBytes() { return g_live_bytes.load(std::memory_order_relaxed); }

ImplicationConditions Conditions() {
  ImplicationConditions cond;
  cond.max_multiplicity = 2;
  cond.min_support = 3;
  cond.min_top_confidence = 0.8;
  cond.confidence_c = 2;
  return cond;
}

// Source → Destination pairs of a seeded netflow tape, generated before
// any measurement starts.
std::vector<std::pair<ItemsetKey, ItemsetKey>> Tape(uint64_t tuples) {
  NetflowGenParams params;
  params.num_sources = 20000;
  params.num_destinations = 2000;
  params.seed = 13;
  NetflowGenerator gen(params);
  std::vector<std::pair<ItemsetKey, ItemsetKey>> pairs;
  pairs.reserve(tuples);
  for (uint64_t i = 0; i < tuples; ++i) {
    auto t = gen.Next();
    pairs.emplace_back(
        static_cast<ItemsetKey>((*t)[NetflowGenerator::kSource]),
        static_cast<ItemsetKey>((*t)[NetflowGenerator::kDestination]));
  }
  return pairs;
}

const std::vector<std::pair<ItemsetKey, ItemsetKey>>& SharedTape() {
  static const auto* tape = new auto(Tape(60000));
  return *tape;
}

// Builds an estimator with `make`, drives it with `drive`, and checks the
// bound above against the heap it holds afterwards. A first, discarded
// run registers the process-wide metrics and any other lazily created
// statics, so the measured run sees only the estimator's own heap.
template <typename Make, typename Drive>
void ExpectHonestMemory(Make&& make, Drive&& drive) {
  {
    auto warm = make();
    drive(*warm);
    (void)warm->MemoryBytes();
  }
  const int64_t before = LiveBytes();
  auto est = make();
  drive(*est);
  const int64_t held = LiveBytes() - before;
  const size_t reported = est->MemoryBytes();
  ASSERT_GT(held, 0);
  const double heap = static_cast<double>(held);
  EXPECT_GE(static_cast<double>(reported), heap)
      << "MemoryBytes() undercounts the heap it holds: reported "
      << reported << " B, held " << held << " B";
  EXPECT_LE(static_cast<double>(reported),
            1.25 * heap + static_cast<double>(sizeof(*est)))
      << "MemoryBytes() overstates the heap it holds: reported "
      << reported << " B, held " << held << " B";
}

TEST(MemoryHonestyTest, AllocationHookCountsLiveBytes) {
  const int64_t before = LiveBytes();
  auto block = std::make_unique<std::vector<char>>(1000);
  EXPECT_GE(LiveBytes() - before, 1000);
  block.reset();
  EXPECT_EQ(LiveBytes(), before);
}

NipsCiOptions M64(HashKind hash) {
  NipsCiOptions options;
  options.num_bitmaps = 64;
  options.hash_kind = hash;
  options.seed = 21;
  return options;
}

void FeedAll(NipsCi& est) {
  for (const auto& [a, b] : SharedTape()) est.Observe(a, b);
}

TEST(MemoryHonestyTest, NipsCiM64WithoutDeltaTracking) {
  ExpectHonestMemory(
      [] {
        return std::make_unique<NipsCi>(Conditions(), M64(HashKind::kMix));
      },
      FeedAll);
}

// Tabulation hashing (16 KiB of tables on the heap) and a full set of
// remembered delta baselines: stamps in every bitmap, kMaxDeltaMarks
// clock vectors in the ensemble.
TEST(MemoryHonestyTest, NipsCiM64WithDeltaTracking) {
  ExpectHonestMemory(
      [] {
        return std::make_unique<NipsCi>(Conditions(),
                                        M64(HashKind::kTabulation));
      },
      [](NipsCi& est) {
        est.NoteSnapshotEpoch(0);
        const auto& tape = SharedTape();
        const size_t step = tape.size() / 12;
        for (uint64_t epoch = 1; epoch <= 12; ++epoch) {
          for (size_t i = (epoch - 1) * step; i < epoch * step; ++i) {
            est.Observe(tape[i].first, tape[i].second);
          }
          ASSERT_TRUE(est.SerializeDelta(epoch - 1, epoch).ok());
        }
      });
}

// K = 4 in tracking-bound mode: itemsets keep up to four pair counters
// in spilled heap arrays. A support bound no itemset reaches keeps them
// all clean, so no counter array is dropped by a dirty transition.
TEST(MemoryHonestyTest, NipsCiM64WithSpilledPairCounters) {
  ExpectHonestMemory(
      [] {
        ImplicationConditions cond = Conditions();
        cond.max_multiplicity = 4;
        cond.min_support = uint64_t{1} << 40;
        cond.strict_multiplicity = false;
        return std::make_unique<NipsCi>(cond, M64(HashKind::kMix));
      },
      FeedAll);
}

// The exact counter tracks every distinct b of every a. A support bound
// no itemset reaches keeps them all clean, so each holds a pair counter
// per partner: the unlimited-tracking spill path.
TEST(MemoryHonestyTest, ExactCounterWithManyPartnersPerItemset) {
  ExpectHonestMemory(
      [] {
        ImplicationConditions cond = Conditions();
        cond.min_support = uint64_t{1} << 40;
        cond.strict_multiplicity = false;
        return std::make_unique<ExactImplicationCounter>(cond);
      },
      [](ExactImplicationCounter& est) {
        for (uint64_t i = 0; i < 20000; ++i) est.Observe(i % 64, i % 997);
      });
}

// The §4.6 memory claim rests on these: a bitmap header fits one cache
// line, and a fringe itemset's state (with its first pair counter
// inline) is half of one.
TEST(MemoryHonestyTest, PerBitmapAndPerItemsetSizesArePinned) {
  EXPECT_LE(sizeof(Nips), 64u);
  EXPECT_LE(sizeof(ItemsetState), 32u);
}

TEST(MemoryHonestyTest, SlidingWindowWithDeltaTracking) {
  ExpectHonestMemory(
      [] {
        SlidingOptions options;
        options.window = 1000;
        options.stride = 100;
        options.estimator.num_bitmaps = 8;
        options.estimator.seed = 4;
        return std::make_unique<SlidingNipsCi>(Conditions(), options);
      },
      [](SlidingNipsCi& est) {
        est.NoteSnapshotEpoch(0);
        const auto& tape = SharedTape();
        const size_t step = 1000;
        for (uint64_t epoch = 1; epoch <= 12; ++epoch) {
          for (size_t i = (epoch - 1) * step; i < epoch * step; ++i) {
            est.Observe(tape[i].first, tape[i].second);
          }
          ASSERT_TRUE(est.SerializeDelta(epoch - 1, epoch).ok());
        }
      });
}

}  // namespace
}  // namespace implistat

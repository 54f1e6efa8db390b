// ShardedNipsCi — parallel ingest for the NIPS/CI ensemble.
//
// Stochastic averaging (§4.5) already routes every tuple to exactly one
// of the m bitmaps by its hash's routing bits, so the ensemble is
// embarrassingly shardable: partition the m bitmaps into T disjoint
// contiguous ranges, give each range to one worker thread, and no two
// threads ever touch the same bitmap.
//
//   caller ("router" thread)                      worker t (t = 0..T-1)
//   ------------------------                      ---------------------
//   hash each tuple once (RouteOf)                FrontWait on its ring
//   append (a, b, bitmap, cell) to the            ObserveRouted each record
//     owning shard's open batch                     (prefetching a few ahead)
//   CommitPush when the batch fills               PopFront, repeat
//
// Ordering guarantee → bit-identical estimates: each bitmap belongs to
// exactly one shard, each shard's ring is FIFO, and the router appends in
// stream order, so every bitmap sees exactly the subsequence of the
// stream it would have seen under sequential NipsCi::Observe, in the same
// order. Sketch state — and therefore Estimate() and Serialize() — is
// byte-identical to a sequential NipsCi with the same options and seed
// (tests/parallel_determinism_test.cc proves this under TSAN).
//
// Threading contract:
//  * Single router: Observe/ObserveBatch/Drain and all read accessors
//    must come from one thread at a time — the SPSC rings have exactly
//    one producer. A second thread opening a batch trips an
//    IMPLISTAT_CHECK (crash over silent corruption).
//  * Quiesce-before-read: NipsCi's read paths (FlushMetrics and
//    everything that calls it) mutate unsynchronized bookkeeping, so
//    every read accessor here first Drain()s — commit open batches, wait
//    until every ring is empty. The ring's release/acquire handoff makes
//    all worker effects (bitmap state, thread-local metric flushes)
//    visible to the router before the read proceeds. Reads mid-stream
//    are therefore safe and exact; they just stall the pipeline.
//
// Observability (the PR 1 batched-flush pattern, extended across
// threads): the router counts routed tuples per shard in plain members
// and folds them into `implistat_shard_tuples_total{shard=...}` at
// Drain(); `implistat_queue_depth{shard=...}` records each ring's depth
// in batches at the moment a drain began — a measure of how far ahead
// the router runs. Workers flush their thread-local fringe-traffic and
// dirty-exclusion counts after every batch, so a snapshot taken after
// any read boundary is exact (see Nips::FlushMetrics).

#ifndef IMPLISTAT_PARALLEL_SHARDED_NIPS_CI_H_
#define IMPLISTAT_PARALLEL_SHARDED_NIPS_CI_H_

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/nips_ci_ensemble.h"
#include "parallel/spsc_ring.h"

namespace implistat {

/// One pre-routed stream element in flight to a shard worker.
struct RoutedTuple {
  ItemsetKey a;
  ItemsetKey b;
  uint32_t bitmap;
  int32_t cell;
};

/// Records per ring slot. Big enough to amortize the publish/wake
/// handshake to well under a nanosecond per tuple; small enough that a
/// batch (12 KiB) stays cache-resident while the worker drains it.
inline constexpr size_t kIngestBatchCapacity = 512;

struct IngestBatch {
  uint32_t size = 0;
  std::array<RoutedTuple, kIngestBatchCapacity> records;
};

struct ShardedNipsCiOptions {
  /// Worker threads T; clamped nowhere — must be 1..ensemble.num_bitmaps
  /// (checked). T = 1 still runs the full router/queue/worker pipeline
  /// (useful as the parallelism-free overhead baseline).
  int threads = 2;
  /// Ring capacity per shard, in batches (rounded up to a power of two).
  /// Deeper rings let the router absorb longer worker stalls before
  /// blocking.
  size_t queue_capacity = 32;
  NipsCiOptions ensemble;
};

class ShardedNipsCi final : public ImplicationEstimator {
 public:
  ShardedNipsCi(ImplicationConditions conditions,
                ShardedNipsCiOptions options);
  ~ShardedNipsCi() override;

  ShardedNipsCi(const ShardedNipsCi&) = delete;
  ShardedNipsCi& operator=(const ShardedNipsCi&) = delete;

  /// Router-side ingest: hash, pack, dispatch. Blocks only when the
  /// owning shard's ring is full.
  void Observe(ItemsetKey a, ItemsetKey b) override;
  void ObserveBatch(std::span<const ItemsetPair> batch) override;

  /// Commits open batches and waits until every shard's ring is empty
  /// and its effects are visible (the quiesce barrier). Also folds the
  /// per-shard ingest counters into the metrics registry. Router thread
  /// only. Const because read accessors call it — the same bookkeeping-
  /// side-effect convention as NipsCi::FlushMetrics, with the thread
  /// contract making it sound.
  void Drain() const;

  /// All reads drain first, then answer from the inner ensemble;
  /// bit-identical to the sequential estimator's answers.
  CiEstimate Estimate() const;
  double EstimateImplicationCount() const override;
  double EstimateNonImplicationCount() const override;
  double EstimateSupportedDistinct() const override;
  double EstimateStdError() const override;
  size_t MemoryBytes() const override;
  std::string name() const override { return "NIPS/CI[sharded]"; }

  size_t TrackedItemsets() const;
  std::string Serialize() const;

  /// Durable-state contract (core/estimator.h). Snapshots drain first and
  /// carry the kNipsCi kind — a sharded checkpoint restores into a
  /// sequential NipsCi and vice versa, byte-for-byte interchangeable.
  /// RestoreState additionally requires the snapshot's bitmap count to
  /// match this pipeline's (the bitmap→shard partition depends on m).
  StatusOr<std::string> SerializeState() const override;
  Status RestoreState(std::string_view snapshot) override;
  Status MergeFrom(const ImplicationEstimator& other) override;

  /// The quiesced inner ensemble (drains first) — for Merge with /
  /// comparison against sequential sketches and for probes.
  const NipsCi& ensemble() const;

  int threads() const { return static_cast<int>(shards_.size()); }

  /// Tuples routed so far (router-side exact count).
  uint64_t RoutedTuples() const;

 private:
  struct Shard;

  void Push(NipsCi::Route route, ItemsetKey a, ItemsetKey b);
  void WorkerLoop(Shard* shard);
  void ProcessBatch(const IngestBatch& batch);
  // Latches the router thread id on first use; aborts if a second thread
  // ever routes. Called on the cold per-batch path, not per tuple.
  void CheckRouterThread() const;

  NipsCi inner_;
  std::vector<int> shard_of_;  // bitmap index -> shard index
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::atomic<std::thread::id> router_thread_{};
};

}  // namespace implistat

#endif  // IMPLISTAT_PARALLEL_SHARDED_NIPS_CI_H_

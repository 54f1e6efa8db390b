#include "parallel/sharded_nips_ci.h"

#include <algorithm>

#include "core/fringe_cell.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/serde.h"

namespace implistat {

struct ShardedNipsCi::Shard {
  explicit Shard(size_t queue_capacity) : queue(queue_capacity) {}

  SpscRing<IngestBatch> queue;
  std::thread worker;

  // Router-owned: the ring slot currently being filled (nullptr between
  // batches) and the exact routed-tuple count with its flushed watermark
  // (folded into `tuples` at Drain — plain members, never touched by the
  // worker).
  IngestBatch* open = nullptr;
  uint64_t routed = 0;
  uint64_t routed_flushed = 0;

  obs::Counter* tuples = nullptr;
  obs::Gauge* depth = nullptr;
};

ShardedNipsCi::ShardedNipsCi(ImplicationConditions conditions,
                             ShardedNipsCiOptions options)
    : inner_(conditions, options.ensemble) {
  const int m = inner_.num_bitmaps();
  IMPLISTAT_CHECK(options.threads >= 1 && options.threads <= m)
      << "threads must be in 1.." << m;
  const int t_count = options.threads;
  // Balanced contiguous ranges: shard s owns bitmaps [s*m/T, (s+1)*m/T).
  // Contiguity keeps each worker's bitmaps adjacent in memory.
  shard_of_.resize(static_cast<size_t>(m));
  for (int b = 0; b < m; ++b) {
    shard_of_[static_cast<size_t>(b)] =
        static_cast<int>(static_cast<int64_t>(b) * t_count / m);
  }
  shards_.reserve(static_cast<size_t>(t_count));
  for (int s = 0; s < t_count; ++s) {
    shards_.push_back(std::make_unique<Shard>(options.queue_capacity));
    IMPLISTAT_IF_METRICS({
      auto& reg = obs::MetricsRegistry::Global();
      const std::string label = std::to_string(s);
      shards_.back()->tuples = reg.GetCounter(
          "implistat_shard_tuples_total",
          "Tuples routed to this ingest shard (folded in at drain/read "
          "boundaries; summed over shards this is the parallel stream "
          "length n)",
          "shard", label);
      shards_.back()->depth = reg.GetGauge(
          "implistat_queue_depth",
          "Shard ring depth in batches when the last drain began (how "
          "far the router ran ahead of this worker)",
          "shard", label);
    });
  }
  for (auto& shard : shards_) {
    shard->worker = std::thread(&ShardedNipsCi::WorkerLoop, this,
                                shard.get());
  }
}

ShardedNipsCi::~ShardedNipsCi() {
  Drain();
  // Poison pill per shard: an empty committed batch. Workers exit after
  // processing it; the router never commits an empty batch otherwise.
  for (auto& shard : shards_) {
    shard->open = shard->queue.BeginPushWait();
    shard->open->size = 0;
    shard->queue.CommitPush();
    shard->open = nullptr;
  }
  for (auto& shard : shards_) shard->worker.join();
}

void ShardedNipsCi::CheckRouterThread() const {
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id expected{};
  if (!router_thread_.compare_exchange_strong(expected, self,
                                              std::memory_order_relaxed)) {
    IMPLISTAT_CHECK(expected == self)
        << "ShardedNipsCi: single-router contract violated — ingest and "
           "reads must stay on one thread (the rings are SPSC)";
  }
}

void ShardedNipsCi::Push(NipsCi::Route route, ItemsetKey a, ItemsetKey b) {
  Shard& shard = *shards_[static_cast<size_t>(
      shard_of_[static_cast<size_t>(route.bitmap)])];
  IngestBatch* open = shard.open;
  if (open == nullptr) [[unlikely]] {
    CheckRouterThread();
    open = shard.queue.BeginPushWait();
    shard.open = open;
  }
  open->records[open->size++] = RoutedTuple{a, b, route.bitmap, route.cell};
  ++shard.routed;
  if (open->size == kIngestBatchCapacity) [[unlikely]] {
    shard.queue.CommitPush();
    shard.open = nullptr;
  }
}

void ShardedNipsCi::Observe(ItemsetKey a, ItemsetKey b) {
  Push(inner_.RouteOf(a), a, b);
}

void ShardedNipsCi::ObserveBatch(std::span<const ItemsetPair> batch) {
  // Hash a chunk in a tight loop, then dispatch; mirrors the sequential
  // NipsCi::ObserveBatch structure with Push replacing the cell update.
  constexpr size_t kChunk = 32;
  NipsCi::Route routes[kChunk];
  for (size_t base = 0; base < batch.size(); base += kChunk) {
    const size_t n = std::min(kChunk, batch.size() - base);
    for (size_t i = 0; i < n; ++i) {
      routes[i] = inner_.RouteOf(batch[base + i].a);
    }
    for (size_t i = 0; i < n; ++i) {
      const ItemsetPair& p = batch[base + i];
      Push(routes[i], p.a, p.b);
    }
  }
}

void ShardedNipsCi::WorkerLoop(Shard* shard) {
  for (;;) {
    IngestBatch* batch = shard->queue.FrontWait();
    const bool stop = batch->size == 0;
    ProcessBatch(*batch);
    // Make this thread's pending fringe-traffic and dirty-exclusion
    // counts visible before the slot is released: the PopFront release /
    // WaitEmpty acquire pair orders them before any router-side snapshot.
    IMPLISTAT_IF_METRICS(Nips::FlushMetrics());
    batch->size = 0;  // reset the slot for reuse before handing it back
    shard->queue.PopFront();
    if (stop) return;
  }
}

void ShardedNipsCi::ProcessBatch(const IngestBatch& batch) {
  constexpr uint32_t kPrefetchAhead = 8;
  const uint32_t n = batch.size;
  for (uint32_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      const RoutedTuple& ahead = batch.records[i + kPrefetchAhead];
      inner_.bitmap(static_cast<int>(ahead.bitmap)).Prefetch();
    }
    const RoutedTuple& r = batch.records[i];
    inner_.ObserveRouted(NipsCi::Route{r.bitmap, r.cell}, r.a, r.b);
  }
}

void ShardedNipsCi::Drain() const {
  CheckRouterThread();
  for (const auto& shard : shards_) {
    if (shard->open != nullptr && shard->open->size > 0) {
      shard->queue.CommitPush();
      shard->open = nullptr;
    }
    IMPLISTAT_IF_METRICS(shard->depth->Set(
        static_cast<int64_t>(shard->queue.SizeApprox())));
  }
  for (const auto& shard : shards_) {
    shard->queue.WaitEmpty();  // the quiesce barrier (acquire)
  }
  IMPLISTAT_IF_METRICS({
    for (const auto& shard : shards_) {
      if (shard->routed != shard->routed_flushed) {
        shard->tuples->Increment(shard->routed - shard->routed_flushed);
        shard->routed_flushed = shard->routed;
      }
    }
  });
  // Quiesced: workers are parked with all effects visible, so the inner
  // ensemble's const-but-mutating read bookkeeping is safe to run.
  inner_.FlushMetrics();
}

CiEstimate ShardedNipsCi::Estimate() const {
  Drain();
  return inner_.Estimate();
}

double ShardedNipsCi::EstimateImplicationCount() const {
  return Estimate().implication;
}

double ShardedNipsCi::EstimateNonImplicationCount() const {
  return Estimate().non_implication;
}

double ShardedNipsCi::EstimateSupportedDistinct() const {
  return Estimate().supported_distinct;
}

double ShardedNipsCi::EstimateStdError() const {
  return ensemble().EstimateStdError();  // ensemble() drains first
}

size_t ShardedNipsCi::MemoryBytes() const {
  Drain();
  size_t bytes = sizeof(*this) + inner_.MemoryBytes();
  for (const auto& shard : shards_) {
    bytes += sizeof(Shard) + shard->queue.capacity() * sizeof(IngestBatch);
  }
  return bytes;
}

size_t ShardedNipsCi::TrackedItemsets() const {
  Drain();
  return inner_.TrackedItemsets();
}

std::string ShardedNipsCi::Serialize() const {
  Drain();
  return inner_.Serialize();
}

StatusOr<std::string> ShardedNipsCi::SerializeState() const {
  Drain();
  return WrapSnapshot(SnapshotKind::kNipsCi, inner_.Serialize());
}

Status ShardedNipsCi::RestoreState(std::string_view snapshot) {
  IMPLISTAT_ASSIGN_OR_RETURN(std::string_view payload,
                             UnwrapSnapshot(snapshot, SnapshotKind::kNipsCi));
  IMPLISTAT_ASSIGN_OR_RETURN(NipsCi restored, NipsCi::Deserialize(payload));
  // The bitmap→shard partition (shard_of_) and the worker count were sized
  // for this pipeline's m; a snapshot with a different ensemble width
  // cannot be adopted in place.
  if (restored.num_bitmaps() != inner_.num_bitmaps()) {
    return Status::InvalidArgument(
        "ShardedNipsCi::RestoreState: snapshot has " +
        std::to_string(restored.num_bitmaps()) + " bitmaps, pipeline has " +
        std::to_string(inner_.num_bitmaps()));
  }
  // Quiesce, then swap the inner ensemble while every worker is parked in
  // FrontWait with the rings empty; the next ring handoff (release →
  // acquire) publishes the restored state to the workers.
  Drain();
  inner_ = std::move(restored);
  return Status::OK();
}

Status ShardedNipsCi::MergeFrom(const ImplicationEstimator& other) {
  Drain();
  if (const auto* sharded = dynamic_cast<const ShardedNipsCi*>(&other)) {
    return inner_.Merge(sharded->ensemble());  // ensemble() drains `other`
  }
  // NipsCi::MergeFrom handles both the direct NipsCi cast and the
  // wire-contract fallback for anything else that snapshots as kNipsCi.
  return inner_.MergeFrom(other);
}

const NipsCi& ShardedNipsCi::ensemble() const {
  Drain();
  return inner_;
}

uint64_t ShardedNipsCi::RoutedTuples() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->routed;
  return n;
}

}  // namespace implistat

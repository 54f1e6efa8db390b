#include "core/fringe_cell.h"

#include <algorithm>
#include <vector>

#include "obs/metrics.h"

namespace implistat {

namespace {

// §3.1.1 monotone-dirty events, split by the violated condition. Handles
// are process-global and shared with nips.cc (same names → same counters);
// registration happens on first use or via RegisterNipsMetrics().
struct DirtyMetrics {
  obs::Counter* multiplicity;
  obs::Counter* confidence;

  static DirtyMetrics& Get() {
    static DirtyMetrics m{
        obs::MetricsRegistry::Global().GetCounter(
            "nips_dirty_exclusions_total",
            "Itemsets newly excluded as non-implications (section 3.1.1 "
            "monotone-dirty events), by violated condition",
            "condition", "multiplicity"),
        obs::MetricsRegistry::Global().GetCounter(
            "nips_dirty_exclusions_total",
            "Itemsets newly excluded as non-implications (section 3.1.1 "
            "monotone-dirty events), by violated condition",
            "condition", "confidence"),
    };
    return m;
  }
};

// Dirty transitions happen per itemset lifetime — frequent enough that an
// atomic RMW each would show up on the ingest path. They are counted with
// plain thread-local increments and folded into the shared counters by
// FlushDirtyExclusionMetrics() (called from Nips::FlushMetrics at read
// boundaries). Engines ingesting on different threads each carry their
// own pending counts; a thread's remainder becomes visible when that
// thread next reaches a read boundary.
struct PendingDirty {
  uint64_t multiplicity = 0;
  uint64_t confidence = 0;
};
thread_local PendingDirty t_pending_dirty;

void CountDirtyExclusion(DirtyReason reason) {
  if (reason == DirtyReason::kMultiplicity) {
    ++t_pending_dirty.multiplicity;
  } else {
    ++t_pending_dirty.confidence;
  }
}

}  // namespace

void FlushDirtyExclusionMetrics() {
  if constexpr (obs::kMetricsEnabled) {
    DirtyMetrics& m = DirtyMetrics::Get();  // also pre-registers
    PendingDirty& p = t_pending_dirty;
    if (p.multiplicity != 0) {
      m.multiplicity->Increment(p.multiplicity);
      p.multiplicity = 0;
    }
    if (p.confidence != 0) {
      m.confidence->Increment(p.confidence);
      p.confidence = 0;
    }
  }
}

size_t FringeCell::LowerBound(ItemsetKey key) const {
  // Branchless binary search: the halving step compiles to a conditional
  // move, where std::lower_bound's data-dependent branch mispredicts on
  // about every other probe of these short, randomly keyed arrays.
  size_t base = 0;
  size_t len = items_.size();
  while (len > 1) {
    const size_t half = len / 2;
    base = items_[base + half - 1].key < key ? base + half : base;
    len -= half;
  }
  return base + (len == 1 && items_[base].key < key ? 1 : 0);
}

FringeCell::Outcome FringeCell::Observe(ItemsetKey a, ItemsetKey b,
                                        const ImplicationConditions& cond,
                                        uint64_t stamp) {
  const size_t i = LowerBound(a);
  if (!HasKeyAt(i, a)) {
    items_.insert(items_.begin() + static_cast<std::ptrdiff_t>(i),
                  Entry{a, 0, ItemsetState()});
  }
  if (stamp != 0) items_[i].stamp = stamp;
  ItemsetState& state = items_[i].state;
  bool was_dirty = state.dirty();
  bool dirty = state.Observe(b, cond);
  if (state.supported(cond)) has_supported_ = true;
  if (dirty && !was_dirty) {
    IMPLISTAT_IF_METRICS(CountDirtyExclusion(state.dirty_reason()));
  }
  return dirty ? Outcome::kNonImplication : Outcome::kUndecided;
}

FringeCell::Outcome FringeCell::Merge(const FringeCell& other,
                                      const ImplicationConditions& cond) {
  Outcome outcome = Outcome::kUndecided;
  for (const Entry& theirs : other.items_) {
    const size_t i = LowerBound(theirs.key);
    if (!HasKeyAt(i, theirs.key)) {
      items_.insert(items_.begin() + static_cast<std::ptrdiff_t>(i),
                    Entry{theirs.key, 0, theirs.state});
    } else {
      // Count only exclusions the merge itself discovers; a dirty state
      // arriving from the other side was already counted where it turned
      // dirty (or predates this process — see DirtyReason).
      ItemsetState& mine = items_[i].state;
      bool was_dirty = mine.dirty();
      mine.Merge(theirs.state, cond);
      if (!was_dirty && mine.dirty()) {
        IMPLISTAT_IF_METRICS(CountDirtyExclusion(mine.dirty_reason()));
      }
    }
    const ItemsetState& merged = items_[i].state;
    if (merged.dirty()) outcome = Outcome::kNonImplication;
    if (merged.supported(cond)) has_supported_ = true;
  }
  if (other.has_supported_) has_supported_ = true;
  return outcome;
}

void FringeCell::SerializeTo(ByteWriter* out) const {
  out->PutBool(has_supported_);
  out->PutVarint64(items_.size());
  // Canonical (key) order — the vector's own order — so two cells with
  // the same tracked itemsets serialize to the same bytes no matter how
  // they got there (live stream, merge, or an earlier restore).
  for (const Entry& e : items_) {
    out->PutU64(e.key);
    e.state.SerializeTo(out);
  }
}

StatusOr<FringeCell> FringeCell::Deserialize(ByteReader* in) {
  FringeCell cell;
  IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&cell.has_supported_));
  uint64_t items;
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&items));
  if (items > (uint64_t{1} << 28)) {
    return Status::InvalidArgument("FringeCell: implausible itemset count");
  }
  // An entry encodes to at least 17 bytes (u64 key + the smallest
  // ItemsetState), so the bytes present bound a sane reservation.
  cell.items_.reserve(std::min<uint64_t>(items, in->remaining() / 17));
  bool sorted = true;
  for (uint64_t i = 0; i < items; ++i) {
    ItemsetKey key;
    IMPLISTAT_RETURN_NOT_OK(in->ReadU64(&key));
    IMPLISTAT_ASSIGN_OR_RETURN(ItemsetState state,
                               ItemsetState::Deserialize(in));
    if (!cell.items_.empty() && key <= cell.items_.back().key) {
      sorted = false;
    }
    cell.items_.push_back(Entry{key, 0, std::move(state)});
  }
  if (!sorted) {
    // Our writers always emit strictly increasing keys; foreign input is
    // canonicalized, the first occurrence of a duplicated key winning.
    auto by_key = [](const Entry& x, const Entry& y) { return x.key < y.key; };
    std::stable_sort(cell.items_.begin(), cell.items_.end(), by_key);
    auto same_key = [](const Entry& x, const Entry& y) {
      return x.key == y.key;
    };
    cell.items_.erase(
        std::unique(cell.items_.begin(), cell.items_.end(), same_key),
        cell.items_.end());
  }
  return cell;
}

void FringeCell::SerializeItemPatchTo(uint64_t since_stamp,
                                      ByteWriter* out) const {
  out->PutBool(has_supported_);
  out->PutVarint64(items_.size());
  uint64_t changed = 0;
  for (const Entry& e : items_) changed += e.stamp > since_stamp;
  out->PutVarint64(changed);
  // Canonical key order, matching SerializeTo: the patch bytes for a
  // given change set are unique no matter the observation order.
  for (const Entry& e : items_) {
    if (e.stamp <= since_stamp) continue;
    out->PutU64(e.key);
    e.state.SerializeTo(out);
  }
}

StatusOr<FringeCell::ItemPatch> FringeCell::DeserializeItemPatch(
    ByteReader* in) {
  ItemPatch patch;
  IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&patch.has_supported));
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&patch.total_items));
  if (patch.total_items > (uint64_t{1} << 28)) {
    return Status::InvalidArgument("ItemPatch: implausible itemset count");
  }
  uint64_t changed;
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&changed));
  if (changed > patch.total_items) {
    return Status::InvalidArgument("ItemPatch: more changes than itemsets");
  }
  ItemsetKey prev = 0;
  for (uint64_t i = 0; i < changed; ++i) {
    ItemsetKey key;
    IMPLISTAT_RETURN_NOT_OK(in->ReadU64(&key));
    if (i > 0 && key <= prev) {
      return Status::InvalidArgument("ItemPatch: keys out of order");
    }
    prev = key;
    IMPLISTAT_ASSIGN_OR_RETURN(ItemsetState state,
                               ItemsetState::Deserialize(in));
    patch.items.emplace_back(key, std::move(state));
  }
  return patch;
}

size_t FringeCell::NewKeys(const ItemPatch& patch) const {
  size_t inserts = 0;
  for (const auto& [key, state] : patch.items) {
    if (!HasKeyAt(LowerBound(key), key)) ++inserts;
  }
  return inserts;
}

size_t FringeCell::ApplyItemPatch(ItemPatch&& patch) {
  const size_t before = items_.size();
  for (auto& [key, state] : patch.items) {
    const size_t i = LowerBound(key);
    if (HasKeyAt(i, key)) {
      items_[i].state = std::move(state);
    } else {
      items_.insert(items_.begin() + static_cast<std::ptrdiff_t>(i),
                    Entry{key, 0, std::move(state)});
    }
  }
  has_supported_ = patch.has_supported;
  return items_.size() - before;
}

size_t FringeCell::MemoryBytes() const {
  // Every heap byte: the entry array at its capacity, plus each state's
  // own pair-counter heap (ItemsetState::MemoryBytes counts its inline
  // part, already inside the array).
  size_t bytes = sizeof(*this) + items_.capacity() * sizeof(Entry);
  for (const Entry& e : items_) {
    bytes += e.state.MemoryBytes() - sizeof(ItemsetState);
  }
  return bytes;
}

}  // namespace implistat

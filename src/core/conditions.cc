#include "core/conditions.h"

#include <algorithm>
#include <utility>

namespace implistat {

namespace {
// Tolerance for the confidence comparison: counters are integers, so
// γ_c(a) = sum/support; a tiny slack keeps e.g. 0.9·support == sum from
// flapping on rounding.
constexpr double kConfidenceEpsilon = 1e-9;
}  // namespace

Status ImplicationConditions::Validate() const {
  if (max_multiplicity == 0) {
    return Status::InvalidArgument("max_multiplicity must be >= 1");
  }
  if (min_support == 0) {
    return Status::InvalidArgument(
        "min_support must be >= 1 (it is an absolute tuple count)");
  }
  if (!(min_top_confidence > 0.0) || min_top_confidence > 1.0) {
    return Status::InvalidArgument("min_top_confidence must be in (0, 1]");
  }
  if (confidence_c == 0) {
    return Status::InvalidArgument("confidence_c must be >= 1");
  }
  return Status::OK();
}

ItemsetState::ItemsetState(const ItemsetState& other) {
  CopyFlagsFrom(other);
  CopyPairsFrom(other);
}

ItemsetState::ItemsetState(ItemsetState&& other) noexcept {
  CopyFlagsFrom(other);
  counters_ = other.counters_;
  storage_ = std::exchange(other.storage_, Storage::kEmpty);
}

ItemsetState& ItemsetState::operator=(const ItemsetState& other) {
  if (this != &other) {
    ClearPairs();
    CopyFlagsFrom(other);
    CopyPairsFrom(other);
  }
  return *this;
}

ItemsetState& ItemsetState::operator=(ItemsetState&& other) noexcept {
  if (this != &other) {
    ClearPairs();
    CopyFlagsFrom(other);
    counters_ = other.counters_;
    storage_ = std::exchange(other.storage_, Storage::kEmpty);
  }
  return *this;
}

void ItemsetState::CopyFlagsFrom(const ItemsetState& other) {
  support_ = other.support_;
  mult_ = other.mult_;
  dirty_reason_ = other.dirty_reason_;
  dirty_ = other.dirty_;
  mult_exceeded_ = other.mult_exceeded_;
  unlimited_tracking_ = other.unlimited_tracking_;
}

void ItemsetState::CopyPairsFrom(const ItemsetState& other) {
  counters_ = other.counters_;
  storage_ = other.storage_;
  if (storage_ == Storage::kSpilled) {
    const uint32_t size = other.counters_.spill.size;
    counters_.spill.data = new Pair[size];
    counters_.spill.capacity = size;
    std::copy_n(other.counters_.spill.data, size, counters_.spill.data);
  }
}

void ItemsetState::ClearPairs() {
  if (storage_ == Storage::kSpilled) delete[] counters_.spill.data;
  storage_ = Storage::kEmpty;
}

ItemsetState::Pair* ItemsetState::FindPair(ItemsetKey b) {
  for (Pair& pair : pairs()) {
    if (pair.b == b) return &pair;
  }
  return nullptr;
}

void ItemsetState::AppendPair(ItemsetKey b, uint64_t count,
                              const ImplicationConditions& cond) {
  if (storage_ == Storage::kEmpty) {
    counters_.one = Pair{b, count};
    storage_ = Storage::kInline;
    return;
  }
  const std::span<Pair> held = pairs();
  const uint32_t size = static_cast<uint32_t>(held.size());
  const uint32_t capacity =
      storage_ == Storage::kSpilled ? counters_.spill.capacity : 1;
  if (size == capacity) {
    // Double, but never past K counters: a K-bounded state cannot hold
    // more (only unlimited tracking grows without bound).
    uint32_t grown = std::max<uint32_t>(2, 2 * capacity);
    if (!unlimited_tracking_) {
      grown = std::min(grown, std::max(cond.max_multiplicity, size + 1));
    }
    Pair* data = new Pair[grown];
    std::copy_n(held.data(), size, data);
    ClearPairs();
    counters_.spill = Spill{data, size, grown};
    storage_ = Storage::kSpilled;
  }
  counters_.spill.data[counters_.spill.size++] = Pair{b, count};
}

void ItemsetState::MarkDirty(DirtyReason reason) {
  dirty_ = true;
  if (dirty_reason_ == DirtyReason::kNone) dirty_reason_ = reason;
  ClearPairs();
}

bool ItemsetState::Observe(ItemsetKey b, const ImplicationConditions& cond) {
  ++support_;
  if (dirty_) return true;  // monotone: stays a non-implication

  if (!mult_exceeded_) {
    if (Pair* pair = FindPair(b)) {
      ++pair->count;
    } else if (pairs().size() < cond.max_multiplicity) {
      AppendPair(b, 1, cond);
      if (mult_ <= cond.max_multiplicity) ++mult_;
    } else if (cond.strict_multiplicity) {
      // A (K+1)-th distinct b: multiplicity condition is violated for good;
      // the individual pair counters are no longer needed.
      mult_exceeded_ = true;
      if (mult_ <= cond.max_multiplicity) ++mult_;
      ClearPairs();
    } else if (unlimited_tracking_) {
      AppendPair(b, 1, cond);
      if (mult_ <= cond.max_multiplicity) ++mult_;
    } else {
      // Tracking-bound mode: admit the newcomer only by evicting a counter
      // that is still at 1 (an established counter cannot be displaced by
      // a single occurrence). The support counter above is unaffected.
      if (mult_ <= cond.max_multiplicity) ++mult_;
      for (Pair& pair : pairs()) {
        if (pair.count == 1) {
          pair = Pair{b, 1};
          break;
        }
      }
    }
  }

  if (support_ < cond.min_support) return false;
  // Support condition holds: any violation of the other two conditions now
  // makes the itemset a non-implication forever (§3.1.1).
  if (mult_exceeded_ ||
      TopConfidence(cond.confidence_c) + kConfidenceEpsilon <
          cond.min_top_confidence) {
    MarkDirty(mult_exceeded_ ? DirtyReason::kMultiplicity
                             : DirtyReason::kConfidence);
  }
  return dirty_;
}

uint64_t ItemsetState::TopCountSum(std::span<const Pair> pairs, uint32_t c) {
  uint64_t sum = 0;
  if (c == 0) return 0;
  if (c >= pairs.size()) {
    for (const Pair& pair : pairs) sum += pair.count;
    return sum;
  }
  // Called on every observe of a supported, clean itemset, so no
  // allocation. Small c (the usual c ≤ K): keep the c largest counts seen
  // so far in a descending stack buffer.
  constexpr uint32_t kBuffer = 8;
  if (c <= kBuffer) {
    uint64_t top[kBuffer];
    uint32_t kept = 0;
    for (const Pair& pair : pairs) {
      if (kept == c && pair.count <= top[c - 1]) continue;
      uint32_t i = kept < c ? kept++ : c - 1;
      for (; i > 0 && top[i - 1] < pair.count; --i) top[i] = top[i - 1];
      top[i] = pair.count;
    }
    for (uint32_t i = 0; i < c; ++i) sum += top[i];
    return sum;
  }
  // Large c: bisect for the c-th largest count v (the largest v with at
  // least c counts >= v); the sum is every count above v plus enough
  // copies of v to make c.
  auto at_least = [&](uint64_t v) {
    size_t n = 0;
    for (const Pair& pair : pairs) n += pair.count >= v;
    return n;
  };
  uint64_t lo = 0;
  uint64_t hi = 0;
  for (const Pair& pair : pairs) hi = std::max(hi, pair.count);
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2 + 1;
    if (at_least(mid) >= c) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  size_t above = 0;
  for (const Pair& pair : pairs) {
    if (pair.count > lo) {
      sum += pair.count;
      ++above;
    }
  }
  return sum + (c - above) * lo;
}

double ItemsetState::TopConfidence(uint32_t c) const {
  const std::span<const Pair> held = pairs();
  if (support_ == 0 || held.empty()) return 0.0;
  return static_cast<double>(TopCountSum(held, c)) /
         static_cast<double>(support_);
}

bool operator==(const ImplicationConditions& a,
                const ImplicationConditions& b) {
  return a.max_multiplicity == b.max_multiplicity &&
         a.min_support == b.min_support &&
         a.min_top_confidence == b.min_top_confidence &&
         a.confidence_c == b.confidence_c &&
         a.strict_multiplicity == b.strict_multiplicity;
}

void ImplicationConditions::SerializeTo(ByteWriter* out) const {
  out->PutU32(max_multiplicity);
  out->PutVarint64(min_support);
  out->PutDouble(min_top_confidence);
  out->PutU32(confidence_c);
  out->PutBool(strict_multiplicity);
}

StatusOr<ImplicationConditions> ImplicationConditions::Deserialize(
    ByteReader* in) {
  ImplicationConditions cond;
  IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&cond.max_multiplicity));
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&cond.min_support));
  IMPLISTAT_RETURN_NOT_OK(in->ReadDouble(&cond.min_top_confidence));
  IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&cond.confidence_c));
  IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&cond.strict_multiplicity));
  IMPLISTAT_RETURN_NOT_OK(cond.Validate());
  return cond;
}

void ItemsetState::Merge(const ItemsetState& other,
                         const ImplicationConditions& cond) {
  support_ += other.support_;
  if (other.dirty_) {
    dirty_ = true;
    if (dirty_reason_ == DirtyReason::kNone) dirty_reason_ = other.dirty_reason_;
  }
  if (other.mult_exceeded_) mult_exceeded_ = true;
  if (dirty_) {
    ClearPairs();
    return;
  }
  // Fold the other side's pair counters under this state's policy. The
  // per-pair counts add exactly when both sides tracked the pair.
  if (!mult_exceeded_) {
    for (const Pair& theirs : other.pairs()) {
      if (Pair* mine = FindPair(theirs.b)) {
        mine->count += theirs.count;
      } else if (pairs().size() < cond.max_multiplicity ||
                 unlimited_tracking_) {
        AppendPair(theirs.b, theirs.count, cond);
        if (mult_ <= cond.max_multiplicity) ++mult_;
      } else if (cond.strict_multiplicity) {
        mult_exceeded_ = true;
        if (mult_ <= cond.max_multiplicity) ++mult_;
        ClearPairs();
        break;
      } else {
        // Tracking-bound mode: displace a counter this newcomer outweighs.
        const std::span<Pair> mine = pairs();
        Pair& victim = *std::min_element(
            mine.begin(), mine.end(),
            [](const Pair& x, const Pair& y) { return x.count < y.count; });
        if (mult_ <= cond.max_multiplicity) ++mult_;
        if (victim.count < theirs.count) victim = theirs;
      }
    }
  }
  // Re-evaluate the conditions on the merged counters.
  if (support_ >= cond.min_support &&
      (mult_exceeded_ ||
       TopConfidence(cond.confidence_c) + 1e-9 < cond.min_top_confidence)) {
    MarkDirty(mult_exceeded_ ? DirtyReason::kMultiplicity
                             : DirtyReason::kConfidence);
  }
}

void ItemsetState::SerializeTo(ByteWriter* out) const {
  out->PutVarint64(support_);
  out->PutU32(mult_);
  out->PutBool(dirty_);
  out->PutBool(mult_exceeded_);
  out->PutBool(unlimited_tracking_);
  const std::span<const Pair> held = pairs();
  out->PutVarint64(held.size());
  for (const Pair& pair : held) {
    out->PutU64(pair.b);
    out->PutVarint64(pair.count);
  }
}

StatusOr<ItemsetState> ItemsetState::Deserialize(ByteReader* in) {
  ItemsetState state;
  bool dirty, mult_exceeded, unlimited_tracking;
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&state.support_));
  IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&state.mult_));
  IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&dirty));
  IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&mult_exceeded));
  IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&unlimited_tracking));
  state.dirty_ = dirty;
  state.mult_exceeded_ = mult_exceeded;
  state.unlimited_tracking_ = unlimited_tracking;
  uint64_t pairs;
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&pairs));
  // Each pair costs at least 9 encoded bytes (fixed u64 + 1-byte varint):
  // bounding the count by the bytes actually present keeps a corrupt
  // length from forcing a huge allocation before the reads fail.
  if (pairs > (uint64_t{1} << 24) || pairs > in->remaining() / 9) {
    return Status::InvalidArgument("ItemsetState: implausible pair count");
  }
  if (pairs > 1) {
    const auto n = static_cast<uint32_t>(pairs);
    state.counters_.spill = Spill{new Pair[n], 0, n};
    state.storage_ = Storage::kSpilled;
  }
  for (uint64_t i = 0; i < pairs; ++i) {
    Pair pair;
    IMPLISTAT_RETURN_NOT_OK(in->ReadU64(&pair.b));
    IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&pair.count));
    if (pairs == 1) {
      state.counters_.one = pair;
      state.storage_ = Storage::kInline;
    } else {
      state.counters_.spill.data[state.counters_.spill.size++] = pair;
    }
  }
  return state;
}

size_t ItemsetState::MemoryBytes() const {
  return sizeof(*this) + (storage_ == Storage::kSpilled
                              ? counters_.spill.capacity * sizeof(Pair)
                              : 0);
}

}  // namespace implistat

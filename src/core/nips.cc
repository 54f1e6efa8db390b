#include "core/nips.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "delta/codec.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace implistat {

namespace {

// Fringe traffic counters (§4.3.2/§4.3.3 made observable). The intended
// invariant, checked by tests/core_nips_test.cc: across live bitmaps, at
// any read boundary (a point where FlushMetrics has run),
//   insertions − evictions − promotions == Σ TrackedItemsets().
// The hot path never touches these atomics: settle events accumulate in
// Nips::totals_ with plain adds, insertions are derived from the same
// invariant, and FlushMetrics pushes bulk deltas at read boundaries.
struct NipsMetrics {
  obs::Counter* insertions;
  obs::Counter* evictions;
  obs::Counter* promotions;
  obs::Counter* settled_non_implication;
  obs::Counter* settled_budget;
  obs::Counter* settled_merge;

  static NipsMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static NipsMetrics m{
        reg.GetCounter("nips_fringe_insertions_total",
                       "Itemsets newly tracked in fringe cells (section "
                       "4.3.2 fringe population; includes merged and "
                       "deserialized itemsets)"),
        reg.GetCounter("nips_fringe_evictions_total",
                       "Tracked itemsets freed by the section 4.3.3 budget "
                       "fixation (cells forced to value 1 under memory "
                       "pressure)"),
        reg.GetCounter("nips_settled_promotions_total",
                       "Tracked itemsets freed because their cell settled "
                       "to value 1 through a discovered non-implication "
                       "or a merge"),
        reg.GetCounter("nips_cells_settled_total",
                       "Bitmap cells decided to value 1, by cause", "cause",
                       "non_implication"),
        reg.GetCounter("nips_cells_settled_total",
                       "Bitmap cells decided to value 1, by cause", "cause",
                       "budget"),
        reg.GetCounter("nips_cells_settled_total",
                       "Bitmap cells decided to value 1, by cause", "cause",
                       "merge"),
    };
    return m;
  }
};

}  // namespace

Nips::Nips(ImplicationConditions conditions, NipsOptions options)
    : options_(options), conditions_(conditions) {
  IMPLISTAT_CHECK(options_.bitmap_bits >= 1 && options_.bitmap_bits <= 64)
      << "bitmap_bits out of range";
  IMPLISTAT_CHECK(conditions_.Validate().ok()) << "invalid conditions";
  // Pre-register the fringe and dirty-exclusion counters so snapshots
  // taken before any traffic still list them (at zero).
  IMPLISTAT_IF_METRICS(NipsMetrics::Get());
  FlushDirtyExclusionMetrics();
}

void Nips::GrowStamps(int cells) {
  auto grown = std::make_unique<uint64_t[]>(static_cast<size_t>(cells));
  std::copy_n(stamps_.get(), stamped_cells_, grown.get());  // rest zeroed
  stamps_ = std::move(grown);
  stamped_cells_ = static_cast<uint8_t>(cells);
}

size_t Nips::TrackedItemsets() const {
  FlushMetrics();
  return tracked_;
}

void Nips::FlushMetrics() const {
  if constexpr (obs::kMetricsEnabled) {
    // Insertions are implied by the traffic invariant: every itemset that
    // entered since the last flush is either still tracked or left
    // through an eviction/promotion counted in pending_. Deriving them
    // here keeps ObserveAt free of any metric bookkeeping at all.
    // (Unsigned wrap-around is fine: the sum is never negative.)
    const EventTotals& p = pending_;
    const uint64_t insertions =
        tracked_ - tracked_reported_ + p.evictions + p.promotions;
    if (insertions != 0 || p.evictions != 0 || p.promotions != 0 ||
        p.settled_non_implication != 0 || p.settled_budget != 0 ||
        p.settled_merge != 0) {
      NipsMetrics& m = NipsMetrics::Get();
      m.insertions->Increment(insertions);
      m.evictions->Increment(p.evictions);
      m.promotions->Increment(p.promotions);
      m.settled_non_implication->Increment(p.settled_non_implication);
      m.settled_budget->Increment(p.settled_budget);
      m.settled_merge->Increment(p.settled_merge);
      tracked_reported_ = tracked_;
      pending_ = EventTotals();
    }
    FlushDirtyExclusionMetrics();
  }
}

size_t Nips::ItemBudget() const {
  if (!bounded() || options_.capacity_factor <= 0) return 0;
  int f = std::min(options_.fringe_size, 40);
  return static_cast<size_t>(options_.capacity_factor) *
         ((size_t{1} << f) - 1);
}

FringeCell& Nips::SlotFor(int cell) {
  const size_t index = SlotIndex(cell);
  if (!(live_ & Bit(cell))) {
    // Grow by exactly one: a cell turns live at most once and settles at
    // most once, so exact sizing costs at most two reallocations per cell.
    slots_.reserve(slots_.size() + 1);
    slots_.emplace(slots_.begin() + static_cast<std::ptrdiff_t>(index));
    live_ |= Bit(cell);
  }
  return slots_[index];
}

void Nips::EraseSlot(int cell) {
  slots_.erase(slots_.begin() +
               static_cast<std::ptrdiff_t>(SlotIndex(cell)));
  slots_.shrink_to_fit();
  live_ &= ~Bit(cell);
}

void Nips::ObserveAt(int cell, ItemsetKey a, ItemsetKey b) {
  IMPLISTAT_DCHECK(cell >= 0);
  // Hash positions beyond the bitmap land in the last cell; with L = 58
  // this affects ~2^-58 of the keys.
  if (cell >= options_.bitmap_bits) cell = options_.bitmap_bits - 1;

  if (cell > fringe_right_) {
    fringe_right_ = cell;
    // The serialized fringe header changed even if the cell observe below
    // turns out to be a no-op.
    if (delta_tracking_) ++clock_;
  }
  if (cell < fringe_left_) return;  // Zone-1: value already 1, recorded
  if (one_ & Bit(cell)) return;     // recorded events are never erased

  // A fringe observe always mutates the tracked state (at minimum the
  // itemset's support count), so under tracking the cell and the itemset
  // take the next clock value. If the outcome settles the cell below,
  // DecideOne re-stamps it and frees the itemsets (stamps included).
  Stamp(cell);
  const uint64_t stamp = delta_tracking_ ? clock_ : 0;
  FringeCell& fringe = SlotFor(cell);
  size_t before = fringe.num_itemsets();
  FringeCell::Outcome outcome = fringe.Observe(a, b, conditions_, stamp);
  tracked_ += fringe.num_itemsets() - before;  // see FlushMetrics
  if (fringe.has_supported()) supported_ |= Bit(cell);

  if (outcome == FringeCell::Outcome::kNonImplication) {
    DecideOne(cell, SettleCause::kNonImplication);
    ShrinkLeft();
  }
  EnforceBudget();
}

bool Nips::CellIsOne(int cell) const {
  if (cell < fringe_left_) return true;
  return (one_ & Bit(cell)) != 0;
}

Status Nips::Merge(const Nips& other) {
  if (!(conditions_ == other.conditions_)) {
    return Status::InvalidArgument("Nips::Merge: conditions differ");
  }
  if (options_.bitmap_bits != other.options_.bitmap_bits ||
      options_.fringe_size != other.options_.fringe_size ||
      options_.capacity_factor != other.options_.capacity_factor) {
    return Status::InvalidArgument("Nips::Merge: options differ");
  }
  if (other.fringe_right_ > fringe_right_) {
    fringe_right_ = other.fringe_right_;
  }
  for (int i = 0; i < options_.bitmap_bits; ++i) {
    if (one_ & Bit(i)) continue;
    if (other.CellIsOne(i)) {
      DecideOne(i, SettleCause::kMerge);
      continue;
    }
    if (other.supported_ & Bit(i)) supported_ |= Bit(i);
    const FringeCell* theirs = other.SlotAt(i);
    if (theirs == nullptr) continue;
    FringeCell& mine = SlotFor(i);
    size_t before = mine.num_itemsets();
    FringeCell::Outcome outcome = mine.Merge(*theirs, conditions_);
    tracked_ += mine.num_itemsets() - before;
    if (mine.has_supported()) supported_ |= Bit(i);
    if (outcome == FringeCell::Outcome::kNonImplication) {
      DecideOne(i, SettleCause::kNonImplication);
    }
  }
  ShrinkLeft();
  EnforceBudget();
  return Status::OK();
}

void Nips::SerializeTo(ByteWriter* out) const {
  FlushMetrics();
  conditions_.SerializeTo(out);
  out->PutU32(static_cast<uint32_t>(options_.fringe_size));
  out->PutU32(static_cast<uint32_t>(options_.capacity_factor));
  out->PutU32(static_cast<uint32_t>(options_.bitmap_bits));
  out->PutU32(static_cast<uint32_t>(fringe_left_));
  out->PutU32(static_cast<uint32_t>(fringe_right_ + 1));  // -1 → 0
  // Per cell: value, has_supported, has_data [, FringeCell].
  size_t slot = 0;
  for (int i = 0; i < options_.bitmap_bits; ++i) {
    const bool has_data = (live_ & Bit(i)) != 0;
    out->PutBool((one_ & Bit(i)) != 0);
    out->PutBool((supported_ & Bit(i)) != 0);
    out->PutBool(has_data);
    if (has_data) slots_[slot++].SerializeTo(out);
  }
}

StatusOr<Nips> Nips::Deserialize(ByteReader* in) {
  IMPLISTAT_ASSIGN_OR_RETURN(ImplicationConditions cond,
                             ImplicationConditions::Deserialize(in));
  NipsOptions options;
  uint32_t fringe_size, capacity_factor, bitmap_bits, left, right_plus_1;
  IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&fringe_size));
  IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&capacity_factor));
  IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&bitmap_bits));
  if (bitmap_bits < 1 || bitmap_bits > 64) {
    return Status::InvalidArgument("Nips: bad bitmap_bits");
  }
  options.fringe_size = static_cast<int>(fringe_size);
  options.capacity_factor = static_cast<int>(capacity_factor);
  options.bitmap_bits = static_cast<int>(bitmap_bits);
  Nips nips(cond, options);
  IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&left));
  IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&right_plus_1));
  if (left > bitmap_bits || right_plus_1 > bitmap_bits) {
    return Status::InvalidArgument("Nips: fringe out of range");
  }
  nips.fringe_left_ = static_cast<int>(left);
  nips.fringe_right_ = static_cast<int>(right_plus_1) - 1;
  std::vector<FringeCell> slots;  // in cell order
  for (int i = 0; i < options.bitmap_bits; ++i) {
    bool one, has_supported, has_data;
    IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&one));
    IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&has_supported));
    IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&has_data));
    if (one) nips.one_ |= Bit(i);
    if (has_supported) nips.supported_ |= Bit(i);
    if (has_data) {
      IMPLISTAT_ASSIGN_OR_RETURN(FringeCell fringe,
                                 FringeCell::Deserialize(in));
      // Decoded itemsets enter this bitmap's fringe and count as
      // insertions — automatic, since insertions are derived from
      // tracked_ (see FlushMetrics).
      nips.tracked_ += fringe.num_itemsets();
      nips.live_ |= Bit(i);
      slots.push_back(std::move(fringe));
    }
  }
  slots.shrink_to_fit();  // exact capacity, as SlotFor keeps it
  nips.slots_ = std::move(slots);
  return nips;
}

size_t Nips::MemoryBytes() const {
  FlushMetrics();
  size_t bytes = sizeof(*this) + slots_.capacity() * sizeof(FringeCell);
  for (const FringeCell& fringe : slots_) {
    // The FringeCell's inline part is already counted in the array.
    bytes += fringe.MemoryBytes() - sizeof(FringeCell);
  }
  bytes += stamped_cells_ * sizeof(uint64_t);
  return bytes;
}

void Nips::SerializeDeltaTo(uint64_t since_clock, ByteWriter* out) const {
  FlushMetrics();
  out->PutVarint64(static_cast<uint64_t>(fringe_left_));
  out->PutVarint64(static_cast<uint64_t>(fringe_right_ + 1));  // -1 → 0
  const int bits = options_.bitmap_bits;
  std::vector<bool> changed(static_cast<size_t>(bits));
  for (int i = 0; i < bits; ++i) changed[i] = StampOf(i) > since_clock;
  delta::EncodeMask(changed, out);
  for (int i = 0; i < bits; ++i) {
    if (!changed[i]) continue;
    const bool has_supported = (supported_ & Bit(i)) != 0;
    if (one_ & Bit(i)) {
      out->PutU8(0);  // settled since the baseline
      out->PutBool(has_supported);
    } else {
      out->PutU8(1);  // live: ship the touched itemsets
      out->PutBool(has_supported);
      if (const FringeCell* fringe = SlotAt(i)) {
        fringe->SerializeItemPatchTo(since_clock, out);
      } else {
        FringeCell().SerializeItemPatchTo(since_clock, out);
      }
    }
  }
}

StatusOr<Nips::DeltaPatch> Nips::DecodeDeltaSection(ByteReader* in) const {
  DeltaPatch patch;
  uint64_t left, right_plus_1;
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&left));
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&right_plus_1));
  const uint64_t bits = static_cast<uint64_t>(options_.bitmap_bits);
  if (left > bits || right_plus_1 > bits || left > right_plus_1) {
    return Status::InvalidArgument("Nips delta: fringe out of range");
  }
  // The sender only moved forward since the receiver's baseline; a
  // regressing fringe means the baseline is not what the sender assumed.
  if (static_cast<int>(left) < fringe_left_ ||
      static_cast<int>(right_plus_1) - 1 < fringe_right_) {
    return Status::InvalidArgument("Nips delta: fringe regressed");
  }
  patch.fringe_left = static_cast<int>(left);
  patch.fringe_right = static_cast<int>(right_plus_1) - 1;

  std::vector<bool> changed;
  IMPLISTAT_RETURN_NOT_OK(delta::DecodeMask(in, bits, &changed));
  uint64_t settles = 0;  // bit i: the patch settles cell i
  for (int i = 0; i < options_.bitmap_bits; ++i) {
    if (!changed[i]) continue;
    DeltaPatch::CellPatch cell;
    cell.index = i;
    uint8_t mode;
    IMPLISTAT_RETURN_NOT_OK(in->ReadU8(&mode));
    if (mode > 1) {
      return Status::InvalidArgument("Nips delta: unknown cell mode");
    }
    cell.settled = mode == 0;
    IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&cell.cell_has_supported));
    // Either mode names a cell that was undecided at the baseline; one
    // that is already 1 here means sender and receiver disagree about
    // the baseline state — refuse and let the caller resync.
    if (one_ & Bit(i)) {
      return Status::InvalidArgument("Nips delta: cell already settled");
    }
    if (cell.settled) {
      settles |= Bit(i);
    } else {
      if (cell.index < patch.fringe_left) {
        return Status::InvalidArgument(
            "Nips delta: live cell left of the fringe");
      }
      IMPLISTAT_ASSIGN_OR_RETURN(cell.items,
                                 FringeCell::DeserializeItemPatch(in));
      const FringeCell* fringe = SlotAt(i);
      const size_t have = fringe ? fringe->num_itemsets() : 0;
      const size_t inserts =
          fringe ? fringe->NewKeys(cell.items) : cell.items.items.size();
      if (have + inserts != cell.items.total_items) {
        return Status::InvalidArgument(
            "Nips delta: itemset count mismatch (desynced baseline)");
      }
    }
    patch.cells.push_back(std::move(cell));
  }
  // Advancing the fringe's left edge must leave only settled cells
  // behind it (Zone-1 invariant).
  const uint64_t decided = one_ | settles;
  if (RunOfOnes(decided, fringe_left_, options_.bitmap_bits) <
      patch.fringe_left - fringe_left_) {
    return Status::InvalidArgument(
        "Nips delta: fringe advanced over an undecided cell");
  }
  return patch;
}

void Nips::ApplyDeltaPatch(DeltaPatch&& patch) {
  for (DeltaPatch::CellPatch& cell : patch.cells) {
    const int i = cell.index;
    if (cell.settled) DecideOne(i, SettleCause::kMerge);
    if (cell.cell_has_supported) {
      supported_ |= Bit(i);
    } else {
      supported_ &= ~Bit(i);
    }
    if (!cell.settled) {
      tracked_ += SlotFor(i).ApplyItemPatch(std::move(cell.items));
    }
  }
  fringe_left_ = patch.fringe_left;
  fringe_right_ = patch.fringe_right;
}

void Nips::DecideOne(int cell, SettleCause cause) {
  Stamp(cell);
  if (live_ & Bit(cell)) {
    size_t freed = slots_[SlotIndex(cell)].num_itemsets();
    tracked_ -= freed;
    IMPLISTAT_IF_METRICS(
        (cause == SettleCause::kBudget ? pending_.evictions
                                       : pending_.promotions) += freed);
    EraseSlot(cell);  // free all the memory allocated for the cell
  }
  IMPLISTAT_IF_METRICS({
    switch (cause) {
      case SettleCause::kNonImplication:
        ++pending_.settled_non_implication;
        break;
      case SettleCause::kBudget:
        ++pending_.settled_budget;
        break;
      case SettleCause::kMerge:
        ++pending_.settled_merge;
        break;
    }
  });
  one_ |= Bit(cell);
}

void Nips::ShrinkLeft() {
  // Only up to the rightmost hashed cell: the fringe never passes it.
  const int limit = std::min(fringe_right_ + 1, options_.bitmap_bits);
  if (fringe_left_ < limit) {
    fringe_left_ += RunOfOnes(one_, fringe_left_, limit);
  }
}

void Nips::EnforceBudget() {
  size_t budget = ItemBudget();
  if (budget == 0) return;
  // Algorithm 1's "overflowed" branch: force the leftmost undecided cells
  // — the most populated ones, which a genuine non-implication would
  // decide first anyway — until the budget holds. This is the §4.3.3
  // fixation step; it introduces error only for non-implication counts
  // below ~2^-F · F0(A).
  while (tracked_ > budget && fringe_left_ < options_.bitmap_bits &&
         fringe_left_ <= fringe_right_) {
    DecideOne(fringe_left_, SettleCause::kBudget);
    ShrinkLeft();
  }
}

}  // namespace implistat

#include "core/nips.h"

#include <algorithm>
#include <memory>
#include <new>
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
// The hot path never touches these atomics: events accumulate in the
// thread-local PendingTraffic below with plain adds, and FlushMetrics
// pushes bulk deltas at read boundaries.
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

// Fringe events since this thread's last FlushMetrics, across every
// bitmap the thread updated. Plain adds on the insert and (rare) settle
// paths, like the dirty-exclusion counts in fringe_cell.cc; concurrent
// ingest threads each carry their own, and a worker flushes after each
// batch.
struct PendingTraffic {
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t promotions = 0;
  uint64_t settled_non_implication = 0;
  uint64_t settled_budget = 0;
  uint64_t settled_merge = 0;
};
thread_local PendingTraffic t_pending;

void CountInsertions(size_t n) {
  IMPLISTAT_IF_METRICS(t_pending.insertions += n);
}

// capacity_factor · (2^F − 1), or 0 when unbounded.
size_t BudgetOf(const NipsOptions& options) {
  if (options.fringe_size <= 0 || options.capacity_factor <= 0) return 0;
  const int f = std::min(options.fringe_size, 40);
  return static_cast<size_t>(options.capacity_factor) *
         ((size_t{1} << f) - 1);
}

}  // namespace

Nips::Nips(ImplicationConditions conditions, NipsOptions options)
    : bits_(static_cast<uint8_t>(options.bitmap_bits)),
      config_(new Config{conditions, options, BudgetOf(options)}) {
  IMPLISTAT_CHECK(options.bitmap_bits >= 1 && options.bitmap_bits <= 64)
      << "bitmap_bits out of range";
  IMPLISTAT_CHECK(conditions.Validate().ok()) << "invalid conditions";
  // Pre-register the fringe and dirty-exclusion counters so snapshots
  // taken before any traffic still list them (at zero).
  IMPLISTAT_IF_METRICS(NipsMetrics::Get());
  FlushDirtyExclusionMetrics();
}

Nips::Nips(const Config* config)
    : bits_(static_cast<uint8_t>(config->options.bitmap_bits)),
      config_(config) {
  config_->refs.fetch_add(1, std::memory_order_relaxed);
}

Nips::Nips(Nips&& other) noexcept
    : fringe_left_(other.fringe_left_),
      fringe_right_(other.fringe_right_),
      bits_(other.bits_),
      stamped_cells_(other.stamped_cells_),
      tracked_(other.tracked_),
      one_(other.one_),
      live_(std::exchange(other.live_, 0)),
      supported_(other.supported_),
      config_(std::exchange(other.config_, nullptr)),
      slots_(std::exchange(other.slots_, nullptr)),
      stamps_(std::move(other.stamps_)) {}

Nips& Nips::operator=(Nips&& other) noexcept {
  if (this != &other) {
    this->~Nips();
    new (this) Nips(std::move(other));
  }
  return *this;
}

Nips::~Nips() {
  std::destroy_n(slots_, NumSlots());
  std::allocator<FringeCell>().deallocate(slots_, NumSlots());
  if (config_ != nullptr &&
      config_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete config_;
  }
}

void Nips::EnableDeltaTracking() {
  if (!stamps_) stamps_ = std::make_unique<uint64_t[]>(1);  // clock 0
}

void Nips::GrowStamps(int cells) {
  auto grown = std::make_unique<uint64_t[]>(1 + static_cast<size_t>(cells));
  // Clock and the stamps so far; the new cells stay zeroed.
  std::copy_n(stamps_.get(), 1 + stamped_cells_, grown.get());
  stamps_ = std::move(grown);
  stamped_cells_ = static_cast<uint8_t>(cells);
}

size_t Nips::TrackedItemsets() const {
  FlushMetrics();
  return tracked_;
}

void Nips::FlushMetrics() {
  if constexpr (obs::kMetricsEnabled) {
    PendingTraffic& p = t_pending;
    if (p.insertions != 0 || p.evictions != 0 || p.promotions != 0 ||
        p.settled_non_implication != 0 || p.settled_budget != 0 ||
        p.settled_merge != 0) {
      NipsMetrics& m = NipsMetrics::Get();
      m.insertions->Increment(p.insertions);
      m.evictions->Increment(p.evictions);
      m.promotions->Increment(p.promotions);
      m.settled_non_implication->Increment(p.settled_non_implication);
      m.settled_budget->Increment(p.settled_budget);
      m.settled_merge->Increment(p.settled_merge);
      p = PendingTraffic();
    }
    FlushDirtyExclusionMetrics();
  }
}


FringeCell& Nips::SlotFor(int cell) {
  const size_t index = SlotIndex(cell);
  if (!(live_ & Bit(cell))) {
    // Grow by exactly one: a cell turns live at most once and settles at
    // most once, so exact sizing costs at most two reallocations per cell.
    const size_t n = NumSlots();
    std::allocator<FringeCell> alloc;
    FringeCell* grown = alloc.allocate(n + 1);
    std::uninitialized_move_n(slots_, index, grown);
    new (grown + index) FringeCell();
    std::uninitialized_move_n(slots_ + index, n - index, grown + index + 1);
    std::destroy_n(slots_, n);
    alloc.deallocate(slots_, n);
    slots_ = grown;
    live_ |= Bit(cell);
  }
  return slots_[index];
}

void Nips::EraseSlot(int cell) {
  const size_t index = SlotIndex(cell);
  const size_t n = NumSlots();
  std::allocator<FringeCell> alloc;
  FringeCell* shrunk = n > 1 ? alloc.allocate(n - 1) : nullptr;
  std::uninitialized_move_n(slots_, index, shrunk);
  std::uninitialized_move_n(slots_ + index + 1, n - index - 1,
                            shrunk + index);
  std::destroy_n(slots_, n);
  alloc.deallocate(slots_, n);
  slots_ = shrunk;
  live_ &= ~Bit(cell);
}

void Nips::ObserveFringe(int cell, ItemsetKey a, ItemsetKey b) {
  // A fringe observe always mutates the tracked state (at minimum the
  // itemset's support count), so under tracking the cell and the itemset
  // take the next clock value. If the outcome settles the cell below,
  // DecideOne re-stamps it and frees the itemsets (stamps included).
  Stamp(cell);
  const uint64_t stamp = change_clock();
  FringeCell& fringe = SlotFor(cell);
  const size_t before = fringe.num_itemsets();
  FringeCell::Outcome outcome = fringe.Observe(a, b, conditions(), stamp);
  if (fringe.num_itemsets() != before) {
    ++tracked_;
    CountInsertions(1);
  }
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
  if (!(conditions() == other.conditions())) {
    return Status::InvalidArgument("Nips::Merge: conditions differ");
  }
  if (!(options() == other.options())) {
    return Status::InvalidArgument("Nips::Merge: options differ");
  }
  if (other.fringe_right_ > fringe_right_) {
    fringe_right_ = other.fringe_right_;
  }
  for (int i = 0; i < bits_; ++i) {
    if (one_ & Bit(i)) continue;
    if (other.CellIsOne(i)) {
      DecideOne(i, SettleCause::kMerge);
      continue;
    }
    if (other.supported_ & Bit(i)) supported_ |= Bit(i);
    const FringeCell* theirs = other.SlotAt(i);
    if (theirs == nullptr) continue;
    FringeCell& mine = SlotFor(i);
    const size_t before = mine.num_itemsets();
    FringeCell::Outcome outcome = mine.Merge(*theirs, conditions());
    tracked_ += static_cast<uint32_t>(mine.num_itemsets() - before);
    CountInsertions(mine.num_itemsets() - before);
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
  conditions().SerializeTo(out);
  out->PutU32(static_cast<uint32_t>(options().fringe_size));
  out->PutU32(static_cast<uint32_t>(options().capacity_factor));
  out->PutU32(static_cast<uint32_t>(options().bitmap_bits));
  out->PutU32(static_cast<uint32_t>(fringe_left_));
  out->PutU32(static_cast<uint32_t>(fringe_right_ + 1));  // -1 → 0
  // Per cell: value, has_supported, has_data [, FringeCell].
  size_t slot = 0;
  for (int i = 0; i < bits_; ++i) {
    const bool has_data = (live_ & Bit(i)) != 0;
    out->PutBool((one_ & Bit(i)) != 0);
    out->PutBool((supported_ & Bit(i)) != 0);
    out->PutBool(has_data);
    if (has_data) slots_[slot++].SerializeTo(out);
  }
}

StatusOr<Nips> Nips::Deserialize(ByteReader* in, const Nips* sibling) {
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
  if (sibling != nullptr && (!(cond == sibling->conditions()) ||
                             !(options == sibling->options()))) {
    return Status::InvalidArgument(
        "Nips: conditions or options differ across the ensemble");
  }
  Nips nips = sibling != nullptr ? sibling->Sibling() : Nips(cond, options);
  IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&left));
  IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&right_plus_1));
  if (left > bitmap_bits || right_plus_1 > bitmap_bits) {
    return Status::InvalidArgument("Nips: fringe out of range");
  }
  nips.fringe_left_ = static_cast<int8_t>(left);
  nips.fringe_right_ = static_cast<int8_t>(static_cast<int>(right_plus_1) - 1);
  std::vector<FringeCell> slots;  // in cell order
  uint64_t live = 0;
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
      live |= Bit(i);
      nips.tracked_ += static_cast<uint32_t>(fringe.num_itemsets());
      slots.push_back(std::move(fringe));
    }
  }
  CountInsertions(nips.tracked_);
  // Adopt the decoded cells into an exactly sized array.
  if (!slots.empty()) {
    nips.slots_ = std::allocator<FringeCell>().allocate(slots.size());
    std::uninitialized_move(slots.begin(), slots.end(), nips.slots_);
    nips.live_ = live;
  }
  return nips;
}

size_t Nips::MemoryBytes() const {
  FlushMetrics();
  size_t bytes = sizeof(*this) + NumSlots() * sizeof(FringeCell);
  for (size_t i = 0; i < NumSlots(); ++i) {
    // The FringeCell's inline part is already counted in the array.
    bytes += slots_[i].MemoryBytes() - sizeof(FringeCell);
  }
  if (stamps_) bytes += (1 + stamped_cells_) * sizeof(uint64_t);
  return bytes;
}

void Nips::SerializeDeltaTo(uint64_t since_clock, ByteWriter* out) const {
  FlushMetrics();
  out->PutVarint64(static_cast<uint64_t>(fringe_left_));
  out->PutVarint64(static_cast<uint64_t>(fringe_right_ + 1));  // -1 → 0
  const int bits = bits_;
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
  const uint64_t bits = bits_;
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
  for (int i = 0; i < bits_; ++i) {
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
  if (RunOfOnes(decided, fringe_left_, bits_) <
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
      const size_t inserted = SlotFor(i).ApplyItemPatch(std::move(cell.items));
      tracked_ += static_cast<uint32_t>(inserted);
      CountInsertions(inserted);
    }
  }
  fringe_left_ = static_cast<int8_t>(patch.fringe_left);
  fringe_right_ = static_cast<int8_t>(patch.fringe_right);
}

void Nips::DecideOne(int cell, SettleCause cause) {
  Stamp(cell);
  if (live_ & Bit(cell)) {
    const size_t freed = slots_[SlotIndex(cell)].num_itemsets();
    tracked_ -= static_cast<uint32_t>(freed);
    IMPLISTAT_IF_METRICS(
        (cause == SettleCause::kBudget ? t_pending.evictions
                                       : t_pending.promotions) += freed);
    EraseSlot(cell);  // free all the memory allocated for the cell
  }
  IMPLISTAT_IF_METRICS({
    switch (cause) {
      case SettleCause::kNonImplication:
        ++t_pending.settled_non_implication;
        break;
      case SettleCause::kBudget:
        ++t_pending.settled_budget;
        break;
      case SettleCause::kMerge:
        ++t_pending.settled_merge;
        break;
    }
  });
  one_ |= Bit(cell);
}

void Nips::ShrinkLeft() {
  // Only up to the rightmost hashed cell: the fringe never passes it.
  const int limit = std::min(fringe_right_ + 1, int{bits_});
  if (fringe_left_ < limit) {
    fringe_left_ += static_cast<int8_t>(RunOfOnes(one_, fringe_left_, limit));
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
  while (tracked_ > budget && fringe_left_ < bits_ &&
         fringe_left_ <= fringe_right_) {
    DecideOne(fringe_left_, SettleCause::kBudget);
    ShrinkLeft();
  }
}

}  // namespace implistat

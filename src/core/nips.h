// NIPS — Non-Implication Probabilistic Sampling (Algorithm 1).
//
// One FM-style bitmap whose undecided cells (the floating fringe, §4.3.2)
// carry per-itemset counters. The recording event is the discovery of a
// non-implication: once a tracked itemset of a cell violates the
// implication conditions, the cell's value becomes 1 and its memory is
// freed.
//
// Bounding the fringe: a fringe of F cells corresponds to an itemset
// budget of capacity_factor · (2^F − 1) per bitmap (§4.3.2: cells at
// distance 0,1,2,.. from the fringe's right edge expect 1,2,4,.. itemsets,
// doubled for hash-function slack). We enforce the budget directly: when
// the tracked-itemset count exceeds it, the leftmost undecided cells — the
// most populated ones, which would be decided first anyway — are forced to
// value 1 and freed, exactly the §4.3.3 fixation step. Forcing on memory
// pressure rather than eagerly on every float of the fringe's right edge
// avoids a bias the literal reading would introduce: the rightmost hashed
// cell overshoots log2(F0) by a Gumbel-distributed excess, and anchoring
// the forced zone at (rightmost − F) inflates the non-implication estimate
// whenever ~S ≲ F0 even for counts Lemma 2 declares safe. With the budget
// rule the minimum reliably-estimable non-implication count is
// ~2^-F · F0(A), matching §4.3.3 (6.25% of F0 at F = 4).
//
// This class operates on pre-computed cell positions so that an ensemble
// (nips_ci_ensemble.h) can split one hash into routing bits and p() bits;
// use NipsCi for the user-facing estimator.
//
// Layout. A bitmap has at most 64 cells, so the two per-cell flags — the
// decided value and "saw a supported itemset" — are bit masks, and the
// §4.3.2 readout positions are bit scans. Zone-1 (left of the fringe)
// needs nothing else. Only undecided cells that hold itemsets own a
// FringeCell, kept in a dense heap array of exactly popcount(live) cells
// ordered by cell index and located through a third mask (a cell's slot
// is the number of live cells below it). A cell turns live at most once
// and settles at most once, so the array is resized on those events only.
// The conditions and options, identical across an ensemble, sit in one
// shared heap block; per-cell change stamps and the change clock exist
// only once delta tracking is on; fringe-traffic metrics accumulate in
// thread-local counters. The header is 56 bytes, so a bitmap costs those
// plus O(tracked itemsets).

#ifndef IMPLISTAT_CORE_NIPS_H_
#define IMPLISTAT_CORE_NIPS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/conditions.h"
#include "core/fringe_cell.h"
#include "stream/itemset.h"
#include "util/logging.h"

namespace implistat {

struct NipsOptions {
  /// Fringe size F in cells; the per-bitmap itemset budget is
  /// capacity_factor · (2^F − 1). 0 (or negative) means unbounded — every
  /// undecided cell keeps its itemsets (the straw-man of §4.2, the
  /// "Unbounded Fringe" series of Figures 4–6).
  int fringe_size = 4;
  /// Budget multiplier ("we can double the allocated memory", §4.3.2).
  /// 0 = unlimited. Algorithm 1's per-cell "overflowed" condition is
  /// realized at bitmap granularity by this budget: a cell population
  /// that outgrows the fringe's allocation triggers the same
  /// force-leftmost-to-one fixation.
  int capacity_factor = 2;
  /// Bitmap length L in cells.
  int bitmap_bits = 58;

  bool operator==(const NipsOptions&) const = default;
};

class Nips {
 public:
  Nips(ImplicationConditions conditions, NipsOptions options);
  Nips(Nips&& other) noexcept;
  Nips& operator=(Nips&& other) noexcept;
  ~Nips();

  /// An empty bitmap with this one's conditions and options. An ensemble
  /// builds its bitmaps this way so they share one configuration block.
  Nips Sibling() const { return Nips(config_); }

  /// Records that itemset `a` (hashed to cell `cell`) appeared with `b`.
  /// `cell` must be >= 0; positions beyond the bitmap land in its last
  /// cell (with L = 58 this affects ~2^-58 of the keys).
  ///
  /// Inline up to the fringe: once a bitmap has warmed up, nearly every
  /// observe hashes into Zone-1 or an already decided cell and is done
  /// after three header loads, without a call.
  void ObserveAt(int cell, ItemsetKey a, ItemsetKey b) {
    IMPLISTAT_DCHECK(cell >= 0);
    if (cell >= bits_) cell = bits_ - 1;
    if (cell > fringe_right_) {
      fringe_right_ = static_cast<int8_t>(cell);
      // The serialized fringe header changed even if the cell observe
      // below turns out to be a no-op.
      if (stamps_) ++stamps_[0];
    }
    if (cell < fringe_left_) return;  // Zone-1: value already 1, recorded
    if (one_ & Bit(cell)) return;     // recorded events are never erased
    ObserveFringe(cell, a, b);
  }

  /// Cache hint that ObserveAt is about to touch this bitmap. The batched
  /// ingest paths (NipsCi::ObserveBatch, the shard workers of
  /// src/parallel) issue these a few records ahead so the loads of a batch
  /// overlap instead of serializing on misses. The masks that decide most
  /// observes live in the header; a live cell's itemsets sit behind the
  /// slot array.
  void Prefetch() const {
    __builtin_prefetch(this, /*rw=*/1, /*locality=*/1);
    __builtin_prefetch(slots_, /*rw=*/1, /*locality=*/1);
  }

  /// Raw position R_~S: index of the leftmost cell whose value is not 1.
  /// Feeds the non-implication estimate (Algorithm 2, lines 5–8).
  int RNonImplication() const {
    return fringe_left_ + RunOfOnes(one_, fringe_left_, bits_);
  }

  /// Raw position R_F0sup: index of the leftmost cell with neither value 1
  /// nor a tracked itemset meeting the minimum support (Algorithm 2, lines
  /// 1–4, with the §4.4 "virtual one" rule: a fringe cell counts as 1 when
  /// some itemset in it meets the minimum support; Zone-1 cells count by
  /// definition).
  int RSupport() const {
    return fringe_left_ + RunOfOnes(one_ | supported_, fringe_left_, bits_);
  }

  /// Cell value as the bitmap sees it.
  bool CellIsOne(int cell) const;

  /// Itemsets currently tracked across the fringe; bounded by
  /// ItemBudget() in bounded mode. A read boundary: folds pending metric
  /// events into the global registry (see FlushMetrics).
  size_t TrackedItemsets() const;

  /// Folds the calling thread's pending fringe-traffic and dirty-exclusion
  /// events into the global metrics registry. The ingest path never
  /// touches an atomic: events accumulate in thread-local counters (for
  /// every bitmap the thread updates) and become visible here. Called
  /// from every read accessor (TrackedItemsets / MemoryBytes /
  /// SerializeTo), from NipsCi before estimates and snapshots, and by
  /// parallel ingest workers after each batch; no-op when metrics are
  /// compiled out.
  static void FlushMetrics();

  /// The per-bitmap itemset budget, or 0 when unbounded.
  size_t ItemBudget() const { return config_->budget; }

  /// Folds another bitmap into this one: cell values OR together,
  /// undecided cells merge their tracked itemsets, then the budget is
  /// re-enforced. Both bitmaps must have identical conditions and options
  /// (and, in an ensemble, the same hash function — see NipsCi::Merge).
  /// The merged bitmap summarizes the concatenation of the two input
  /// streams, up to the node-local prefix semantics of the monotone-dirty
  /// rule (see ItemsetState::Merge).
  Status Merge(const Nips& other);

  /// Heap and header bytes of this bitmap, not counting the shared
  /// configuration block (see ConfigBytes) — an ensemble counts that once.
  size_t MemoryBytes() const;
  /// Size of the configuration block shared by this bitmap's siblings.
  static constexpr size_t ConfigBytes() { return sizeof(Config); }

  void SerializeTo(ByteWriter* out) const;
  /// Decodes one bitmap. With a `sibling`, the decoded conditions and
  /// options must equal the sibling's, and the bitmap shares its
  /// configuration block; a mismatch is refused.
  static StatusOr<Nips> Deserialize(ByteReader* in,
                                    const Nips* sibling = nullptr);

  // --- Delta shipping (src/delta/) ---------------------------------------
  //
  // Once tracking is enabled, every mutation — a fringe-cell observe, a
  // cell settling to 1, the rightmost hashed position advancing — bumps
  // change_clock() and stamps the touched cell (and itemset). A delta
  // section then ships the fringe header plus exactly the cells stamped
  // after the receiver's baseline clock; applying it to a bitmap that was
  // byte-identical at that clock reproduces this bitmap byte-for-byte
  // (SerializeTo equality). Tracking costs nothing until enabled — the
  // hot path tests one pointer.

  /// Starts stamping mutations. Idempotent. State mutated before this
  /// call is never shipped in a delta (the baseline full snapshot that
  /// enabled tracking already carries it).
  void EnableDeltaTracking();
  bool delta_tracking() const { return stamps_ != nullptr; }

  /// Monotone mutation counter; equal clocks mean byte-identical state
  /// (while tracking is on and no Merge/restore intervened).
  uint64_t change_clock() const { return stamps_ ? stamps_[0] : 0; }

  /// Decoded, target-validated form of one bitmap's delta section.
  struct DeltaPatch {
    struct CellPatch {
      int index = 0;
      bool settled = false;        // cell decided to 1 since the baseline
      bool cell_has_supported = false;
      FringeCell::ItemPatch items; // live cells only (!settled)
    };
    int fringe_left = 0;
    int fringe_right = -1;
    std::vector<CellPatch> cells;
  };

  /// Serializes the changes since `since_clock` (a clock value recorded
  /// at the receiver's baseline snapshot).
  void SerializeDeltaTo(uint64_t since_clock, ByteWriter* out) const;

  /// Decodes one delta section AND validates it against this bitmap (the
  /// intended apply target): fringe bounds monotone, settled cells not
  /// already settled, item counts consistent. Any mismatch — corruption
  /// or a desynced baseline — refuses without touching *this.
  StatusOr<DeltaPatch> DecodeDeltaSection(ByteReader* in) const;

  /// Applies a patch validated by DecodeDeltaSection. Infallible.
  void ApplyDeltaPatch(DeltaPatch&& patch);

  int fringe_left() const { return fringe_left_; }
  int fringe_right() const { return fringe_right_; }
  const ImplicationConditions& conditions() const {
    return config_->conditions;
  }
  const NipsOptions& options() const { return config_->options; }

 private:
  // What every bitmap of an ensemble has in common, held once on the heap
  // and shared by reference count. (NipsCi is moved wholesale by
  // RestoreState, so the block cannot live inside the ensemble object.)
  struct Config {
    ImplicationConditions conditions;
    NipsOptions options;
    size_t budget;  // ItemBudget(), precomputed for EnforceBudget
    mutable std::atomic<uint32_t> refs{1};
  };

  // Shares `config` (one more reference).
  explicit Nips(const Config* config);

  // ObserveAt for an undecided cell at or right of fringe_left_.
  void ObserveFringe(int cell, ItemsetKey a, ItemsetKey b);

  // Why a cell settled to value 1 — distinguishes the §4.3.3 forced
  // fixation (its freed itemsets are "evictions") from genuine
  // non-implication / merge settles ("promotions"). Observability only.
  enum class SettleCause { kNonImplication, kBudget, kMerge };

  static uint64_t Bit(int cell) { return uint64_t{1} << cell; }

  // Length of the run of set bits in `mask` starting at bit `from`, capped
  // so that from + run <= bits. `from` may equal `bits` (an empty run).
  static int RunOfOnes(uint64_t mask, int from, int bits) {
    if (from >= bits) return 0;
    const int run = std::countr_one(mask >> from);
    return run < bits - from ? run : bits - from;
  }

  // Index into slots_ of `cell`'s FringeCell (whether or not it exists):
  // the number of live cells below it. The live mask is sparse (a cell or
  // two), so clearing bits one at a time beats std::popcount, which is a
  // library call on x86-64 builds without -mpopcnt.
  size_t SlotIndex(int cell) const {
    size_t n = 0;
    for (uint64_t below = live_ & (Bit(cell) - 1); below != 0;
         below &= below - 1) {
      ++n;
    }
    return n;
  }
  // `cell`'s FringeCell, or nullptr when it holds none.
  const FringeCell* SlotAt(int cell) const {
    return (live_ & Bit(cell)) ? &slots_[SlotIndex(cell)] : nullptr;
  }
  // `cell`'s FringeCell, created empty if it holds none.
  FringeCell& SlotFor(int cell);
  // Frees `cell`'s FringeCell (which must exist).
  void EraseSlot(int cell);
  size_t NumSlots() const { return static_cast<size_t>(std::popcount(live_)); }

  // Change stamp of `cell`: the clock of its last mutation since delta
  // tracking began, 0 otherwise.
  uint64_t StampOf(int cell) const {
    return cell < stamped_cells_ ? stamps_[1 + cell] : 0;
  }
  // Under tracking, bumps the change clock and stamps `cell` with it.
  void Stamp(int cell) {
    if (!stamps_) return;
    if (cell >= stamped_cells_) GrowStamps(cell + 1);
    stamps_[1 + cell] = ++stamps_[0];
  }
  // Extends the stamps to `cells` cells, the new ones 0.
  void GrowStamps(int cells);

  // Marks `cell` as value 1 and releases its tracked itemsets.
  void DecideOne(int cell, SettleCause cause);

  // Advances fringe_left_ past decided cells.
  void ShrinkLeft();

  // Forces leftmost undecided cells to 1 until the budget holds (§4.3.3
  // fixation).
  void EnforceBudget();

  // ObserveAt's fields come first: most observes are decided by the
  // fringe bounds alone (Zone-1), the rest by the masks.
  int8_t fringe_left_ = 0;    // leftmost undecided cell (Zone-1 ends here)
  int8_t fringe_right_ = -1;  // rightmost hashed cell; -1 before any input
  uint8_t bits_;              // options().bitmap_bits
  uint8_t stamped_cells_ = 0; // cells covered by stamps_
  // Itemsets across the fringe. 32 bits: even the unbounded fringe of the
  // §4.2 straw-man would need tens of gigabytes to overflow it.
  uint32_t tracked_ = 0;
  uint64_t one_ = 0;        // bit i: cell i decided to value 1
  uint64_t live_ = 0;       // bit i: cell i owns a FringeCell in slots_
  uint64_t supported_ = 0;  // bit i: cell i saw an itemset with φ(a) ≥ σ
  const Config* config_;
  // One per live_ bit, in cell order; exactly NumSlots() long.
  FringeCell* slots_ = nullptr;
  // Delta tracking, allocated by EnableDeltaTracking: [0] is the change
  // clock, [1 + i] cell i's stamp for cells [0, stamped_cells_). Grown to
  // the highest cell stamped so far (cells right of the fringe are never
  // touched), so an untracked bitmap pays nothing and a tracked one pays
  // for its fringe.
  std::unique_ptr<uint64_t[]> stamps_;
};

}  // namespace implistat

#endif  // IMPLISTAT_CORE_NIPS_H_

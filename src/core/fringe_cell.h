// One undecided cell of the NIPS bitmap (§4.3.4).
//
// A fringe cell tracks every itemset a hashed into it together with the
// itemsets of B each appears with, so the cell can be assigned the value 1
// the moment one tracked itemset becomes a known non-implication.
//
// The itemsets live in one flat vector sorted by key. The fringe budget
// caps a whole bitmap at capacity_factor · (2^F − 1) itemsets (30 at the
// paper's F = 4), so a binary search beats hashing here and the canonical
// serialization order comes for free. Only the unbounded-fringe mode lets
// a cell grow large; inserts there cost a shift of the vector's tail.

#ifndef IMPLISTAT_CORE_FRINGE_CELL_H_
#define IMPLISTAT_CORE_FRINGE_CELL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/conditions.h"
#include "stream/itemset.h"

namespace implistat {

/// Folds this thread's pending §3.1.1 dirty-exclusion counts into the
/// global metrics registry (no-op when metrics are compiled out). The
/// hot path only bumps a thread-local accumulator; Nips::FlushMetrics
/// calls this at every read boundary, so single-threaded pipelines see
/// exact counts in any snapshot taken after a read.
void FlushDirtyExclusionMetrics();

class FringeCell {
 public:
  enum class Outcome {
    kUndecided,        // no tracked itemset is a non-implication yet
    kNonImplication,   // `a` just became dirty: the cell's value is 1
  };

  /// Records one (a, b) occurrence. A non-zero `stamp` (the owning
  /// bitmap's change clock, monotone) also marks `a` as changed at that
  /// clock for delta shipping; 0 leaves the itemset's stamp alone.
  Outcome Observe(ItemsetKey a, ItemsetKey b,
                  const ImplicationConditions& cond, uint64_t stamp = 0);

  /// True when some tracked itemset meets the minimum support (drives the
  /// F0_sup scan of Algorithm 2 / §4.4).
  bool has_supported() const { return has_supported_; }

  /// Number of distinct itemsets a currently tracked (the fringe budget
  /// of §4.3.2 sums this across cells).
  size_t num_itemsets() const { return items_.size(); }

  /// Folds another cell's tracked itemsets into this one (distributed
  /// aggregation). Returns kNonImplication if any merged itemset is a
  /// known non-implication, i.e. the merged cell's value must become 1.
  Outcome Merge(const FringeCell& other, const ImplicationConditions& cond);

  size_t MemoryBytes() const;

  void SerializeTo(ByteWriter* out) const;
  static StatusOr<FringeCell> Deserialize(ByteReader* in);

  // --- Delta shipping (src/delta/) ---------------------------------------
  //
  // The fringe is where NIPS state churns, but per poll interval only the
  // itemsets actually observed mutate — a small slice of a mature cell's
  // population. The owning Nips bitmap stamps each touched itemset with
  // its change clock (Observe's `stamp`); an item patch then ships exactly
  // the states whose stamp postdates the receiver's baseline, and the
  // receiver upserts them. Itemsets never leave a live cell (a settled
  // cell is shipped as a whole-cell event by the bitmap), so upserts plus
  // the shipped total count reconstruct the sender's cell byte-for-byte.

  /// Decoded form of one cell's item patch: the sender's has_supported
  /// flag, its total tracked-itemset count (a desync check), and the
  /// changed (key, state) pairs in canonical key order.
  struct ItemPatch {
    bool has_supported = false;
    uint64_t total_items = 0;
    std::vector<std::pair<ItemsetKey, ItemsetState>> items;
  };

  /// Serializes the item patch for every itemset stamped after
  /// `since_stamp`. Itemsets never stamped (untouched since tracking
  /// began) are never shipped — the receiver's baseline already has them.
  void SerializeItemPatchTo(uint64_t since_stamp, ByteWriter* out) const;

  static StatusOr<ItemPatch> DeserializeItemPatch(ByteReader* in);

  /// Number of patch keys not currently tracked here (the upsert inserts;
  /// validation: num_itemsets() + NewKeys == patch.total_items).
  size_t NewKeys(const ItemPatch& patch) const;

  /// Applies a validated patch. Infallible: replaces/inserts the shipped
  /// states and adopts the sender's has_supported flag. Returns the
  /// change in num_itemsets() (always >= 0).
  size_t ApplyItemPatch(ItemPatch&& patch);

 private:
  struct Entry {
    ItemsetKey key;
    // Change clock of the itemset's last stamped observe; 0 until then
    // (always 0 unless the owning bitmap tracks deltas). Merges, restores
    // and patches never stamp.
    uint64_t stamp;
    ItemsetState state;
  };

  // Index of the first entry with key >= `key` (items_.size() if none).
  size_t LowerBound(ItemsetKey key) const;
  bool HasKeyAt(size_t i, ItemsetKey key) const {
    return i < items_.size() && items_[i].key == key;
  }

  std::vector<Entry> items_;  // sorted by key, keys unique
  bool has_supported_ = false;
};

}  // namespace implistat

#endif  // IMPLISTAT_CORE_FRINGE_CELL_H_

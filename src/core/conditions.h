// Implication conditions (§3.1.1) and the per-itemset state machine that
// evaluates them.
//
// An implication a → B holds under conditions (K, σ, γ, c) when
//   1. multiplicity |Φ(a→B)| ≤ K   (a appears with at most K itemsets of B),
//   2. support φ(a) ≥ σ            (absolute tuple count),
//   3. top-c confidence γ_c(a→B) ≥ γ (the c largest φ(a,b)/φ(a) sum to ≥ γ).
//
// Semantics are monotone-dirty: the first time an itemset satisfies the
// support condition but violates 1 or 3, it is excluded from the
// implication count forever, even if a later suffix of the stream would
// satisfy the conditions again. Every estimator in this library (NIPS, the
// exact baseline, distinct sampling, ILC) shares ItemsetState so they all
// answer exactly the same question.

#ifndef IMPLISTAT_CORE_CONDITIONS_H_
#define IMPLISTAT_CORE_CONDITIONS_H_

#include <cstdint>
#include <span>

#include "stream/itemset.h"
#include "util/serde.h"
#include "util/status.h"
#include "util/status_or.h"

namespace implistat {

struct ImplicationConditions {
  /// Maximum multiplicity K (condition 1).
  uint32_t max_multiplicity = 1;
  /// Minimum support σ, an absolute number of tuples (condition 2; §3.1
  /// explains why absolute rather than relative).
  uint64_t min_support = 1;
  /// Minimum top-c confidence γ in (0, 1] (condition 3).
  double min_top_confidence = 1.0;
  /// The c of the top-c confidence; typically c ≤ K.
  uint32_t confidence_c = 1;
  /// Governs how the multiplicity condition is enforced.
  ///
  /// true (the §3.1.1 definition): a (K+1)-th distinct b makes a supported
  /// itemset a non-implication outright — needed for one-to-many queries
  /// like "sources contacting more than ten destinations".
  ///
  /// false (the Algorithm 1 / §6.1 behaviour): K only bounds the per-
  /// itemset counters; at most K pair counters are kept (a new b can evict
  /// a counter still at 1) and violations are detected solely through the
  /// top-c confidence. This matches the paper's own experiments, whose
  /// qualifying itemsets deliberately carry a few extra noise pairs.
  bool strict_multiplicity = true;

  Status Validate() const;

  void SerializeTo(ByteWriter* out) const;
  static StatusOr<ImplicationConditions> Deserialize(ByteReader* in);
};

bool operator==(const ImplicationConditions& a,
                const ImplicationConditions& b);

/// Which condition turned an itemset dirty (§3.1.1). Observability only —
/// it does not affect estimates and is not serialized, so states decoded
/// from the wire report kNone.
enum class DirtyReason : uint8_t {
  kNone = 0,
  kMultiplicity = 1,  // condition 1: |Φ(a→B)| > K
  kConfidence = 2,    // condition 3: γ_c(a→B) < γ
};

/// Tracks one itemset a of A: its support, the supports of the (a, b)
/// pairs, and whether a is a known non-implication ("dirty").
///
/// Layout (32 bytes). Every fringe itemset of every NIPS bitmap is one of
/// these, and at the paper's K = 1 an itemset holds a single pair counter,
/// so the first counter is stored inline: a K = 1 state never allocates.
/// A second distinct b moves the counters to a heap array (in arrival
/// order, which is also their serialized order) that grows by doubling,
/// capped at K unless tracking is unlimited. Dirty and multiplicity-
/// exceeded states drop their counters and free the array.
class ItemsetState {
 public:
  /// With `unlimited_tracking` the state keeps a counter for *every*
  /// distinct b (exact semantics — what the ground-truth counter uses);
  /// otherwise at most K pair counters are kept, per the estimator memory
  /// bounds of §4.6. The flag is irrelevant under strict multiplicity,
  /// where a (K+1)-th b settles the itemset's fate anyway.
  explicit ItemsetState(bool unlimited_tracking = false)
      : unlimited_tracking_(unlimited_tracking) {}
  ItemsetState(const ItemsetState& other);
  ItemsetState(ItemsetState&& other) noexcept;
  ItemsetState& operator=(const ItemsetState& other);
  ItemsetState& operator=(ItemsetState&& other) noexcept;
  ~ItemsetState() { ClearPairs(); }

  /// Records one occurrence of (a, b) and re-evaluates the conditions.
  /// Returns true iff the itemset is dirty after the update.
  bool Observe(ItemsetKey b, const ImplicationConditions& cond);

  /// Known non-implication: satisfied σ at some point while violating the
  /// multiplicity or top-c confidence condition.
  bool dirty() const { return dirty_; }

  /// The condition that made this state dirty; kNone while clean (and for
  /// deserialized states — see DirtyReason).
  DirtyReason dirty_reason() const { return dirty_reason_; }

  /// φ(a) ≥ σ.
  bool supported(const ImplicationConditions& cond) const {
    return support_ >= cond.min_support;
  }

  uint64_t support() const { return support_; }

  /// Number of distinct b itemsets seen with a. Saturates at K + 1 once
  /// the multiplicity condition is violated (the individual pairs are
  /// dropped to keep the state O(K)).
  uint32_t multiplicity() const { return mult_; }

  /// Sum of the c largest confidences φ(a,b)/φ(a); 0 when support is 0.
  double TopConfidence(uint32_t c) const;

  /// Folds another node's state for the same itemset into this one
  /// (distributed aggregation, §1-2: summaries are merged up a hierarchy
  /// instead of shipping raw streams). Supports add; pair counters merge
  /// under this state's tracking policy; dirtiness is inherited from
  /// either side and the conditions are re-evaluated on the merged
  /// counters. Exact for the concatenation of the two streams up to the
  /// order-dependence inherent in monotone-dirty semantics (an itemset
  /// is merged-dirty iff some node-local prefix violated the conditions).
  void Merge(const ItemsetState& other, const ImplicationConditions& cond);

  size_t MemoryBytes() const;

  void SerializeTo(ByteWriter* out) const;
  static StatusOr<ItemsetState> Deserialize(ByteReader* in);

 private:
  // One (a, b) pair counter φ(a, b).
  struct Pair {
    ItemsetKey b;
    uint64_t count;
  };
  // The counters once there are two or more: a heap array at `capacity`.
  struct Spill {
    Pair* data;
    uint32_t size;
    uint32_t capacity;
  };
  enum class Storage : uint8_t { kEmpty, kInline, kSpilled };

  std::span<Pair> pairs() {
    switch (storage_) {
      case Storage::kInline:
        return {&counters_.one, 1};
      case Storage::kSpilled:
        return {counters_.spill.data, counters_.spill.size};
      default:
        return {};
    }
  }
  std::span<const Pair> pairs() const {
    return const_cast<ItemsetState*>(this)->pairs();
  }
  Pair* FindPair(ItemsetKey b);
  // Sum of the c largest counts (as a multiset, so ties do not matter).
  static uint64_t TopCountSum(std::span<const Pair> pairs, uint32_t c);
  // Appends a counter, spilling to (or growing) the heap array.
  void AppendPair(ItemsetKey b, uint64_t count,
                  const ImplicationConditions& cond);
  // Drops every counter and frees the heap array.
  void ClearPairs();
  // Marks the state dirty for good (§3.1.1) and drops its counters.
  void MarkDirty(DirtyReason reason);
  // Copies `other`'s counters into this state, which holds none.
  void CopyPairsFrom(const ItemsetState& other);
  // Copies every field but the counters.
  void CopyFlagsFrom(const ItemsetState& other);

  union Counters {
    Pair one;     // Storage::kInline
    Spill spill;  // Storage::kSpilled
  };

  uint64_t support_ = 0;
  Counters counters_ = {};
  uint32_t mult_ = 0;
  Storage storage_ = Storage::kEmpty;
  DirtyReason dirty_reason_ = DirtyReason::kNone;
  bool dirty_ : 1 = false;
  bool mult_exceeded_ : 1 = false;
  bool unlimited_tracking_ : 1 = false;
};

}  // namespace implistat

#endif  // IMPLISTAT_CORE_CONDITIONS_H_

// 2-independent multiply-shift hashing (Dietzfelbinger et al.).
//
// h(x) = ((a*x + b) mod 2^128) >> 64 computed in 128-bit arithmetic with
// odd multiplier a. Pairwise independence is what the classic analysis of
// probabilistic counting assumes of its hash functions.

#ifndef IMPLISTAT_HASH_MULTIPLY_SHIFT_H_
#define IMPLISTAT_HASH_MULTIPLY_SHIFT_H_

#include <cstdint>
#include <memory>

#include "hash/hash64.h"

namespace implistat {

class MultiplyShiftHasher final : public Hasher64 {
 public:
  /// Draws (a, b) from `seed`; `a` is forced odd.
  explicit MultiplyShiftHasher(uint64_t seed);

  /// Constructs with explicit parameters (a is forced odd).
  MultiplyShiftHasher(uint64_t a_hi, uint64_t a_lo, uint64_t b_hi,
                      uint64_t b_lo);

  uint64_t Hash(uint64_t key) const override;
  std::unique_ptr<Hasher64> Clone() const override;
  size_t MemoryBytes() const override { return sizeof(*this); }

 private:
  unsigned __int128 a_;
  unsigned __int128 b_;
};

}  // namespace implistat

#endif  // IMPLISTAT_HASH_MULTIPLY_SHIFT_H_

// Linear hash functions over GF(2).
//
// h(x) = M·x ⊕ c where M is a random 64×64 bit matrix and c a random
// vector, all arithmetic over GF(2). This is the "linear hash function"
// family the paper's approximation section (§4.7.1) and Alon–Matias–
// Szegedy's F0 analysis use: for such h the probabilistic-counting bound
// P[(1/c) ≤ F̂0/F0 ≤ c] ≥ 1 − 2/c holds.

#ifndef IMPLISTAT_HASH_LINEAR_GF2_H_
#define IMPLISTAT_HASH_LINEAR_GF2_H_

#include <array>
#include <cstdint>
#include <memory>

#include "hash/hash64.h"

namespace implistat {

class LinearGf2Hasher final : public Hasher64 {
 public:
  /// Draws the matrix rows and offset from `seed`. Rows are re-drawn until
  /// the matrix is nonsingular so the map is a bijection (distinct keys
  /// stay distinct, which the fringe-zone bookkeeping relies on).
  explicit LinearGf2Hasher(uint64_t seed);

  uint64_t Hash(uint64_t key) const override;
  std::unique_ptr<Hasher64> Clone() const override;
  size_t MemoryBytes() const override { return sizeof(*this); }

 private:
  // columns_[j] is the j-th column of M, so M·x = XOR of columns where x
  // has a 1-bit; evaluated with a parity trick per row instead (see .cc).
  std::array<uint64_t, 64> columns_;
  uint64_t offset_;
};

}  // namespace implistat

#endif  // IMPLISTAT_HASH_LINEAR_GF2_H_

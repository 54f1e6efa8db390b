// Simple tabulation hashing (Zobrist / Patrascu–Thorup).
//
// The 64-bit key is split into 8 bytes; each byte indexes a table of random
// 64-bit words and the results are XOR-ed. 3-independent, and known to
// behave like full randomness for many streaming estimators — a good match
// for the bitmap sketches here when the mix hasher is considered too
// "magical" for an analysis.

#ifndef IMPLISTAT_HASH_TABULATION_H_
#define IMPLISTAT_HASH_TABULATION_H_

#include <array>
#include <cstdint>
#include <memory>

#include "hash/hash64.h"

namespace implistat {

class TabulationHasher final : public Hasher64 {
 public:
  explicit TabulationHasher(uint64_t seed);

  uint64_t Hash(uint64_t key) const override;
  std::unique_ptr<Hasher64> Clone() const override;
  size_t MemoryBytes() const override { return sizeof(*this); }

 private:
  // 8 tables of 256 random words, filled from the seed.
  std::array<std::array<uint64_t, 256>, 8> tables_;
};

}  // namespace implistat

#endif  // IMPLISTAT_HASH_TABULATION_H_

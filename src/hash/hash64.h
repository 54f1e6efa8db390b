// 64-bit hash function abstraction.
//
// NIPS/CI and every sketch in this repository consume hashes through the
// Hasher64 interface so that hash families can be swapped: the default
// mixer (SplitMix64 finalizer), 2-independent multiply-shift, 3-independent
// tabulation, and the GF(2) linear family the paper's (ε,δ) analysis
// (§4.7.1, following Alon–Matias–Szegedy) relies on.

#ifndef IMPLISTAT_HASH_HASH64_H_
#define IMPLISTAT_HASH_HASH64_H_

#include <cstddef>
#include <cstdint>
#include <memory>

namespace implistat {

class Hasher64 {
 public:
  virtual ~Hasher64() = default;

  /// Maps a 64-bit key to a 64-bit hash, uniform over binary strings of
  /// length 64 for a random member of the family.
  virtual uint64_t Hash(uint64_t key) const = 0;

  /// Clones this hasher (same seed / tables).
  virtual std::unique_ptr<Hasher64> Clone() const = 0;

  /// Bytes a heap-allocated instance occupies (tabulation carries 16 KiB
  /// of tables), for the owners' MemoryBytes accounting.
  virtual size_t MemoryBytes() const = 0;
};

/// Stateless strong mixer: SplitMix64 of the key XOR-ed with a *mixed*
/// seed mask. The mask is SplitMix64(seed), not the raw seed: with a raw
/// mask, seeds differing only in low bits would XOR-permute any dense key
/// set onto itself and "independent" trials would see identical hash
/// multisets. Excellent avalanche; the default everywhere.
class MixHasher final : public Hasher64 {
 public:
  explicit MixHasher(uint64_t seed);
  uint64_t Hash(uint64_t key) const override;
  std::unique_ptr<Hasher64> Clone() const override;
  size_t MemoryBytes() const override { return sizeof(*this); }
 private:
  uint64_t mask_;
};

/// Convenience free function: MixHasher(seed).Hash(key) without the
/// object. Mixes the seed on every call; prefer the class in hot loops.
uint64_t MixHash(uint64_t key, uint64_t seed);

}  // namespace implistat

#endif  // IMPLISTAT_HASH_HASH64_H_

// Mixing helpers shared by the api layer's cache keys (ColoringSpecHash
// and the LP content fingerprint, FingerprintLp). Kept in one place so
// both keyings agree on canonicalization — in particular the
// -0.0 fold, which keeps bitwise hashing consistent with operator== on
// doubles. NaN never reaches a cache key (the Compressor boundary rejects
// non-finite options and ValidateLp rejects non-finite coefficients).

#ifndef QSC_API_HASHING_H_
#define QSC_API_HASHING_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "qsc/coloring/backend.h"

namespace qsc {
namespace api_internal {

// FNV-1a over the bytes of a 64-bit word.
inline uint64_t HashMixWord(uint64_t h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

// The bits of `v` with -0.0 folded onto 0.0.
inline uint64_t DoubleBits(double v) {
  if (v == 0.0) v = 0.0;
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

inline uint64_t HashMixDouble(uint64_t h, double v) {
  return HashMixWord(h, DoubleBits(v));
}

// One multiply-xorshift step per 64-bit word: the LP fingerprint's mix,
// which hashes megabytes per request where HashMixWord's byte loop would
// cost eight multiplies per word.
inline uint64_t HashMixWideWord(uint64_t h, uint64_t word) {
  h = (h ^ word) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 29);
}

constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ull;

// Canonical backend spelling for equality and hashing: the empty string
// means the default backend (pre-registry specs keep their meaning).
// Callers store names already canonicalized by CanonicalBackendName; this
// only folds the ""-default equivalence.
inline const std::string& BackendOrDefault(const std::string& backend) {
  static const std::string kDefault(kDefaultColoringBackend);
  return backend.empty() ? kDefault : backend;
}

// Mixes a spec's backend name into a cache key. The default backend mixes
// *nothing*, so every pre-registry spec — default-constructed, backend
// unset — hashes exactly as it did before backends existed, keeping the
// committed cache-resume corpus hashes bit-identical for rothko.
inline uint64_t HashMixBackendName(uint64_t h, const std::string& backend) {
  const std::string& canonical = BackendOrDefault(backend);
  if (canonical == kDefaultColoringBackend) return h;
  for (const char c : canonical) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace api_internal
}  // namespace qsc

#endif  // QSC_API_HASHING_H_

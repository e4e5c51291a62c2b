#ifndef XRPC_BASE_PRNG_H_
#define XRPC_BASE_PRNG_H_

#include <cstdint>

namespace xrpc {

/// Small deterministic PRNG (SplitMix64) used wherever randomness must be
/// reproducible across runs and platforms: fault-injection schedules in the
/// simulated network and retry-backoff jitter. std::mt19937 is avoided so
/// that a seed pins the exact sequence independently of the standard
/// library implementation.
class DeterministicPrng {
 public:
  explicit DeterministicPrng(uint64_t seed) : state_(seed) {}

  uint64_t NextUint64() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  void Reseed(uint64_t seed) { state_ = seed; }

 private:
  uint64_t state_;
};

/// SplitMix-style seed mixer: every (seed, stream) pair — a schedule index,
/// a thread, a tenant — gets an independent DeterministicPrng seed.
inline uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  return x;
}

}  // namespace xrpc

#endif  // XRPC_BASE_PRNG_H_

// Counter-based randomness for the fault subsystem. Every fault decision
// (frame loss, Gilbert–Elliott transitions, churn victim choice) is a pure
// hash of an explicit key — there is NO sequential RNG stream anywhere in
// src/fault/. That is what makes injected faults bit-identical for every
// --threads value: a draw depends only on (seed, run, round/tick, src, dst,
// salt, nonce), never on how many draws other links or other runs made
// before it (docs/hardening.md, "Concurrency & determinism").
//
// wsnq-lint's `fault-rng` rule enforces this: constructing a wsnq::Rng in
// src/fault/ outside this helper fails the lint test.

#ifndef WSNQ_FAULT_FAULT_KEY_H_
#define WSNQ_FAULT_FAULT_KEY_H_

#include <cstdint>

namespace wsnq {

/// Stream discriminators: two draws with different salts are independent
/// even when every other key field matches. Central registry so streams
/// cannot collide across fault components.
enum class FaultStream : uint32_t {
  kUplinkData = 1,   ///< data-frame loss on the child -> parent channel
  kDownlinkAck = 2,  ///< ack-frame loss on the parent -> child channel
  kGilbertStep = 3,  ///< one Gilbert–Elliott state transition
  kGilbertInit = 4,  ///< Gilbert–Elliott stationary (re)initialization
  kChurn = 5,        ///< crash-victim selection
};

/// The full name of one random decision. Unused fields stay at their
/// defaults; `round` doubles as the logical tick for tick-keyed draws
/// (every frame occupies a distinct tick, so tick keying subsumes round
/// keying), and `nonce` disambiguates multiple draws under one key.
struct FaultKey {
  uint64_t seed = 0;  ///< config.seed — the experiment master seed
  int64_t run = 0;
  int64_t round = 0;  ///< round index, or logical tick for link chains
  int32_t src = -1;
  int32_t dst = -1;
  FaultStream salt = FaultStream::kUplinkData;
  uint64_t nonce = 0;
};

/// SplitMix64 finalizer: a bijective avalanche mix, the standard way to
/// turn a structured counter into uniform bits.
inline uint64_t FaultMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// 64 uniform bits for `key`. Fields are folded through FaultMix one at a
/// time so every field fully avalanches before the next is absorbed.
inline uint64_t FaultBits(const FaultKey& key) {
  uint64_t h = FaultMix(key.seed);
  h = FaultMix(h ^ static_cast<uint64_t>(key.run));
  h = FaultMix(h ^ static_cast<uint64_t>(key.round));
  h = FaultMix(h ^ ((static_cast<uint64_t>(static_cast<uint32_t>(key.src))
                     << 32) |
                    static_cast<uint64_t>(static_cast<uint32_t>(key.dst))));
  h = FaultMix(h ^ static_cast<uint64_t>(key.salt));
  h = FaultMix(h ^ key.nonce);
  return h;
}

/// Uniform double in [0, 1) from the top 53 bits of FaultBits.
inline double FaultUniform(const FaultKey& key) {
  return static_cast<double>(FaultBits(key) >> 11) * 0x1.0p-53;
}

/// One Bernoulli(p) trial keyed by `key`.
inline bool FaultBernoulli(const FaultKey& key, double probability) {
  return FaultUniform(key) < probability;
}

}  // namespace wsnq

#endif  // WSNQ_FAULT_FAULT_KEY_H_

// FNV-1a 64: the repo's one hash family and the one home of its
// constants.
//
// Every digest in the repo folds bytes through this helper: the capsule
// layer (envelope digests, state-walk digests), core::run_key's run
// identity, the result store's content keys (capsule::Io::digester()
// walks, src/artifacts/result_store.hpp), and every test that
// cross-checks a digest. The offset basis and prime live here and
// nowhere else. FNV-1a is simple, byte-order-free, and streamable one
// byte at a time.
#pragma once

#include <cstddef>
#include <cstdint>

namespace repro::base {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x00000100000001b3ULL;

/// Fold `n` bytes into an FNV-1a accumulator. Pass a previous return
/// value as `acc` to hash a stream in chunks.
[[nodiscard]] constexpr std::uint64_t fnv1a(const std::uint8_t* p,
                                            std::size_t n,
                                            std::uint64_t acc = kFnv1aOffset) {
  for (std::size_t i = 0; i < n; ++i) {
    acc = (acc ^ p[i]) * kFnv1aPrime;
  }
  return acc;
}

}  // namespace repro::base

// base::fnv1a: the one hash family, behind the capsule envelope
// digests, core::run_key, and the result cache's content keys. It is
// pinned to its published reference vectors so a refactor that silently
// changes it would orphan every sealed capsule / cached result — that
// must show up here, not in the field.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "base/fnv1a.hpp"

namespace repro::base {
namespace {

std::uint64_t fnv1a_str(const std::string& s) {
  return fnv1a(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

TEST(Fnv1a, MatchesPublishedVectors) {
  // The canonical FNV-1a 64 vectors (Fowler/Noll/Vo test suite).
  EXPECT_EQ(fnv1a_str(""), 0xcbf29ce484222325ULL);  // = the offset basis
  EXPECT_EQ(fnv1a_str("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a_str("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, ChainsThroughTheAccumulator) {
  // Hashing "foobar" in one call equals hashing "foo" then continuing
  // with "bar" — the property capsule::Io::digester() relies on when it
  // folds each primitive into a running digest.
  const std::string a = "foo";
  const std::string b = "bar";
  const std::uint64_t partial =
      fnv1a(reinterpret_cast<const std::uint8_t*>(a.data()), a.size());
  const std::uint64_t chained = fnv1a(
      reinterpret_cast<const std::uint8_t*>(b.data()), b.size(), partial);
  EXPECT_EQ(chained, fnv1a_str("foobar"));
}

TEST(Fnv1a, IsConstexpr) {
  constexpr std::uint8_t bytes[] = {'a'};
  constexpr std::uint64_t at_compile_time = fnv1a(bytes, 1);
  static_assert(at_compile_time == 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(at_compile_time, 0xaf63dc4c8601ec8cULL);
}

}  // namespace
}  // namespace repro::base

// The differential oracle's component walk (tests/oracle/oracle_test.cpp
// holds the oracle's tables).
//
// Two runs are compared by the digest of their capsule walk; when the
// digests differ, every component is digested on its own and the first
// one that differs is named, most specific first:
// "machine.cluster[3].ce[5]" before "machine.cluster[3]". A divergence no
// component walk explains is reported as "unattributed".
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fx8/machine.hpp"

namespace repro::oracle {

/// One named piece of a capsule walk and the digest of its bytes.
struct Component {
  std::string path;
  std::uint64_t digest = 0;
};

/// Every component of a machine, in walk order, each cluster's CEs listed
/// before the cluster itself.
[[nodiscard]] std::vector<Component> machine_components(
    fx8::Machine& machine);

/// Path of the first component whose digest differs between two
/// component lists of the same shape, or "unattributed" if none does.
[[nodiscard]] std::string first_divergence(
    const std::vector<Component>& reference,
    const std::vector<Component>& candidate);

/// Bare-machine check for the tick-kernel contract tests: succeeds when
/// the two machines' capsule walks digest alike, otherwise names the
/// first divergent component.
[[nodiscard]] ::testing::AssertionResult same_machine(
    fx8::Machine& reference, fx8::Machine& candidate);

}  // namespace repro::oracle

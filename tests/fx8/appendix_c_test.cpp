// Conformance tests against the machine description of Appendix C.
//
// The default configuration must be the documented FX/8: the point of a
// reproduction is that these numbers are the paper's, not ours.
#include <gtest/gtest.h>

#include "fx8/machine.hpp"
#include "os/vm.hpp"

namespace repro::fx8 {
namespace {

TEST(AppendixC, ClusterIsEightCes) {
  EXPECT_EQ(MachineConfig::fx8().cluster.n_ces, 8u);
}

TEST(AppendixC, SharedCacheIs128KInterleavedFourWaysInTwoModules) {
  const auto config = MachineConfig::fx8().shared_cache;
  EXPECT_EQ(config.total_bytes, 128u * 1024);
  EXPECT_EQ(config.banks, 4u);    // "four-way interleaved cache memory"
  EXPECT_EQ(config.modules, 2u);  // "divided into two CPCs"
}

TEST(AppendixC, EachCeHasA16KInstructionCache) {
  EXPECT_EQ(MachineConfig::fx8().cluster.icache_bytes, 16u * 1024);
}

TEST(AppendixC, TwoMemoryBuses) {
  // "Traffic between caches and main memory is over two 64-bit wide
  // data busses".
  EXPECT_EQ(MachineConfig::fx8().membus.bus_count, 2u);
}

TEST(AppendixC, MainMemoryIsFourWayInterleavedUpTo64M) {
  EXPECT_EQ(MachineConfig::fx8().memory.interleave, 4u);
  // The frame pool the VM layer pages into is the machine's memory.
  EXPECT_EQ(os::VmConfig{}.physical_bytes, 64ull * 1024 * 1024);
}

TEST(AppendixC, IpCacheIs32K) {
  EXPECT_EQ(cache::IpCacheConfig{}.capacity_bytes, 32u * 1024);
}

TEST(AppendixC, VirtualAddressSpaceIs1024SegmentsOf1024FourKPages) {
  const os::VmConfig config;
  EXPECT_EQ(config.segments, 1024u);
  EXPECT_EQ(config.pages_per_segment, 1024u);
  EXPECT_EQ(kPageBytes, 4096u);
}

TEST(AppendixC, Fx1IsTheEntryConfiguration) {
  const MachineConfig config = MachineConfig::fx1();
  EXPECT_EQ(config.cluster.n_ces, 1u);
  EXPECT_EQ(config.n_ips, 1u);
}

}  // namespace
}  // namespace repro::fx8

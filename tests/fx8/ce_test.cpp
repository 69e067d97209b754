#include "fx8/ce.hpp"

#include <gtest/gtest.h>

#include <set>

#include "base/expect.hpp"
#include "mem/main_memory.hpp"
#include "mem/memory_bus.hpp"

namespace repro::fx8 {
namespace {

/// MMU that faults once per page with a fixed service time.
class CountingMmu final : public Mmu {
 public:
  explicit CountingMmu(Cycle fault_cycles) : fault_cycles_(fault_cycles) {}

  Cycle touch(JobId, CeId, Addr addr) override {
    const Addr page = addr / kPageBytes;
    if (mapped_.insert(page).second) {
      ++faults_;
      return fault_cycles_;
    }
    return 0;
  }

  [[nodiscard]] std::uint64_t faults() const { return faults_; }

 private:
  Cycle fault_cycles_;
  std::set<Addr> mapped_;
  std::uint64_t faults_ = 0;
};

class CeTest : public ::testing::Test {
 protected:
  CeTest()
      : memory_(mem::MainMemoryConfig{}),
        bus_(mem::MemoryBusConfig{}, memory_),
        cache_(cache::SharedCacheConfig{}, bus_),
        xbar_(cache_.config().banks) {}

  /// Drive the CE (with bus + cache) until done; returns cycles used.
  Cycle run_to_done(Ce& ce, Cycle limit = 1'000'000) {
    Cycle used = 0;
    while (!ce.done()) {
      xbar_.begin_cycle();
      ce.tick();
      bus_.tick(now_);
      cache_.tick();
      ++now_;
      ++used;
      REPRO_EXPECT(used < limit, "CE did not finish in limit");
    }
    return used;
  }

  KernelInstance make_instance(const isa::KernelSpec* spec) {
    KernelInstance inst;
    inst.spec = *spec;
    inst.job = 1;
    inst.key = 0x1234;
    inst.data_base = 0x10000;
    inst.code_base = 0x8000000;
    return inst;
  }

  mem::MainMemory memory_;
  mem::MemoryBus bus_;
  cache::SharedCache cache_;
  Crossbar xbar_;
  CeHot lanes_;
  NoFaultMmu no_fault_;
  Cycle now_ = 0;
};

TEST_F(CeTest, IdleCeProducesIdleBus) {
  Ce ce(0, lanes_, cache_, xbar_, no_fault_);
  xbar_.begin_cycle();
  ce.tick();
  EXPECT_TRUE(ce.idle());
  EXPECT_EQ(ce.bus_op(), mem::CeBusOp::kIdle);
  EXPECT_EQ(ce.stats().busy_cycles, 0u);
}

TEST_F(CeTest, PureComputeRunsWithoutBusTraffic) {
  isa::KernelSpec k;
  k.steps = 5;
  k.compute_cycles = 10;
  k.loads_per_step = 0;
  k.stores_per_step = 1;  // must do some memory or validate() complains?
  // Actually make it pure compute with a single store-free variant:
  k.stores_per_step = 0;
  k.loads_per_step = 1;
  Ce ce(0, lanes_, cache_, xbar_, no_fault_);
  ce.start(make_instance(&k));
  (void)run_to_done(ce);
  EXPECT_EQ(ce.stats().compute_cycles, 50u);
  EXPECT_EQ(ce.stats().mem_accesses, 5u);
  EXPECT_EQ(ce.stats().instances_completed, 1u);
}

TEST_F(CeTest, StartWhileLoadedIsContractViolation) {
  isa::KernelSpec k;
  k.steps = 100;
  k.compute_cycles = 4;
  Ce ce(0, lanes_, cache_, xbar_, no_fault_);
  ce.start(make_instance(&k));
  EXPECT_THROW(ce.start(make_instance(&k)), ContractViolation);
}

TEST_F(CeTest, TakeCompletedRequiresDone) {
  Ce ce(0, lanes_, cache_, xbar_, no_fault_);
  EXPECT_THROW(ce.take_completed(), ContractViolation);
}

TEST_F(CeTest, CompletesAndBecomesReusable) {
  isa::KernelSpec k;
  k.steps = 2;
  k.compute_cycles = 1;
  k.loads_per_step = 1;
  Ce ce(0, lanes_, cache_, xbar_, no_fault_);
  ce.start(make_instance(&k));
  (void)run_to_done(ce);
  ce.take_completed();
  EXPECT_TRUE(ce.idle());
  ce.start(make_instance(&k));
  (void)run_to_done(ce);
  EXPECT_EQ(ce.stats().instances_completed, 2u);
}

TEST_F(CeTest, StreamingLoadsMissOncePerLine) {
  // 8-byte strides over cold memory: one miss per 32-byte line, i.e. a
  // quarter of accesses miss.
  isa::KernelSpec k;
  k.steps = 64;
  k.compute_cycles = 1;
  k.loads_per_step = 1;
  k.stride_bytes = 8;
  k.working_set_bytes = 64 * 64;  // no wrap within the run
  Ce ce(0, lanes_, cache_, xbar_, no_fault_);
  ce.start(make_instance(&k));
  (void)run_to_done(ce);
  EXPECT_EQ(ce.stats().mem_accesses, 64u);
  EXPECT_EQ(cache_.stats().misses, 16u);
}

TEST_F(CeTest, RmwStoresHitAfterLoad) {
  isa::KernelSpec k;
  k.steps = 16;
  k.compute_cycles = 1;
  k.loads_per_step = 1;
  k.stores_per_step = 1;
  Ce ce(0, lanes_, cache_, xbar_, no_fault_);
  ce.start(make_instance(&k));
  (void)run_to_done(ce);
  EXPECT_EQ(ce.stats().mem_accesses, 32u);
  // Stores revisit the loaded line: misses only from the load stream.
  EXPECT_LE(cache_.stats().misses, 16u);
}

TEST_F(CeTest, MissStallsShowWaitCycles) {
  isa::KernelSpec k;
  k.steps = 8;
  k.compute_cycles = 1;
  k.loads_per_step = 1;
  k.stride_bytes = 64;  // every load a new line: all miss
  k.working_set_bytes = 64 * 1024;
  Ce ce(0, lanes_, cache_, xbar_, no_fault_);
  ce.start(make_instance(&k));
  (void)run_to_done(ce);
  EXPECT_GT(ce.stats().miss_wait_cycles, 0u);
}

TEST_F(CeTest, PageFaultStallsAndRetries) {
  CountingMmu mmu(50);
  isa::KernelSpec k;
  k.steps = 4;
  k.compute_cycles = 1;
  k.loads_per_step = 1;
  k.stride_bytes = 8;
  Ce ce(0, lanes_, cache_, xbar_, mmu);
  ce.start(make_instance(&k));
  const Cycle used = run_to_done(ce);
  EXPECT_EQ(mmu.faults(), 1u);  // all four loads in one page
  EXPECT_GE(ce.stats().fault_wait_cycles, 50u);
  EXPECT_GT(used, 50u);
  EXPECT_EQ(ce.stats().instances_completed, 1u);
}

TEST_F(CeTest, ExtraStepsLengthenInstance) {
  isa::KernelSpec k;
  k.steps = 4;
  k.compute_cycles = 10;
  k.loads_per_step = 0;
  k.stores_per_step = 0;
  k.compute_cycles = 10;  // pure compute
  Ce short_ce(0, lanes_, cache_, xbar_, no_fault_);
  KernelInstance inst = make_instance(&k);
  short_ce.start(inst);
  const Cycle short_cycles = run_to_done(short_ce);

  Ce long_ce(1, lanes_, cache_, xbar_, no_fault_);
  inst.extra_steps = 4;
  long_ce.start(inst);
  const Cycle long_cycles = run_to_done(long_ce);
  EXPECT_GT(long_cycles, short_cycles);
  EXPECT_NEAR(static_cast<double>(long_cycles),
              2.0 * static_cast<double>(short_cycles), 6.0);
}

TEST_F(CeTest, ComputeJitterIsDeterministicPerKey) {
  isa::KernelSpec k;
  k.steps = 32;
  k.compute_cycles = 8;
  k.compute_jitter = 4;
  k.loads_per_step = 0;
  k.stores_per_step = 0;
  Ce a(0, lanes_, cache_, xbar_, no_fault_);
  Ce b(1, lanes_, cache_, xbar_, no_fault_);
  a.start(make_instance(&k));
  const Cycle ca = run_to_done(a);
  b.start(make_instance(&k));
  const Cycle cb = run_to_done(b);
  EXPECT_EQ(ca, cb);  // same instance key -> same jitter draw
}

TEST_F(CeTest, OversizedCodeGeneratesInstructionFetches) {
  isa::KernelSpec k;
  k.steps = 64;
  k.compute_cycles = 2;
  k.loads_per_step = 0;
  k.stores_per_step = 0;
  k.compute_cycles = 2;
  k.code_bytes = 64 * 1024;  // 4x the icache
  Ce ce(0, lanes_, cache_, xbar_, no_fault_);
  ce.start(make_instance(&k));
  (void)run_to_done(ce);
  EXPECT_GT(ce.stats().mem_accesses, 0u);  // ifetches went to shared cache
}

TEST_F(CeTest, FittingCodeGeneratesNoInstructionFetches) {
  isa::KernelSpec k;
  k.steps = 64;
  k.compute_cycles = 2;
  k.loads_per_step = 0;
  k.stores_per_step = 0;
  k.code_bytes = 8 * 1024;
  Ce ce(0, lanes_, cache_, xbar_, no_fault_);
  ce.start(make_instance(&k));
  (void)run_to_done(ce);
  EXPECT_EQ(ce.stats().mem_accesses, 0u);
}

TEST_F(CeTest, HotColdPatternHasFewerMissesThanStreaming) {
  isa::KernelSpec hot;
  hot.steps = 256;
  hot.compute_cycles = 1;
  hot.loads_per_step = 1;
  hot.pattern = isa::AccessPattern::kHotCold;
  hot.hot_fraction = 0.95;
  hot.hot_set_bytes = 1024;
  hot.working_set_bytes = 256 * 1024;
  hot.stride_bytes = 32;

  isa::KernelSpec stream = hot;
  stream.pattern = isa::AccessPattern::kStreaming;

  Ce a(0, lanes_, cache_, xbar_, no_fault_);
  a.start(make_instance(&hot));
  (void)run_to_done(a);
  const std::uint64_t hot_misses = cache_.stats().misses;

  Ce b(1, lanes_, cache_, xbar_, no_fault_);
  KernelInstance inst = make_instance(&stream);
  inst.data_base = 0x4000000;  // fresh region
  b.start(inst);
  (void)run_to_done(b);
  const std::uint64_t stream_misses = cache_.stats().misses - hot_misses;

  EXPECT_LT(hot_misses, stream_misses / 2);
}

}  // namespace
}  // namespace repro::fx8

// Fused hot-tick kernel microbenchmarks (google-benchmark).
//
// The per-cycle simulation path is the floor under every study's runtime:
// concurrency-saturated sessions have 0-3 cycle horizons, so nearly every
// cycle is ticked, not jumped, inside Machine::tick_block(n)
// (Machine::tick() is tick_block(1)). These benchmarks pin its cost on a machine held in the
// saturated steady state (eight CEs contending mid concurrent loop) so a
// regression in the lane kernel, the CE lane layout, or the block loop
// shows up as items/sec, not as a slow CI run. BM_PartialTickBlock holds
// the study's width-64 shape (one live cluster of eight).
#include <benchmark/benchmark.h>

#include <vector>

#include "fx8/machine.hpp"
#include "fx8/mmu.hpp"
#include "isa/program.hpp"
#include "workload/kernels.hpp"

namespace {

using namespace repro;

/// A machine mid concurrent loop with all eight CEs holding iterations —
/// the saturated state sessions 3 and 6 spend most of their time in.
struct SaturatedMachine {
  fx8::NoFaultMmu mmu;
  fx8::Machine machine;
  isa::Program program;

  SaturatedMachine() : machine(fx8::MachineConfig::fx8(), mmu) {
    workload::KernelTuning tuning;
    isa::ConcurrentLoopPhase loop;
    loop.body = workload::matmul_row_body(tuning);
    loop.trip_count = 1u << 20;  // effectively endless for the bench
    program = isa::ProgramBuilder("bench")
                  .data_base(0x01000000)
                  .concurrent_loop(loop)
                  .build();
    machine.cluster().load(program, 1);
    machine.run(2000);  // past dispatch ramp-up, into the steady state
  }
};

void BM_SaturatedTickBlock(benchmark::State& state) {
  SaturatedMachine s;
  const auto block = static_cast<Cycle>(state.range(0));
  Cycle cycles = 0;
  while (state.KeepRunningBatch(static_cast<benchmark::IterationCount>(
      block))) {
    Cycle done = 0;
    while (done < block) {
      done += s.machine.tick_block(block - done);
    }
    cycles += done;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}
// Block sizes from one cycle (Machine::tick(), every acquisition cycle)
// to the long blocks the session controller asks for between probe
// latches, which run until a control event or the next snapshot start:
// the gap between n=1 and large n is the per-call overhead the fusion
// removes. A saturated machine rarely has two quiet cycles, so these
// rows tick nearly every cycle.
BENCHMARK(BM_SaturatedTickBlock)->Arg(1)->Arg(16)->Arg(256)->Arg(4096);

// Machine-width sweep: a saturated machine at each width preset (every
// cluster mid concurrent loop), advanced through tick_block. Items =
// machine cycles, so items/sec across the rows shows how the per-cycle
// cost scales with width — the width-native kernel's target is one
// machine-wide lane selection per cycle regardless of cluster count.
void BM_WidthTickBlock(benchmark::State& state) {
  const auto width = state.range(0);
  fx8::MachineConfig config =
      width == 8    ? fx8::MachineConfig::fx8()
      : width == 16 ? fx8::MachineConfig::fx16()
      : width == 32 ? fx8::MachineConfig::fx32()
                    : fx8::MachineConfig::fx64();
  fx8::NoFaultMmu mmu;
  fx8::Machine machine(config, mmu);
  workload::KernelTuning tuning;
  std::vector<isa::Program> programs;
  for (std::uint32_t i = 0; i < machine.n_clusters(); ++i) {
    isa::ConcurrentLoopPhase loop;
    loop.body = workload::matmul_row_body(tuning);
    loop.trip_count = 1u << 20;
    programs.push_back(isa::ProgramBuilder("bench-wide")
                           .data_base(0x01000000 + Addr{i} * 0x02000000)
                           .concurrent_loop(loop)
                           .build());
  }
  for (std::uint32_t i = 0; i < machine.n_clusters(); ++i) {
    machine.cluster(i).load(programs[i], i + 1);
  }
  machine.run(2000);  // past dispatch ramp-up, into the steady state
  const Cycle block = 4096;
  Cycle cycles = 0;
  while (state.KeepRunningBatch(static_cast<benchmark::IterationCount>(
      block))) {
    Cycle done = 0;
    while (done < block) {
      done += machine.tick_block(block - done);
    }
    cycles += done;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}
// Every cluster is live here, so tick_block's per-block live set is the
// whole machine: these rows bypass the idle-cluster cut and time the full
// wide loop.
BENCHMARK(BM_WidthTickBlock)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// The shape the studies run at width 64: the scheduler fills clusters
// lowest-first, so cluster 0 holds a saturated loop while the other seven
// sit idle. tick_block fixes the live set once per block, so the idle
// clusters cost nothing rather than control and peel work every cycle,
// and the lane selection stops after cluster 0's lanes.
void BM_PartialTickBlock(benchmark::State& state) {
  fx8::NoFaultMmu mmu;
  fx8::Machine machine(fx8::MachineConfig::fx64(), mmu);
  workload::KernelTuning tuning;
  isa::ConcurrentLoopPhase loop;
  loop.body = workload::matmul_row_body(tuning);
  loop.trip_count = 1u << 20;
  const isa::Program program = isa::ProgramBuilder("bench-partial")
                                   .data_base(0x01000000)
                                   .concurrent_loop(loop)
                                   .build();
  machine.cluster(0).load(program, 1);
  machine.run(2000);  // past dispatch ramp-up, into the steady state
  const auto block = static_cast<Cycle>(state.range(0));
  Cycle cycles = 0;
  while (state.KeepRunningBatch(static_cast<benchmark::IterationCount>(
      block))) {
    Cycle done = 0;
    while (done < block) {
      done += machine.tick_block(block - done);
    }
    cycles += done;
  }
  benchmark::DoNotOptimize(machine.now());
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}
// n=1 is the acquisition shape (every probe-latch cycle is its own
// block), where the per-block live-set setup is paid every cycle.
BENCHMARK(BM_PartialTickBlock)->Arg(1)->Arg(256);

// An idle machine whose IPs never burst: nothing is ever due, so each
// block is one fast-forward jump and the row times the jump itself.
void BM_IdleTickBlock(benchmark::State& state) {
  fx8::NoFaultMmu mmu;
  fx8::MachineConfig config = fx8::MachineConfig::fx8();
  config.ip.duty = 0.0;
  fx8::Machine machine(config, mmu);
  const Cycle block = 4096;
  Cycle cycles = 0;
  while (state.KeepRunningBatch(static_cast<benchmark::IterationCount>(
      block))) {
    Cycle done = 0;
    while (done < block) {
      done += machine.tick_block(block - done);
    }
    cycles += done;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}
BENCHMARK(BM_IdleTickBlock);

}  // namespace

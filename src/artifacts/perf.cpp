// Simulator-performance artifact: the substrate self-check that used to
// live in the standalone bench_perf_simulator binary, registered so CI
// tracks cycles/sec datapoints like every other artifact.
//
// All timing metrics are recorded as informational notes — shared CI
// runners time-slice, so wall-clock bands would flake. The one enforced
// check is timing-independent: the fused Machine::tick_block path must
// leave the machine bit-identical to the naive tick loop.
#include <algorithm>
#include <chrono>
#include <cstdint>

#include "artifacts/inputs.hpp"
#include "artifacts/registry.hpp"
#include "fx8/machine.hpp"
#include "fx8/mmu.hpp"
#include "isa/program.hpp"
#include "workload/kernels.hpp"

namespace repro::artifacts {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

isa::Program saturated_program() {
  workload::KernelTuning tuning;
  isa::ConcurrentLoopPhase loop;
  loop.body = workload::matmul_row_body(tuning);
  loop.trip_count = 1u << 20;  // effectively endless for the measurement
  return isa::ProgramBuilder("perf")
      .data_base(0x01000000)
      .concurrent_loop(loop)
      .build();
}

/// A machine mid concurrent loop with every CE holding an iteration —
/// the steady state the saturated sessions spend their cycles in.
struct SaturatedMachine {
  fx8::NoFaultMmu mmu;
  fx8::Machine machine;
  isa::Program program;

  SaturatedMachine() : machine(fx8::MachineConfig::fx8(), mmu) {
    program = saturated_program();
    machine.cluster().load(&program, 1);
    machine.run(2000);  // past dispatch ramp-up
  }
};

/// Best-of-3 cycles/sec of `advance(machine, cycles)`.
template <typename Advance>
double measure(Cycle cycles, Advance&& advance) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    SaturatedMachine s;
    const auto start = std::chrono::steady_clock::now();
    advance(s.machine, cycles);
    const double seconds = seconds_since(start);
    if (seconds > 0.0) {
      best = std::max(best, static_cast<double>(cycles) / seconds);
    }
  }
  return best;
}

void render_perf_simulator(Context& ctx) {
  const Cycle cycles = ctx.quick() ? 100'000 : 400'000;

  const double naive_rate =
      measure(cycles, [](fx8::Machine& m, Cycle n) { m.run(n); });
  const double block_rate = measure(cycles, [](fx8::Machine& m, Cycle n) {
    Cycle done = 0;
    while (done < n) {
      done += m.tick_block(std::min<Cycle>(n - done, 256));
    }
  });

  // Idle machine: the floor cost of a cycle with nothing to simulate.
  double idle_rate = 0.0;
  {
    fx8::NoFaultMmu mmu;
    fx8::MachineConfig config = fx8::MachineConfig::fx8();
    config.ip.duty = 0.0;
    fx8::Machine machine(config, mmu);
    const auto start = std::chrono::steady_clock::now();
    machine.run(cycles);
    const double seconds = seconds_since(start);
    idle_rate = seconds > 0.0 ? static_cast<double>(cycles) / seconds : 0.0;
  }

  // The timing-independent gate: equal cycle budgets through tick() and
  // tick_block() must land on identical machines.
  bool identical = true;
  {
    SaturatedMachine a;
    SaturatedMachine b;
    const Cycle budget = 50'000;
    a.machine.run(budget);
    Cycle done = 0;
    while (done < budget) {
      done += b.machine.tick_block(budget - done);
    }
    identical = a.machine.now() == b.machine.now();
    for (CeId ce = 0; ce < 8 && identical; ++ce) {
      const fx8::CeStats sa = a.machine.cluster().ce(ce).stats();
      const fx8::CeStats sb = b.machine.cluster().ce(ce).stats();
      identical = sa.busy_cycles == sb.busy_cycles &&
                  sa.mem_accesses == sb.mem_accesses &&
                  sa.instances_completed == sb.instances_completed;
    }
    identical = identical && a.machine.shared_cache().stats().accesses ==
                                 b.machine.shared_cache().stats().accesses;
  }

  // The artifact body stays deterministic (fx8bench stdout is diffed
  // across runs); the wall-clock rates go only into the JSON metrics.
  ctx.printf("saturated machine, %llu cycles per measurement, best of 3\n",
             static_cast<unsigned long long>(cycles));
  ctx.printf("rates recorded as metrics: naive tick loop, fused\n");
  ctx.printf("tick_block, idle machine (cycles/sec)\n");
  ctx.printf("block-ticked machine bit-identical to naive: %s\n",
             identical ? "yes" : "NO");

  ctx.metric("naive_cycles_per_sec", naive_rate);
  ctx.metric("block_cycles_per_sec", block_rate);
  ctx.metric("idle_cycles_per_sec", idle_rate);
  // Informational: wall-clock on shared runners is too noisy to enforce,
  // but the datapoint rides the report so regressions leave a trail.
  ctx.note("block_vs_naive_speedup",
           naive_rate > 0.0 ? block_rate / naive_rate : 0.0,
           /*paper=*/1.0, /*lo=*/0.9, /*hi=*/100.0);
  ctx.check("block_bit_identical", identical ? 1.0 : 0.0, /*paper=*/1.0,
            /*lo=*/1.0, /*hi=*/1.0);
}

}  // namespace

void register_perf(std::vector<ArtifactDef>& catalog) {
  catalog.push_back(
      {"perf_simulator", ArtifactKind::kExtension, "—",
       "PERF — simulated-machine throughput (fused tick kernel)",
       "substrate self-check: cycles/sec of the naive and fused per-cycle "
       "paths (no paper claim; timing notes are informational)",
       render_perf_simulator, /*reads=*/0, /*solo=*/true});
}

}  // namespace repro::artifacts

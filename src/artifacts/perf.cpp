// Simulator-performance artifact: the substrate self-check that used to
// live in the standalone bench_perf_simulator binary, registered so CI
// tracks cycles/sec datapoints like every other artifact.
//
// The rates are CPU-clock rates: each measurement reads its own thread's
// CPU clock (CLOCK_THREAD_CPUTIME_ID), so the render shares the pool with
// the other renders and runs like any artifact. They are recorded as
// informational notes — shared CI runners time-slice, so enforced bands
// would flake. The one enforced check is timing-independent: the machine
// running the lane horizons must stay bit-identical to the naive
// oracle, the same machine on fx8::lane_pass_reference (every CE stepped
// through Ce::tick()).
#include <time.h>

#include <algorithm>
#include <cstdint>

#include "artifacts/inputs.hpp"
#include "artifacts/registry.hpp"
#include "fx8/machine.hpp"
#include "fx8/mmu.hpp"
#include "isa/program.hpp"
#include "workload/kernels.hpp"

namespace repro::artifacts {

namespace {

/// CPU seconds this thread has run: what a measurement costs, whatever
/// else shares the cores.
double thread_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
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

  explicit SaturatedMachine(fx8::LanePassFn pass)
      : machine(fx8::MachineConfig::fx8(), mmu) {
    machine.set_lane_pass(pass);
    machine.cluster().load(saturated_program(), 1);
    machine.run(2000);  // past dispatch ramp-up
  }
};

/// Probe-visible bus opcodes and full CE accounting of two saturated
/// machines agree, as do their clocks and shared-cache access counts.
bool same_state(const fx8::Machine& a, const fx8::Machine& b) {
  if (a.now() != b.now() || a.shared_cache().stats().accesses !=
                                b.shared_cache().stats().accesses) {
    return false;
  }
  for (CeId ce = 0; ce < a.total_ces(); ++ce) {
    if (a.ce_bus_op(ce) != b.ce_bus_op(ce) ||
        a.cluster().ce(ce).stats() != b.cluster().ce(ce).stats()) {
      return false;
    }
  }
  return true;
}

/// Best-of-3 cycles/sec of a saturated machine on `pass` running
/// `cycles` cycles.
double measure(fx8::LanePassFn pass, Cycle cycles) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    SaturatedMachine s(pass);
    const double start = thread_cpu_seconds();
    s.machine.run(cycles);
    const double seconds = thread_cpu_seconds() - start;
    if (seconds > 0.0) {
      best = std::max(best, static_cast<double>(cycles) / seconds);
    }
  }
  return best;
}

void render_perf_simulator(Context& ctx) {
  const Cycle cycles = ctx.quick() ? 100'000 : 400'000;

  const double naive_rate = measure(&fx8::lane_pass_reference, cycles);
  const double block_rate = measure(fx8::select_lane_pass(), cycles);

  // Idle machine: the floor cost of a cycle with nothing to simulate.
  double idle_rate = 0.0;
  {
    fx8::NoFaultMmu mmu;
    fx8::MachineConfig config = fx8::MachineConfig::fx8();
    config.ip.duty = 0.0;
    fx8::Machine machine(config, mmu);
    const double start = thread_cpu_seconds();
    machine.run(cycles);
    const double seconds = thread_cpu_seconds() - start;
    idle_rate = seconds > 0.0 ? static_cast<double>(cycles) / seconds : 0.0;
  }

  // The timing-independent gate: the lane horizons, jumps included, and
  // the naive oracle advance 200 blocks of 256 cycles and must agree at
  // every block boundary.
  bool identical = true;
  {
    SaturatedMachine naive(&fx8::lane_pass_reference);
    SaturatedMachine block(fx8::select_lane_pass());
    for (int i = 0; identical && i < 200; ++i) {
      naive.machine.run(256);
      block.machine.run(256);
      identical = same_state(naive.machine, block.machine);
    }
  }

  // The artifact body stays deterministic (fx8bench stdout is diffed
  // across runs); the CPU-clock rates go only into the JSON metrics.
  ctx.printf("saturated machine, %llu cycles per measurement, best of 3\n",
             static_cast<unsigned long long>(cycles));
  ctx.printf("rates recorded as metrics: naive tick loop, fused\n");
  ctx.printf("tick_block, idle machine (cycles/sec)\n");
  ctx.printf("block-ticked machine bit-identical to naive: %s\n",
             identical ? "yes" : "NO");

  ctx.metric("naive_cycles_per_sec", naive_rate);
  ctx.metric("block_cycles_per_sec", block_rate);
  ctx.metric("idle_cycles_per_sec", idle_rate);
  // Informational: too noisy on shared runners to enforce, but the
  // datapoint rides the report so regressions leave a trail.
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
       render_perf_simulator});
}

}  // namespace repro::artifacts

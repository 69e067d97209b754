// Program-level concurrency evaluation (the paper's §6 future work).
//
// Attaches the marker-event tracer to the cluster, runs one numeric job,
// and prints its exact concurrency profile — per-job Cw and Pc, per-loop
// overlap and drain overhead — plus an ASCII execution timeline. This is
// the trace-based methodology of the paper's related work ([16][17]),
// provided alongside the thesis' sampling methodology.
#include <cstdio>

#include "fx8/machine.hpp"
#include "fx8/mmu.hpp"
#include "isa/program.hpp"
#include "trace/profile.hpp"
#include "trace/timeline.hpp"
#include "trace/tracer.hpp"
#include "workload/kernels.hpp"

int main() {
  using namespace repro;

  fx8::NoFaultMmu mmu;
  fx8::Machine machine(fx8::MachineConfig::fx8(), mmu);
  trace::EventTracer tracer;
  machine.cluster().set_observer(&tracer);

  // A structural-mechanics-flavoured job: setup, a big matmul loop, a
  // dependence-free triad, and a solver sweep with a 2-leftover trip.
  workload::KernelTuning tuning;
  isa::ConcurrentLoopPhase matmul;
  matmul.body = workload::matmul_row_body(tuning);
  matmul.trip_count = 64;
  isa::ConcurrentLoopPhase triad;
  triad.body = workload::triad_body(tuning);
  triad.trip_count = 48;
  isa::ConcurrentLoopPhase solver;
  solver.body = workload::solver_sweep_body(tuning);
  solver.trip_count = 8 * 4 + 2;
  solver.dependence_prob = 0.2;

  const isa::Program program =
      isa::ProgramBuilder("structural-mechanics")
          .seed(11)
          .data_base(0x01000000)
          .serial(workload::scalar_setup_body(tuning), 2)
          .concurrent_loop(matmul)
          .serial(workload::scalar_setup_body(tuning), 1)
          .concurrent_loop(triad)
          .serial(workload::scalar_setup_body(tuning), 1)
          .concurrent_loop(solver)
          .serial(workload::scalar_setup_body(tuning), 1)
          .build();

  machine.cluster().load(program, 1);
  while (machine.cluster().busy()) {
    machine.tick();
  }

  const trace::ProgramProfile profile =
      trace::profile_job(tracer.events(), 1);
  std::printf("%s\n\n", profile.describe().c_str());
  std::printf("serial cycles:     %llu\n",
              static_cast<unsigned long long>(profile.serial_cycles));
  std::printf("concurrent cycles: %llu\n\n",
              static_cast<unsigned long long>(profile.concurrent_cycles));

  std::printf("per-loop profile:\n");
  std::printf("  %-8s %-6s %-9s %-9s %-7s %s\n", "phase", "trip", "cycles",
              "overlap", "drain", "iterations/CE");
  for (const trace::LoopProfile& loop : profile.loops) {
    std::printf("  %-8u %-6llu %-9llu %-9.2f %-7llu [",
                loop.phase, static_cast<unsigned long long>(loop.trip_count),
                static_cast<unsigned long long>(loop.duration()),
                loop.mean_overlap,
                static_cast<unsigned long long>(loop.drain_cycles));
    for (std::size_t ce = 0; ce < loop.iterations_per_ce.size(); ++ce) {
      std::printf("%s%llu", ce ? " " : "",
                  static_cast<unsigned long long>(
                      loop.iterations_per_ce[ce]));
    }
    std::printf("]\n");
  }

  std::printf("\n%s",
              trace::render_timeline(tracer.events(), 1,
                                     trace::TimelineOptions{})
                  .c_str());
  std::printf(
      "\nNote how the dependence-carrying solver loop shows lower overlap\n"
      "and a longer drain than the dependence-free loops — the §4.3\n"
      "overheads, measured per program instead of sampled per workload.\n");
  return 0;
}

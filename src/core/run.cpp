#include "core/run.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "trace/profile.hpp"
#include "trace/tracer.hpp"

namespace repro::core {

namespace {

/// Time with >= 2 loop iterations in flight over [t0, t1], from marker
/// traces, and the mean overlap during that time.
void fold_trace(RunResult& result, std::span<const trace::TraceEvent> events,
                Cycle t0, Cycle t1) {
  std::vector<std::pair<Cycle, int>> deltas;
  for (const trace::TraceEvent& event : events) {
    if (event.time < t0 || event.time > t1) {
      continue;
    }
    if (event.kind == trace::EventKind::kIterationStart) {
      deltas.emplace_back(event.time, +1);
    } else if (event.kind == trace::EventKind::kIterationEnd) {
      deltas.emplace_back(event.time, -1);
    }
  }
  std::sort(deltas.begin(), deltas.end());
  Cycle concurrent_time = 0;
  double overlap_integral = 0.0;
  int overlap = 0;
  Cycle prev = t0;
  for (const auto& [time, delta] : deltas) {
    if (overlap >= 2) {
      concurrent_time += time - prev;
      overlap_integral += static_cast<double>(overlap) *
                          static_cast<double>(time - prev);
    }
    overlap += delta;
    prev = time;
  }
  result.trace_cw = static_cast<double>(concurrent_time) /
                    static_cast<double>(t1 - t0);
  result.trace_pc =
      concurrent_time > 0
          ? overlap_integral / static_cast<double>(concurrent_time)
          : 0.0;
  result.trace_events = events.size();
  result.trace_jobs = trace::profile_all(events).size();
}

}  // namespace

std::uint64_t run_key(const RunSpec& spec) {
  RunSpec copy = spec;  // The walks are mode-agnostic and take mutable refs.
  capsule::Io io = capsule::Io::digester();
  os::serialize_config(io, copy.system);
  workload::serialize_config(io, copy.mix);
  instr::serialize_config(io, copy.sampling);
  io.u64(copy.generator_seed);
  io.u64(copy.controller_seed);
  io.u64(copy.warmup_cycles);
  io.enum32(copy.capture_mode, instr::TriggerMode::kTransitionFromFull);
  io.u32(copy.captures);
  io.u64(copy.capture_timeout);
  io.u32(copy.samples);
  io.boolean(copy.trace_overlap);
  return io.digest();
}

void RunResult::serialize(capsule::Io& io) {
  samples.resize(io.extent(samples.size()));
  for (AnalyzedSample& sample : samples) {
    sample.serialize(io);
  }
  totals.serialize(io);
  io.u32(captures_completed);
  io.u32(captures_timed_out);
  for (std::uint64_t& n : state_counts) {
    io.u64(n);
  }
  for (std::uint64_t& n : processor_counts) {
    io.u64(n);
  }
  captured.serialize(io);
  ff.serialize(io);
  io.u32_in(width, 1, kMaxTopologyCes);
  io.u32_in(clusters, 1, kMaxTopologyCes);
  io.u64(jobs_completed);
  io.u64(total_wait_cycles);
  io.u64(fabric_conflicts);
  io.u64(now);
  io.f64(trace_cw);
  io.f64(trace_pc);
  auto events = static_cast<std::uint64_t>(trace_events);
  io.u64(events);
  trace_events = static_cast<std::size_t>(events);
  auto jobs = static_cast<std::uint64_t>(trace_jobs);
  io.u64(jobs);
  trace_jobs = static_cast<std::size_t>(jobs);
}

RunResult run(const RunSpec& spec) {
  os::System system(spec.system);
  workload::WorkloadGenerator generator(spec.mix, spec.generator_seed);
  instr::SessionController controller(system, generator, spec.sampling,
                                      spec.controller_seed);
  trace::EventTracer tracer;
  if (spec.trace_overlap) {
    system.machine().cluster().set_observer(&tracer);
  }

  RunResult result;
  result.width = system.machine().total_ces();
  result.clusters = system.machine().n_clusters();
  controller.advance(spec.warmup_cycles);

  for (std::uint32_t capture = 0; capture < spec.captures; ++capture) {
    const auto window =
        controller.capture_triggered(spec.capture_mode, spec.capture_timeout);
    if (!window) {
      ++result.captures_timed_out;
      continue;
    }
    ++result.captures_completed;
    result.captured.merge(window->counts);
    // Per-processor tallies over the transition states proper, the
    // population Figure 7 describes.
    for (std::size_t j = 0; j <= result.width; ++j) {
      result.state_counts[j] += window->counts.num[j];
    }
    for (CeId ce = 0; ce < result.width; ++ce) {
      result.processor_counts[ce] += window->transition_proc[ce];
    }
  }

  const Cycle t0 = system.now();
  result.samples.reserve(spec.samples);
  for (std::uint32_t s = 0; s < spec.samples; ++s) {
    const instr::SampleRecord record = controller.take_sample();
    result.samples.push_back(analyze(record, result.width));
    result.totals.merge(record.hw);
  }
  if (spec.trace_overlap) {
    fold_trace(result, tracer.events(), t0, system.now());
  }

  result.ff = controller.ff_stats();
  const os::SchedulerStats& stats = system.scheduler().stats();
  result.jobs_completed = stats.jobs_completed;
  result.total_wait_cycles = stats.total_wait_cycles;
  if (const fx8::ClusterFabric* fabric = system.machine().fabric()) {
    result.fabric_conflicts = fabric->conflicts();
  }
  result.now = system.now();
  return result;
}

}  // namespace repro::core

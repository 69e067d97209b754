// Study engine throughput: event-horizon fast-forward and the
// thread-pooled parallel path.
//
// The nine measurement sessions are independent simulations, so the
// study pipeline runs them as nine pool tasks
// (docs/parallel_execution.md). Independently, the simulator core can
// fast-forward deterministic quiet stretches in one jump instead of
// ticking cycle-by-cycle (the event-horizon contract). This bench runs
// the quick study five ways —
//
//   1. serial, fast-forward off (the naive reference),
//   2. serial, fast-forward on,
//   3. parallel (auto threads), fast-forward on, one task per session,
//   4. serial, fast-forward on, on the two-cluster FX/16,
//   5. serial, fast-forward on, on the eight-cluster FX/64,
//
// plus per-session serial fast-forward rates. It verifies runs 1-3 are
// bit-identical, and reports simulated cycles/sec for each plus the
// fast-forward and parallel speedups as JSON — both to stdout and to
// BENCH_parallel_study.json — so perf regressions in the tick loop, the
// horizon logic, or the pool show up as a datapoint, not an anecdote.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "base/capsule.hpp"
#include "core/presets.hpp"
#include "core/study.hpp"
#include "fx8/lane_kernel.hpp"
#include "fx8/machine.hpp"
#include "workload/presets.hpp"

namespace {

using namespace repro;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Digest of a whole StudyResult with the fast-forward bookkeeping
/// zeroed (by design it differs between fast and naive runs): equal
/// digests mean every sample, count and measure is bit-identical.
std::uint64_t study_digest(core::StudyResult result) {
  result.ff = {};
  for (core::SessionResult& session : result.sessions) {
    session.ff = {};
  }
  capsule::Io io = capsule::Io::digester();
  result.serialize(io);
  return io.digest();
}

struct TimedRun {
  core::StudyResult result;
  double seconds = 0.0;
};

/// Run the study `reps` times and keep the best wall-clock: the study
/// itself is deterministic, so the minimum is the least-interfered
/// measurement (this box time-slices with other work).
TimedRun timed_study(const core::StudyConfig& config, int reps = 3) {
  TimedRun run;
  run.seconds = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    core::StudyResult result = core::run_default_study(config);
    const double seconds = seconds_since(start);
    if (rep == 0 || seconds < run.seconds) {
      run.seconds = seconds;
    }
    if (rep == 0) {
      run.result = std::move(result);
    }
  }
  return run;
}

double rate(double cycles, double seconds) {
  return seconds > 0.0 ? cycles / seconds : 0.0;
}

/// Serial fast-forward cycles/sec of one session, best of `reps` (the
/// per-session numbers that make the fused-kernel gain on the saturated
/// presets a datapoint rather than an anecdote).
double session_rate(const workload::WorkloadMix& mix,
                    const core::StudyConfig& config, double session_cycles,
                    int reps = 3) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const core::SessionResult result = core::run_session(mix, config, 12345);
    const double seconds = seconds_since(start);
    (void)result;
    best = std::max(best, rate(session_cycles, seconds));
  }
  return best;
}

}  // namespace

int main() {
  std::printf(
      "=============================================================\n"
      "PERF — study engine (event-horizon fast-forward + thread pool)\n"
      "Paper: nine independent sampling sessions ran the study (§3.5); "
      "they are\nembarrassingly parallel and must stay bit-reproducible\n"
      "=============================================================\n\n");

  // The CI-scale study population (core/presets.hpp) — big enough to
  // time, small enough for the perf-smoke job.
  core::StudyConfig config = core::presets::quick_study();

  const std::size_t sessions = workload::session_presets().size();
  const double cycles_per_session = static_cast<double>(
      config.warmup_cycles +
      static_cast<Cycle>(config.samples_per_session) *
          config.sampling.interval_cycles);
  const double total_cycles =
      cycles_per_session * static_cast<double>(sessions);

  // Run 1: serial, naive tick loop — the reference for everything else.
  config.threads = 1;
  config.fast_forward = false;
  const TimedRun naive = timed_study(config);

  // Run 2: serial, fast-forward on. Same runs, same seeds — any
  // deviation from run 1 is a horizon-contract bug.
  config.fast_forward = true;
  const TimedRun ff = timed_study(config);

  // Run 3: the nine session runs on the pool, fast-forward on. Same
  // runs as run 2, so it must match it bit for bit.
  config.threads = 0;  // auto: FX8_THREADS or usable cores
  const std::uint32_t threads = core::resolve_threads(config);
  config.threads = threads;
  const TimedRun parallel = timed_study(config);

  const std::uint64_t reference = study_digest(ff.result);
  const bool bit_identical = study_digest(naive.result) == reference &&
                             study_digest(parallel.result) == reference;

  // Run 4: the width-16 topology datapoint — the same quick study on a
  // two-cluster fx16 machine (serial, fast-forward on), so scale-out
  // throughput regressions land on the dashboard too.
  core::StudyConfig wide = core::presets::quick_study();
  wide.threads = 1;
  wide.system.machine = fx8::MachineConfig::fx16();
  const TimedRun width16 = timed_study(wide);

  // Run 5: the width-64 datapoint — eight clusters through the
  // machine-wide lane selection. The widest preset is where the
  // width-native kernel (one selection per cycle instead of one per
  // cluster) pays most, so its cycles/sec rides the dashboard next to
  // width16.
  wide.system.machine = fx8::MachineConfig::fx64();
  const TimedRun width64 = timed_study(wide);

  // Per-session serial fast-forward rates (the fused-kernel headline:
  // concurrency-saturated sessions 3 and 6 are the slowest per cycle).
  std::string session_json;
  const auto mixes = workload::session_presets();
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    const double cps = session_rate(mixes[m], config, cycles_per_session);
    char entry[160];
    std::snprintf(entry, sizeof(entry), "%s\"%s\": %.0f",
                  m == 0 ? "" : ", ", mixes[m].name.c_str(), cps);
    session_json += entry;
  }

  const double ff_speedup =
      ff.seconds > 0.0 ? naive.seconds / ff.seconds : 0.0;
  const double parallel_speedup =
      parallel.seconds > 0.0 ? ff.seconds / parallel.seconds : 0.0;

  // A parallel-vs-serial speedup needs at least two workers to mean
  // anything: on a one-core box the "parallel" run is the serial run
  // with pool overhead, and reporting its ratio would record a bogus
  // ~1.0 datapoint that perf dashboards then treat as a regression.
  // The field is omitted entirely in that case; consumers must probe
  // for it (the CI perf-smoke gate does).
  std::string speedup_json;
  if (threads >= 2) {
    char entry[48];
    std::snprintf(entry, sizeof(entry), "\"speedup\": %.3f, ",
                  parallel_speedup);
    speedup_json = entry;
  }

  char head[1536];
  std::snprintf(
      head, sizeof(head),
      "{\"bench\": \"parallel_study\", \"sessions\": %zu, "
      "\"threads\": %u, \"total_cycles\": %.0f, "
      "\"serial_seconds\": %.4f, \"parallel_seconds\": %.4f, "
      "\"serial_cycles_per_sec\": %.0f, \"parallel_cycles_per_sec\": %.0f, "
      "\"ff_off_seconds\": %.4f, \"ff_on_seconds\": %.4f, "
      "\"ff_off_cycles_per_sec\": %.0f, \"ff_on_cycles_per_sec\": %.0f, "
      "\"ff_speedup\": %.3f, ",
      sessions, threads, total_cycles, ff.seconds, parallel.seconds,
      rate(total_cycles, ff.seconds), rate(total_cycles, parallel.seconds),
      naive.seconds, ff.seconds, rate(total_cycles, naive.seconds),
      rate(total_cycles, ff.seconds), ff_speedup);
  char width_json[384];
  std::snprintf(
      width_json, sizeof(width_json),
      "\"lane_kernel\": \"%s\", "
      "\"width16_seconds\": %.4f, \"width16_cycles_per_sec\": %.0f, "
      "\"width64_seconds\": %.4f, \"width64_cycles_per_sec\": %.0f, ",
      fx8::lane_pass_name(fx8::select_lane_pass()), width16.seconds,
      rate(total_cycles, width16.seconds),
      width64.seconds, rate(total_cycles, width64.seconds));

  char tail[512];
  std::snprintf(
      tail, sizeof(tail),
      "\"ff_skipped_cycles\": %llu, \"ff_block_cycles\": %llu, "
      "\"ff_naive_cycles\": %llu, "
      "\"bit_identical\": %s, \"session_cycles_per_sec\": {",
      static_cast<unsigned long long>(ff.result.ff.skipped_cycles),
      static_cast<unsigned long long>(ff.result.ff.block_cycles),
      static_cast<unsigned long long>(ff.result.ff.naive_cycles),
      bit_identical ? "true" : "false");
  const std::string json =
      std::string(head) + speedup_json + width_json + tail + session_json +
      "}}";

  std::printf("%s\n", json.c_str());
  if (std::FILE* out = std::fopen("BENCH_parallel_study.json", "w")) {
    std::fprintf(out, "%s\n", json.c_str());
    std::fclose(out);
    std::printf("\nwrote BENCH_parallel_study.json\n");
  }

  if (!bit_identical) {
    std::fprintf(stderr,
                 "FAIL: fast-forward or threads=%u study differs from the "
                 "naive serial study\n",
                 threads);
    return 1;
  }
  return 0;
}

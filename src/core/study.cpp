#include "core/study.hpp"

#include <algorithm>
#include <future>
#include <utility>

#include "base/expect.hpp"
#include "base/rng.hpp"
#include "base/thread_pool.hpp"

namespace repro::core {

namespace {

/// One session's run: its own system, generator and controller, warmed
/// up and sampled.
RunSpec session_spec(const workload::WorkloadMix& mix,
                     const StudyConfig& config, std::uint64_t session_seed) {
  RunSpec spec;
  spec.system = config.system;
  spec.mix = mix;
  spec.sampling = config.sampling;
  spec.sampling.fast_forward =
      config.sampling.fast_forward && config.fast_forward;
  spec.generator_seed = mix64(session_seed ^ 0xABCD);
  spec.controller_seed = mix64(session_seed ^ 0x5A5A);
  spec.warmup_cycles = config.warmup_cycles;
  spec.samples = config.samples_per_session;
  return spec;
}

/// Fold a session's run into the SessionResult — the same arithmetic
/// whether the run was computed serially or on the pool.
SessionResult fold_session(const workload::WorkloadMix& mix, RunResult& run) {
  SessionResult result;
  result.name = mix.name;
  result.samples = std::move(run.samples);
  // Merged, not copied: the merge keeps `totals.width` at least kMaxCes,
  // and the width is part of every cached and digested result.
  result.totals.merge(run.totals);
  result.ff.merge(run.ff);
  result.overall = ConcurrencyMeasures::from_counts(
      std::span(result.totals.num).first(run.width + 1));
  return result;
}

}  // namespace

std::vector<RunResult> run_all(
    const std::vector<RunSpec>& specs, std::size_t threads,
    const std::function<RunResult(const RunSpec&)>& execute) {
  // A pool of zero workers runs each task inline: the serial path.
  base::ThreadPool pool(threads <= 1 || specs.size() <= 1
                            ? 0
                            : std::min(threads, specs.size()));
  std::vector<std::future<RunResult>> futures;
  futures.reserve(specs.size());
  for (const RunSpec& spec : specs) {
    futures.push_back(pool.submit([&execute, &spec] { return execute(spec); }));
  }
  std::vector<RunResult> runs;
  runs.reserve(specs.size());
  for (std::future<RunResult>& future : futures) {
    runs.push_back(future.get());
  }
  return runs;
}

std::vector<AnalyzedSample> StudyResult::all_samples() const {
  std::size_t total = 0;
  for (const SessionResult& session : sessions) {
    total += session.samples.size();
  }
  std::vector<AnalyzedSample> all;
  all.reserve(total);
  for (const SessionResult& session : sessions) {
    all.insert(all.end(), session.samples.begin(), session.samples.end());
  }
  return all;
}

std::uint32_t resolve_threads(const StudyConfig& config) {
  return static_cast<std::uint32_t>(
      base::ThreadPool::resolve_workers(config.threads));
}

std::vector<RunSpec> study_specs(std::span<const workload::WorkloadMix> mixes,
                                 const StudyConfig& config) {
  // Session seeds are derived serially, in mix order, before any
  // dispatch: the seed stream is identical however many workers run.
  std::uint64_t seed_state = config.seed;
  std::vector<RunSpec> specs;
  specs.reserve(mixes.size());
  for (const workload::WorkloadMix& mix : mixes) {
    specs.push_back(session_spec(mix, config, splitmix64(seed_state)));
  }
  return specs;
}

SessionResult run_session(const workload::WorkloadMix& mix,
                          const StudyConfig& config,
                          std::uint64_t session_seed) {
  RunResult session_run = run(session_spec(mix, config, session_seed));
  return fold_session(mix, session_run);
}

StudyResult fold_study(std::span<const workload::WorkloadMix> mixes,
                       std::vector<RunResult> runs) {
  REPRO_EXPECT(runs.size() == mixes.size(), "a study folds one run per mix");
  StudyResult study;
  study.sessions.reserve(mixes.size());
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    const SessionResult& session =
        study.sessions.emplace_back(fold_session(mixes[i], runs[i]));
    study.totals.merge(session.totals);
    study.ff.merge(session.ff);
  }
  const std::uint32_t width =
      study.sessions.empty() ? kMaxCes
                             : study.sessions.front().overall.width;
  study.overall = ConcurrencyMeasures::from_counts(
      std::span(study.totals.num).first(width + 1));
  return study;
}

StudyResult run_study(std::span<const workload::WorkloadMix> mixes,
                      const StudyConfig& config) {
  return fold_study(
      mixes, run_all(study_specs(mixes, config), resolve_threads(config)));
}

StudyResult run_default_study(const StudyConfig& config) {
  const auto mixes = workload::session_presets();
  return run_study(mixes, config);
}

void serialize_config(capsule::Io& io, StudyConfig& config) {
  os::serialize_config(io, config.system);
  instr::serialize_config(io, config.sampling);
  io.u32(config.samples_per_session);
  io.u64(config.warmup_cycles);
  io.u64(config.seed);
}

void SessionResult::serialize(capsule::Io& io) {
  io.str(name);
  auto count = io.extent(samples.size());
  samples.resize(count);
  for (AnalyzedSample& sample : samples) {
    sample.serialize(io);
  }
  totals.serialize(io);
  overall.serialize(io);
  ff.serialize(io);
}

void StudyResult::serialize(capsule::Io& io) {
  auto count = io.extent(sessions.size());
  sessions.resize(count);
  for (SessionResult& session : sessions) {
    session.serialize(io);
  }
  totals.serialize(io);
  overall.serialize(io);
  ff.serialize(io);
}

}  // namespace repro::core

// The run oracle: every distinct run the quick catalog declares, run with
// fast-forward on and with it off, must agree on every field of its
// RunResult except the fast-forward bookkeeping. A failure names the
// artifact, the run's index among its declarations, and the first field
// that differs.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "artifacts/inputs.hpp"
#include "artifacts/registry.hpp"
#include "core/run.hpp"

namespace repro::oracle {
namespace {

struct DeclaredRun {
  std::string name;  ///< "<artifact id>_<declaration index>"
  core::RunSpec spec;
};

void PrintTo(const DeclaredRun& run, std::ostream* os) { *os << run.name; }

/// Each distinct declared run once, named after its first declaration in
/// catalog order (the study's runs after table2, the transition's after
/// fig6).
std::vector<DeclaredRun> quick_catalog_runs() {
  const artifacts::Inputs quick(/*quick=*/true);
  std::vector<DeclaredRun> runs;
  std::set<std::uint64_t> keys;
  for (const artifacts::ArtifactDef& def : artifacts::catalog()) {
    if (!def.runs) {
      continue;
    }
    std::size_t index = 0;
    for (core::RunSpec& spec : def.runs(quick)) {
      const std::string name = def.id + "_" + std::to_string(index++);
      if (keys.insert(core::run_key(spec)).second) {
        runs.push_back({name, std::move(spec)});
      }
    }
  }
  return runs;
}

/// Digest of one value's capsule walk.
template <typename T>
std::uint64_t walk(T value) {
  capsule::Io io = capsule::Io::digester();
  value.serialize(io);
  return io.digest();
}

std::uint64_t walk_samples(const std::vector<core::AnalyzedSample>& samples) {
  capsule::Io io = capsule::Io::digester();
  for (core::AnalyzedSample sample : samples) {
    sample.serialize(io);
  }
  return io.digest();
}

/// The first field, fast-forward bookkeeping aside, in which two results
/// differ; empty when they agree.
std::string first_difference(const core::RunResult& a,
                             const core::RunResult& b) {
  const std::pair<const char*, bool> fields[] = {
      {"samples", walk_samples(a.samples) == walk_samples(b.samples)},
      {"totals", walk(a.totals) == walk(b.totals)},
      {"captures_completed", a.captures_completed == b.captures_completed},
      {"captures_timed_out", a.captures_timed_out == b.captures_timed_out},
      {"state_counts", a.state_counts == b.state_counts},
      {"processor_counts", a.processor_counts == b.processor_counts},
      {"captured", walk(a.captured) == walk(b.captured)},
      {"width", a.width == b.width},
      {"clusters", a.clusters == b.clusters},
      {"jobs_completed", a.jobs_completed == b.jobs_completed},
      {"total_wait_cycles", a.total_wait_cycles == b.total_wait_cycles},
      {"fabric_conflicts", a.fabric_conflicts == b.fabric_conflicts},
      {"now", a.now == b.now},
      {"trace_cw", a.trace_cw == b.trace_cw},
      {"trace_pc", a.trace_pc == b.trace_pc},
      {"trace_events", a.trace_events == b.trace_events},
      {"trace_jobs", a.trace_jobs == b.trace_jobs},
  };
  for (const auto& [name, same] : fields) {
    if (!same) {
      return name;
    }
  }
  return {};
}

class RunOracle : public ::testing::TestWithParam<DeclaredRun> {};

TEST_P(RunOracle, FastForwardMatchesNaive) {
  core::RunSpec spec = GetParam().spec;
  spec.sampling.fast_forward = true;
  const core::RunResult fast = core::run(spec);
  spec.sampling.fast_forward = false;
  const core::RunResult naive = core::run(spec);
  EXPECT_EQ(first_difference(naive, fast), "") << GetParam().name;
  EXPECT_EQ(naive.ff.skipped_cycles, 0u);
  // Every simulated cycle is accounted for, capture cycles included.
  for (const core::RunResult* result : {&fast, &naive}) {
    EXPECT_EQ(result->ff.skipped_cycles + result->ff.naive_cycles +
                  result->ff.block_cycles,
              result->now)
        << GetParam().name;
  }
  // One key for both: fast_forward is a perf-only knob.
  EXPECT_EQ(core::run_key(spec), core::run_key(GetParam().spec));
}

INSTANTIATE_TEST_SUITE_P(Specs, RunOracle,
                         ::testing::ValuesIn(quick_catalog_runs()),
                         [](const auto& param) { return param.param.name; });

}  // namespace
}  // namespace repro::oracle

// fx8meter — command-line driver for the measurement methodology.
//
// The closest thing in this repository to the study's C-Shell control
// scripts (§3.4): pick a workload mixture, run sampled sessions, print
// the report. Usage:
//
//   fx8meter [--sessions N] [--samples M] [--interval CYCLES]
//            [--mix 0..8|high|presets] [--mix-file FILE]
//            [--policy fifo|concurrent|serial] [--seed S]
//            [--threads N]
//            [--ces N] [--clusters K]
//            [--report table2|models|histogram|all]
//            [--csv FILE] [--checkpoint FILE] [--resume FILE]
//
// --threads 0 (the default) picks FX8_THREADS or the hardware
// concurrency; results are bit-identical for every thread count.
//
// A run keeps every sample it takes (about 2.3 KB each), so --sessions
// times --samples may be at most kMaxSamples (10000, some 150 times the
// paper's 65); a larger product exits 2 before anything is allocated.
//
// --checkpoint FILE writes a sealed state capsule after every completed
// sample; --resume FILE continues a run from such a capsule. Both
// restrict the run to one session (the capsule holds one measurement
// rig) and produce output bit-identical to an uninterrupted run — see
// docs/checkpointing.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <fstream>
#include <sstream>

#include "base/capsule.hpp"
#include "base/expect.hpp"
#include "base/text.hpp"
#include "core/checkpoint.hpp"
#include "core/export.hpp"
#include "core/regression_models.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "fx8/machine.hpp"
#include "workload/mix_io.hpp"
#include "workload/presets.hpp"

namespace {

using namespace repro;

/// Bound on sessions x samples (see the header comment).
constexpr std::uint64_t kMaxSamples = 10000;

struct Options {
  std::uint32_t sessions = 9;
  std::uint32_t samples = 8;
  Cycle interval = 60000;
  std::string mix = "presets";
  std::string policy = "fifo";
  std::string report = "all";
  std::string mix_file;
  std::string csv_file;
  std::string checkpoint_file;
  std::string resume_file;
  std::uint64_t seed = 0x19870301;
  std::uint32_t threads = 0;
  std::uint32_t ces = 0;       ///< 0 = the stock FX/8 width.
  std::uint32_t clusters = 0;  ///< 0 = derive from --ces.
};

/// Strict flag-value parses (the shared repro::parse_u{32,64}_strict
/// rules): plain digits only — no whitespace, signs, trailing garbage
/// or silent overflow saturation. Missing or malformed values print
/// which flag rejected what and fail the parse (exit 2).
bool parse_u32_flag(const char* flag, const char* value,
                    std::uint32_t& out) {
  if (value == nullptr || !repro::parse_u32_strict(value, out)) {
    std::fprintf(stderr, "%s wants a plain non-negative integer, got '%s'\n",
                 flag, value == nullptr ? "(nothing)" : value);
    return false;
  }
  return true;
}

bool parse_u64_flag(const char* flag, const char* value, std::uint64_t& out,
                    int base = 10) {
  if (value == nullptr || !repro::parse_u64_strict(value, out, base)) {
    std::fprintf(stderr, "%s wants a plain non-negative integer, got '%s'\n",
                 flag, value == nullptr ? "(nothing)" : value);
    return false;
  }
  return true;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--sessions") {
      if (!parse_u32_flag("--sessions", next(), options.sessions))
        return false;
    } else if (arg == "--samples") {
      if (!parse_u32_flag("--samples", next(), options.samples))
        return false;
    } else if (arg == "--interval") {
      if (!parse_u64_flag("--interval", next(), options.interval))
        return false;
    } else if (arg == "--mix") {
      const char* v = next();
      if (!v) return false;
      options.mix = v;
    } else if (arg == "--policy") {
      const char* v = next();
      if (!v) return false;
      options.policy = v;
    } else if (arg == "--seed") {
      // Base 0: seeds are documented as hex-friendly (0x...).
      if (!parse_u64_flag("--seed", next(), options.seed, 0)) return false;
    } else if (arg == "--threads") {
      if (!parse_u32_flag("--threads", next(), options.threads))
        return false;
    } else if (arg == "--ces") {
      if (!parse_u32_flag("--ces", next(), options.ces)) return false;
      if (options.ces == 0) {
        std::fprintf(stderr, "--ces wants a positive integer\n");
        return false;
      }
    } else if (arg == "--clusters") {
      if (!parse_u32_flag("--clusters", next(), options.clusters))
        return false;
      if (options.clusters == 0) {
        std::fprintf(stderr, "--clusters wants a positive integer\n");
        return false;
      }
    } else if (arg == "--report") {
      const char* v = next();
      if (!v) return false;
      options.report = v;
      if (options.report != "table2" && options.report != "models" &&
          options.report != "histogram" && options.report != "all") {
        std::fprintf(stderr, "unknown report: %s\n", v);
        return false;
      }
    } else if (arg == "--mix-file") {
      const char* v = next();
      if (!v) return false;
      options.mix_file = v;
    } else if (arg == "--csv") {
      const char* v = next();
      if (!v) return false;
      options.csv_file = v;
    } else if (arg == "--checkpoint") {
      const char* v = next();
      if (!v) return false;
      options.checkpoint_file = v;
    } else if (arg == "--resume") {
      const char* v = next();
      if (!v) return false;
      options.resume_file = v;
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return options.sessions > 0 && options.samples > 0 &&
         options.interval >= 5 * 512;
}

/// Single-session run with sample-granular checkpointing: the rig is
/// capsuled after every completed sample, and a resumed run continues
/// the stream bit-identically. The rig is the study's one run and folds
/// through core::fold_study, so the output matches the uninterrupted
/// engine run.
int run_checkpointed(const Options& options,
                     std::span<const workload::WorkloadMix> mixes,
                     const core::StudyConfig& config,
                     core::StudyResult& study) {
  const core::RunSpec spec = core::study_specs(mixes, config).front();
  os::System system(spec.system);
  workload::WorkloadGenerator generator(spec.mix, spec.generator_seed);
  instr::SessionController controller(system, generator, spec.sampling,
                                      spec.controller_seed);

  core::StudyCheckpoint progress;
  progress.samples_total = config.samples_per_session;
  if (!options.resume_file.empty()) {
    try {
      progress = core::load_study_checkpoint(
          capsule::read_file(options.resume_file), system, generator,
          controller);
    } catch (const capsule::CapsuleError& error) {
      std::fprintf(stderr, "fx8meter: cannot resume: %s\n", error.what());
      return 2;
    }
    // The capsule pins the system config; the sample target is the
    // user's call (the same --samples resumes, a larger one extends).
    progress.samples_total = config.samples_per_session;
    std::printf("resumed from %s at sample %u/%u\n\n",
                options.resume_file.c_str(), progress.samples_done,
                progress.samples_total);
  } else {
    controller.advance(spec.warmup_cycles);
  }

  while (progress.samples_done < progress.samples_total) {
    progress.records.push_back(controller.take_sample());
    ++progress.samples_done;
    if (!options.checkpoint_file.empty()) {
      try {
        capsule::write_file(options.checkpoint_file,
                            core::save_study_checkpoint(progress, system,
                                                        generator,
                                                        controller));
      } catch (const capsule::CapsuleError& error) {
        std::fprintf(stderr, "fx8meter: cannot checkpoint: %s\n",
                     error.what());
        return 2;
      }
    }
  }

  std::vector<core::RunResult> runs(1);
  core::RunResult& run = runs.front();
  run.width = system.machine().total_ces();
  run.samples.reserve(progress.records.size());
  for (const instr::SampleRecord& record : progress.records) {
    run.samples.push_back(core::analyze(record, run.width));
    run.totals.merge(record.hw);
  }
  run.ff = controller.ff_stats();
  study = core::fold_study(mixes, std::move(runs));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(
        stderr,
        "usage: fx8meter [--sessions N] [--samples M] [--interval CYCLES]\n"
        "                [--mix 0..8|high|presets] [--policy "
        "fifo|concurrent|serial]\n"
        "                [--seed S] [--threads N]\n"
        "                [--ces N] [--clusters K]\n"
        "                [--report table2|models|histogram|all]\n"
        "                [--checkpoint FILE] [--resume FILE]\n"
        "N x M may be at most 10000.\n");
    return 2;
  }
  const std::uint64_t total_samples =
      std::uint64_t{options.sessions} * options.samples;
  if (total_samples > kMaxSamples) {
    std::fprintf(stderr,
                 "fx8meter: --sessions %u x --samples %u = %llu samples, "
                 "more than the %llu a run may take\n",
                 options.sessions, options.samples,
                 static_cast<unsigned long long>(total_samples),
                 static_cast<unsigned long long>(kMaxSamples));
    return 2;
  }

  // Assemble the session mixes.
  std::vector<workload::WorkloadMix> mixes;
  const auto presets = workload::session_presets();
  if (!options.mix_file.empty()) {
    std::ifstream in(options.mix_file);
    if (!in) {
      std::fprintf(stderr, "cannot open mix file: %s\n",
                   options.mix_file.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    workload::WorkloadMix mix;
    try {
      mix = workload::parse_mix(text.str());
    } catch (const ContractViolation& error) {
      std::fprintf(stderr, "bad mix file %s: %s\n", options.mix_file.c_str(),
                   error.what());
      return 2;
    }
    for (std::uint32_t s = 0; s < options.sessions; ++s) {
      mixes.push_back(mix);
    }
  } else if (options.mix == "presets") {
    for (std::uint32_t s = 0; s < options.sessions; ++s) {
      mixes.push_back(presets[s % presets.size()]);
    }
  } else if (options.mix == "high") {
    for (std::uint32_t s = 0; s < options.sessions; ++s) {
      mixes.push_back(workload::high_concurrency_mix());
    }
  } else {
    std::uint32_t index = 0;
    if (!repro::parse_u32_strict(options.mix.c_str(), index)) {
      std::fprintf(stderr, "--mix wants a preset name or index, got '%s'\n",
                   options.mix.c_str());
      return 2;
    }
    if (index >= presets.size()) {
      std::fprintf(stderr, "mix index out of range (0..8)\n");
      return 2;
    }
    for (std::uint32_t s = 0; s < options.sessions; ++s) {
      mixes.push_back(presets[index]);
    }
  }

  core::StudyConfig config;
  if (options.ces != 0 || options.clusters != 0) {
    fx8::MachineConfig& machine = config.system.machine;
    // --ces alone spreads over as few whole clusters as fit; --clusters
    // alone gangs stock 8-CE clusters.
    const std::uint32_t clusters =
        options.clusters != 0
            ? options.clusters
            : 1 + (options.ces - 1) / kMaxCes;
    const std::uint32_t ces =
        options.ces != 0 ? options.ces : clusters * machine.cluster.n_ces;
    if (ces % clusters != 0 || !fx8::shape_valid(clusters, ces / clusters)) {
      std::fprintf(stderr,
                   "fx8meter: invalid topology (--ces %u --clusters %u): "
                   "need 1..%u clusters of 1..%u CEs each (the lane "
                   "kernel's chunk), evenly divided, %u CEs total at "
                   "most\n",
                   options.ces, clusters, kMaxTopologyCes / kMaxCes, kMaxCes,
                   kMaxTopologyCes);
      return 2;
    }
    machine.n_clusters = clusters;
    machine.cluster.n_ces = ces / clusters;
  }
  config.samples_per_session = options.samples;
  config.sampling.interval_cycles = options.interval;
  config.seed = options.seed;
  config.threads = options.threads;
  if (options.policy == "concurrent") {
    config.system.scheduling = os::SchedulingPolicy::kConcurrentFirst;
  } else if (options.policy == "serial") {
    config.system.scheduling = os::SchedulingPolicy::kSerialFirst;
  } else if (options.policy != "fifo") {
    std::fprintf(stderr, "unknown policy: %s\n", options.policy.c_str());
    return 2;
  }

  const bool checkpointed =
      !options.checkpoint_file.empty() || !options.resume_file.empty();
  if (checkpointed && mixes.size() != 1) {
    std::fprintf(stderr,
                 "fx8meter: --checkpoint/--resume hold one measurement "
                 "rig; run with --sessions 1\n");
    return 2;
  }

  std::printf("fx8meter: %zu session(s), %u sample(s) x %llu cycles, "
              "policy %s, seed %#llx, %u thread(s)\n\n",
              mixes.size(), options.samples,
              static_cast<unsigned long long>(options.interval),
              options.policy.c_str(),
              static_cast<unsigned long long>(options.seed),
              core::resolve_threads(config));

  core::StudyResult study;
  if (checkpointed) {
    const int rc = run_checkpointed(options, mixes, config, study);
    if (rc != 0) {
      return rc;
    }
  } else {
    study = core::run_study(mixes, config);
  }

  const bool all = options.report == "all";
  if (all || options.report == "table2") {
    std::printf("%s\n", core::render_table2(study.overall).c_str());
    std::printf("%s\n", core::render_session_table(study.sessions).c_str());
  }
  if (all || options.report == "histogram") {
    std::printf("%s\n",
                core::render_active_histogram(
                    study.totals.num, study.overall.width,
                    "Records with N processors active")
                    .c_str());
  }
  if (all || options.report == "models") {
    // A short run can leave a model too little to fit (no sample with a
    // defined Pc, or fewer than three occupied bins). The run itself is
    // sound, so the models report alone is skipped, with the reason.
    try {
      const auto models = core::fit_all_models(study.all_samples());
      std::printf("%s\n",
                  core::render_regression_table(models, core::Regressor::kCw)
                      .c_str());
      std::printf("%s\n",
                  core::render_regression_table(models, core::Regressor::kPc)
                      .c_str());
    } catch (const ContractViolation& error) {
      std::printf("models report skipped: too few samples to fit (%s)\n",
                  error.what());
    }
  }
  if (!options.csv_file.empty()) {
    std::ofstream out(options.csv_file);
    if (!out) {
      std::fprintf(stderr, "cannot write csv: %s\n",
                   options.csv_file.c_str());
      return 2;
    }
    out << core::samples_to_csv(study.sessions);
    std::printf("wrote %s\n", options.csv_file.c_str());
  }
  return 0;
}

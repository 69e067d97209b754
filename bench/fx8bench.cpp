// fx8bench — the one reproduction harness.
//
// Every table, figure and appendix of the paper (plus the design
// ablations and §6 extensions) is registered in the artifact catalog
// (src/artifacts/); this binary selects artifacts, renders them
// concurrently against ONE shared input cache — the nine-session study
// and the transition study execute at most once per invocation, however
// many artifacts read them — prints, in selection order, the same
// human-readable text the old one-shot bench binaries did, and
// optionally writes a structured JSON report.
//
// Usage:
//   fx8bench --list                 catalog ids, one per line
//   fx8bench --all                  run everything, paper-scale
//   fx8bench --only fig12,table2    run a comma-separated selection
//   fx8bench --quick                CI-scale populations (~seconds)
//   fx8bench --json report.json     write the structured report
//   fx8bench --cache-dir <dir>      persistent result cache: artifacts
//                                   whose inputs are unchanged load from
//                                   disk instead of re-running (also via
//                                   the FX8BENCH_CACHE_DIR environment
//                                   variable; see docs/benchmarks.md)
//   fx8bench --no-cache             ignore any configured cache
//   fx8bench --cache-stats          print hit/miss/bytes counters
//
// Exit code: 0 all artifacts ok; 1 a headline metric fell outside its
// paper-tolerance band (or came out NaN); 2 a render failed outright.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "artifacts/inputs.hpp"
#include "artifacts/registry.hpp"
#include "artifacts/result_store.hpp"
#include "artifacts/runner.hpp"
#include "core/json.hpp"

namespace {

using namespace repro;

void print_usage() {
  std::printf(
      "usage: fx8bench [--list] [--all | --only id1,id2,...]\n"
      "                [--quick] [--json <path>]\n"
      "                [--cache-dir <dir>] [--no-cache] [--cache-stats]\n");
}

std::vector<std::string> split_ids(const std::string& arg) {
  std::vector<std::string> ids;
  std::string current;
  for (const char ch : arg) {
    if (ch == ',') {
      if (!current.empty()) {
        ids.push_back(current);
        current.clear();
      }
    } else {
      current.push_back(ch);
    }
  }
  if (!current.empty()) {
    ids.push_back(current);
  }
  return ids;
}

void print_list() {
  std::printf("%-28s %-10s %s\n", "id", "kind", "paper reference");
  for (const artifacts::ArtifactDef& def : artifacts::catalog()) {
    std::printf("%-28s %-10s %s\n", def.id.c_str(),
                artifacts::to_string(def.kind), def.paper_ref.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool list = false;
  bool all = false;
  bool quick = false;
  bool no_cache = false;
  bool cache_stats = false;
  std::string cache_dir;
  std::string json_path;
  std::vector<std::string> only_ids;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list = true;
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg == "--cache-stats") {
      cache_stats = true;
    } else if (arg == "--cache-dir") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fx8bench: --cache-dir needs a path\n");
        return 2;
      }
      cache_dir = argv[++i];
    } else if (arg == "--only") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fx8bench: --only needs an id list\n");
        return 2;
      }
      const auto ids = split_ids(argv[++i]);
      only_ids.insert(only_ids.end(), ids.begin(), ids.end());
    } else if (arg == "--json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fx8bench: --json needs a path\n");
        return 2;
      }
      json_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else {
      std::fprintf(stderr, "fx8bench: unknown argument '%s'\n", arg.c_str());
      print_usage();
      return 2;
    }
  }

  if (list) {
    print_list();
    return 0;
  }
  if (!all && only_ids.empty()) {
    print_usage();
    return 2;
  }

  // Resolve the selection in catalog order; --only keeps the caller's
  // order so `--only fig7,fig6` renders fig7 first.
  std::vector<const artifacts::ArtifactDef*> selection;
  if (all) {
    for (const artifacts::ArtifactDef& def : artifacts::catalog()) {
      selection.push_back(&def);
    }
  } else {
    for (const std::string& id : only_ids) {
      const artifacts::ArtifactDef* def = artifacts::find_artifact(id);
      if (def == nullptr) {
        const artifacts::ArtifactDef* nearest =
            artifacts::suggest_artifact(id);
        if (nearest != nullptr) {
          std::fprintf(stderr,
                       "fx8bench: unknown artifact '%s' — did you mean "
                       "'%s'? (see --list)\n",
                       id.c_str(), nearest->id.c_str());
        } else {
          std::fprintf(stderr,
                       "fx8bench: unknown artifact '%s' (see --list)\n",
                       id.c_str());
        }
        return 2;
      }
      selection.push_back(def);
    }
  }

  // Cache resolution: --no-cache beats everything; otherwise --cache-dir,
  // falling back to the FX8BENCH_CACHE_DIR environment variable. With
  // neither, results are only memoized in-process (the pre-cache
  // behaviour).
  if (cache_dir.empty()) {
    if (const char* env = std::getenv("FX8BENCH_CACHE_DIR")) {
      cache_dir = env;
    }
  }
  if (no_cache) {
    cache_dir.clear();
  }

  std::optional<artifacts::Inputs> inputs_storage;
  try {
    inputs_storage.emplace(quick, cache_dir);
  } catch (const capsule::CapsuleError& error) {
    std::fprintf(stderr, "fx8bench: %s\n", error.what());
    return 2;
  }
  artifacts::Inputs& inputs = *inputs_storage;
  // Stream each artifact's output as soon as it and every earlier one in
  // the selection are ready, rather than waiting for the whole run.
  std::size_t printed = 0;
  const artifacts::RunReport report = artifacts::run_artifacts(
      selection, inputs, [&](const artifacts::ArtifactResult& result) {
        std::fputs(artifacts::render_header(*selection[printed++]).c_str(),
                   stdout);
        std::fputs(result.text.c_str(), stdout);
        if (result.status == artifacts::ArtifactStatus::kError) {
          std::printf("\n[%s] ERROR: %s\n", result.id.c_str(),
                      result.error.c_str());
        } else {
          for (const artifacts::Check& check : result.checks) {
            if (check.enforced && !check.pass) {
              std::printf("\n[%s] TOLERANCE: %s = %g outside [%g, %g] "
                          "(paper %g)\n",
                          result.id.c_str(), check.name.c_str(),
                          check.measured, check.lo, check.hi, check.paper);
            }
          }
        }
        std::printf("\n");
        std::fflush(stdout);
      });

  // Summary footer.
  std::printf("=============================================================\n");
  std::printf("fx8bench: %zu artifacts, %d ok, %d tolerance-failed, "
              "%d errors (%.1fs%s)\n",
              report.results.size(), report.ok, report.tolerance_failed,
              report.errors, report.total_seconds,
              quick ? ", quick" : "");
  std::printf("experiments: %d study run(s), %d transition run(s), "
              "%d artifact-private run(s)\n",
              report.run_counts.study_runs,
              report.run_counts.transition_runs,
              report.run_counts.private_runs);
  if (const artifacts::ResultStore* store = inputs.store()) {
    const artifacts::CacheStats stats = store->stats();
    std::printf("cache: %llu hit(s), %llu miss(es) (%llu corrupt), "
                "%llu put(s) (%llu failed), %llu B read, %llu B written "
                "[%s]\n",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.corrupt_misses),
                static_cast<unsigned long long>(stats.puts),
                static_cast<unsigned long long>(stats.put_errors),
                static_cast<unsigned long long>(stats.bytes_read),
                static_cast<unsigned long long>(stats.bytes_written),
                store->dir().c_str());
  } else if (cache_stats) {
    std::printf("cache: disabled (pass --cache-dir or set "
                "FX8BENCH_CACHE_DIR)\n");
  }

  if (!json_path.empty()) {
    const core::Json doc = artifacts::build_report_json(
        report, inputs, inputs.study_for_report());
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "fx8bench: cannot write '%s'\n",
                   json_path.c_str());
      return 2;
    }
    out << doc.dump(2) << '\n';
    std::printf("report: %s\n", json_path.c_str());
  }
  return report.exit_code();
}

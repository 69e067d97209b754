#!/usr/bin/env python3
"""Compare two fx8bench JSON reports modulo timing/cache bookkeeping.

The persistent result cache (docs/benchmarks.md, "The result cache")
promises that a warm `fx8bench --all` reproduces the cold run's report
byte-for-byte *except* for fields that describe the run itself rather
than the measured results; so does a run at another worker count
(FX8_THREADS=1 against the default). Those fields are:

  - `summary.total_seconds` and each artifact's `seconds` (wall clock),
  - `experiment_runs` (a warm run executes zero engines),
  - `cache` (hit/miss counters obviously differ between cold and warm),
  - `study_engine.threads` (the worker count itself),
  - `perf_simulator`'s CPU-clock rates and the timed
    `block_vs_naive_speedup` check built on them.

This script strips exactly those fields from both reports and then
compares the rest byte-for-byte (via a canonical JSON dump). CI uses it
to gate the cold-then-warm and serial-vs-threaded `artifact-report`
checks; it is equally handy locally:

    python3 scripts/report_diff.py cold.json warm.json

Exit code 0 when the normalized reports match, 1 when they differ (a
unified diff is printed), 2 on usage/IO errors.
"""

import difflib
import json
import sys

# Fields that legitimately differ between a cold and a warm run.
VOLATILE_TOP_LEVEL = ("experiment_runs", "cache")

# perf_simulator times itself: these metrics (and the check of the same
# name) are CPU-clock rates, host cycles per CPU second, not simulated
# results.
TIMED_PERF_METRICS = ("naive_cycles_per_sec", "block_cycles_per_sec",
                      "idle_cycles_per_sec", "block_vs_naive_speedup")


def strip_timed(artifact: dict) -> None:
    if artifact.get("id") != "perf_simulator":
        return
    metrics = artifact.get("metrics")
    if isinstance(metrics, dict):
        for name in TIMED_PERF_METRICS:
            metrics.pop(name, None)
    for check in artifact.get("checks", []):
        if isinstance(check, dict) and check.get("name") in TIMED_PERF_METRICS:
            check.pop("measured", None)
            check.pop("pass", None)


def normalize(report: dict) -> dict:
    for key in VOLATILE_TOP_LEVEL:
        report.pop(key, None)
    if isinstance(report.get("summary"), dict):
        report["summary"].pop("total_seconds", None)
    if isinstance(report.get("study_engine"), dict):
        report["study_engine"].pop("threads", None)
    for artifact in report.get("artifacts", []):
        if isinstance(artifact, dict):
            artifact.pop("seconds", None)
            strip_timed(artifact)
    return report


def canonical(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    return json.dumps(normalize(report), indent=2, sort_keys=True) + "\n"


def main(argv: list) -> int:
    if len(argv) != 3:
        print(f"usage: {argv[0]} <a.json> <b.json>", file=sys.stderr)
        return 2
    try:
        a, b = canonical(argv[1]), canonical(argv[2])
    except (OSError, json.JSONDecodeError) as error:
        print(f"report_diff: {error}", file=sys.stderr)
        return 2
    if a == b:
        print("report_diff: reports identical modulo timing/cache fields")
        return 0
    sys.stdout.writelines(
        difflib.unified_diff(
            a.splitlines(keepends=True),
            b.splitlines(keepends=True),
            fromfile=argv[1],
            tofile=argv[2],
        )
    )
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""The repository benchmark: build the simulator, run one workload, print
its metrics.

    python3 perfbench/run.py --workload reproduce|study_fx8|study_fx64 \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/driver.cpp and the
simulator libraries from source into .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench), runs the workload as a closed loop for S
seconds, checks every pass against reference digests, and prints a
manifest, one line per metric and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced;
with --trace 1 they are the per-layer ones, from a run whose traced
passes alternate with untraced ones. perfbench/README.md explains the
workloads and what each metric should move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reproduce", "study_fx8", "study_fx64")
SETUP_PROCESSES = 24

# The artifact catalog and the nine session presets, in their own
# order: the per-layer metrics named after them.
ARTIFACT_IDS = (
    "table1 table2 table3 table4 fig3 fig4 fig5 fig8 fig9 fig10 fig11 fig6 "
    "fig7 fig12 fig13 fig14 appendix_a appendix_b_busbusy "
    "appendix_b_pagefault ablation_service_order ablation_locality "
    "ablation_vector_traffic ablation_dispatch trace_vs_sampling "
    "scheduling_policy width_sweep width_scaling correlation_matrix "
    "detached_artifact high_concurrency_captures lock_scaling "
    "predictor_validation perf_simulator"
).split()
SESSIONS = (
    "session-1-light-interactive session-2-mixed session-3-numeric-heavy "
    "session-4-idle-morning session-5-steady-dev session-6-batch-numeric "
    "session-7-compile-test session-8-mixed-busy session-9-serial-day"
).split()

END_TO_END = {
    "wall_s": "s",
    "sim_mcycles_per_s": "Mcycles/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Counters the traced study pass records per session rig; a pass's value
# is the sum over its sessions.
RIG_COUNTERS = (
    "instr.ff_skipped_cycles", "instr.ff_block_cycles",
    "instr.ff_naive_cycles", "instr.ff_jumps", "instr.probe_records",
    "os.vm_faults", "os.jobs_completed", "fx8.ce_busy_cycles",
    "fx8.iterations_completed", "fx8.fabric_conflicts", "cache.accesses",
    "cache.misses", "cache.merged_misses",
)
# Per-layer times summed from each span of a name (labelled render and
# session spans are handled in per_layer). On reproduce, Inputs::models
# is where the models get fitted, so it counts as core.fit_models_s too.
SPAN_METRICS = {
    "artifacts.inputs.study": ("artifacts.inputs_study_s",),
    "artifacts.inputs.transition": ("artifacts.inputs_transition_s",),
    "artifacts.inputs.models": ("artifacts.inputs_models_s",
                                "core.fit_models_s"),
    "core.analyze": ("core.analyze_s",),
    "core.fit_models": ("core.fit_models_s",),
    "instr.warmup": ("instr.warmup_s",),
    "instr.take_sample": ("instr.take_sample_s",),
    "os.rig_ctor": ("os.rig_ctor_s",),
}
RUN_COUNTERS = (
    "artifacts.private_runs", "artifacts.study_runs",
    "artifacts.transition_runs",
)


def per_layer_units():
    """Every per-layer metric, in print order, with its unit."""
    units = {
        "artifacts.inputs_study_s": "s",
        "artifacts.inputs_transition_s": "s",
        "artifacts.inputs_models_s": "s",
        "artifacts.render_self_s": "s",
        "artifacts.render_max_s": "s",
    }
    units.update({f"artifacts.render_s.{a}": "s" for a in ARTIFACT_IDS})
    units.update({name: "count" for name in RUN_COUNTERS})
    units.update({f"core.run_session_s.{s}": "s" for s in SESSIONS})
    units.update({
        "core.analyze_s": "s",
        "core.fit_models_s": "s",
        "instr.warmup_s": "s",
        "instr.take_sample_s": "s",
        "instr.warmup_ns_per_cycle": "ns/cycle",
        "instr.sample_ns_per_cycle": "ns/cycle",
        "instr.ff_skipped_share": "share",
        "os.rig_ctor_s": "s",
    })
    units.update({name: "count" for name in RIG_COUNTERS})
    units["bench.trace_overhead_share"] = "share"
    return units


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(out_dir):
    """Configure once, then build the driver (a no-op when up to date).
    Build output goes to stderr so stdout carries only the result, and the
    compiler's temporary files stay inside the build directory."""
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not any((out_dir / name).exists() for name in ("build.ninja",
                                                        "Makefile")):
        configure = ["cmake", "-S", str(HERE), "-B", str(out_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out_dir), "--target",
                    "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return out_dir / "perfbench_driver"


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def reference_for(references, args):
    """Stored digests for this workload, scale and seed, or None."""
    entry = references.get(args.scale, {}).get(args.workload, {})
    if args.workload == "reproduce":
        return entry or None  # the paper's fixed seeds, whatever --seed is
    return entry.get(str(args.seed))


def count_failures(passes, reference):
    """(attempted, failed): one operation per artifact or session of each
    pass. An operation fails when it is not ok or its digest differs from
    the reference; a wrong shared digest (the report outside its
    artifacts, or Table 2) fails every operation of its pass."""
    attempted = failed = 0
    for outcome in passes:
        ops = reference["digests"]
        attempted += len(ops)
        if outcome["shared_digest"] != reference["shared_digest"]:
            failed += len(ops)
            continue
        bad = {op for op, digest in ops.items()
               if outcome["digests"].get(op) != digest}
        failed += len(bad | (set(outcome["not_ok"]) & set(ops)))
    return attempted, failed


def fastest(values):
    """A host time as reported: the smallest of the repetitions. Other
    tenants of a shared host only ever add time, and do so in phases
    that outlast a run, which move a median by far more than the bounds
    allow (README.md, "Steadiness")."""
    return min(values) if values else 0.0


def per_layer(doc, trace):
    """Per-layer metrics from the spans and counters of the traced
    passes: each time is the fastest over passes of the pass's total, and
    a metric the workload never reaches reads 0."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]
    by_pass = {}
    for index, span in enumerate(spans):
        duration = span["end"] - span["start"]
        totals = by_pass.setdefault(span["pass"], {})
        names = list(SPAN_METRICS.get(span["name"], ()))
        if span["name"] == "core.session":
            names.append(f"core.run_session_s.{span['label']}")
        elif span["name"] == "artifacts.render":
            names.append(f"artifacts.render_s.{span['label']}")
            totals["artifacts.render_self_s"] = (
                totals.get("artifacts.render_self_s", 0.0)
                + duration - child_time[index])
            totals["artifacts.render_max_s"] = max(
                totals.get("artifacts.render_max_s", 0.0), duration)
        for name in names:
            totals[name] = totals.get(name, 0.0) + duration

    metrics = {name: 0.0 for name in per_layer_units()}
    for name in metrics:
        values = [totals[name] for totals in by_pass.values()
                  if name in totals]
        if values:
            metrics[name] = fastest(values)
    if doc.get("warmup_cycles_per_pass"):
        metrics["instr.warmup_ns_per_cycle"] = (
            metrics["instr.warmup_s"] / doc["warmup_cycles_per_pass"] * 1e9)
        metrics["instr.sample_ns_per_cycle"] = (
            metrics["instr.take_sample_s"] / doc["sample_cycles_per_pass"]
            * 1e9)

    # Counters are deterministic: every traced pass must repeat them.
    counts = {}
    for counter in trace["counters"]:
        per_pass = counts.setdefault(counter["name"], {})
        per_pass[counter["pass"]] = (per_pass.get(counter["pass"], 0)
                                     + counter["value"])
    repeatable = True
    for name, per_pass in counts.items():
        values = set(per_pass.values())
        repeatable = repeatable and len(values) == 1
        metrics[name] = values.pop()
    cycles = sum(metrics[f"instr.ff_{kind}_cycles"]
                 for kind in ("skipped", "block", "naive"))
    if cycles:
        metrics["instr.ff_skipped_share"] = (
            metrics["instr.ff_skipped_cycles"] / cycles)

    untraced = [p["wall_s"] for p in doc["passes"] if not p["traced"]]
    traced = [p["wall_s"] for p in doc["passes"] if p["traced"]]
    metrics["bench.trace_overhead_share"] = (
        (fastest(traced) - fastest(untraced)) / fastest(untraced))
    return metrics, repeatable


def record(references, args, doc):
    """Store the digests of this run as the reference: the fast-forward-off
    serial run's for a study, the first pass's for reproduce (whose
    passes must all agree and all be ok)."""
    if args.workload == "reproduce":
        first = doc["passes"][0]
        if any(p["not_ok"] or p["digests"] != first["digests"]
               or p["shared_digest"] != first["shared_digest"]
               for p in doc["passes"]):
            raise RuntimeError("passes disagree; nothing recorded")
        entry = {"digests": first["digests"],
                 "shared_digest": first["shared_digest"]}
        references.setdefault(args.scale, {})[args.workload] = entry
    else:
        entry = {key: doc["reference"][key]
                 for key in ("digests", "shared_digest")}
        references.setdefault(args.scale, {}).setdefault(
            args.workload, {})[str(args.seed)] = entry
    args.references.write_text(
        json.dumps(references, indent=1, sort_keys=True) + "\n")
    log(f"perfbench: recorded {args.workload} {args.scale} seed "
        f"{args.seed} in {args.references}")
    return entry


def setup_samples(driver, args):
    """Setup time of fresh processes: start to the first workload call."""
    command = [str(driver), "--workload", args.workload, "--seed",
               str(args.seed), "--setup-only"] + scale_flags(args)
    return [float(subprocess.run(command, check=True, capture_output=True,
                                 text=True).stdout)
            for _ in range(SETUP_PROCESSES)]


def scale_flags(args):
    return ["--tiny"] if args.scale == "tiny" else []


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "tiny"), default="paper",
                        help="tiny: the self-test's populations")
    parser.add_argument("--references", type=Path,
                        default=HERE / "references.json")
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests as the reference "
                             "for its workload, scale and seed")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv):
    args = parse_args(argv)
    out_dir = build_dir()
    driver = build(out_dir)
    references = json.loads(args.references.read_text())
    reference = reference_for(references, args)

    stem = f"{args.workload}-{args.scale}-{args.seed}-trace{args.trace}"
    out_file = out_dir / "runs" / f"{stem}.json"
    trace_file = out_dir / "runs" / f"{stem}.trace.json"
    out_file.parent.mkdir(parents=True, exist_ok=True)
    command = [str(driver), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--out",
               str(out_file)] + scale_flags(args)
    if args.trace:
        command += ["--trace", "--trace-out", str(trace_file)]
    if reference is None or (args.record and args.workload != "reproduce"):
        command.append("--reference-run")
    setups = [] if args.trace else setup_samples(driver, args)
    started = time.monotonic()
    subprocess.run(command, check=True, stdout=sys.stderr)
    doc = json.loads(out_file.read_text())
    if args.record:
        reference = record(references, args, doc)
    elif reference is None:
        reference = doc["reference"]

    manifest = dict(doc["manifest"], git_describe=git_describe(),
                    workload=args.workload, seed=args.seed, scale=args.scale,
                    trace=args.trace)
    print("manifest: " + json.dumps(manifest, sort_keys=True))
    attempted, failed = count_failures(doc["passes"], reference)
    untraced = sorted(p["wall_s"] for p in doc["passes"] if not p["traced"])
    print(f"{args.workload}: {len(doc['passes'])} passes in "
          f"{time.monotonic() - started:.1f} s, {len(untraced)} untraced; "
          f"operation = one {doc['operation']}")
    correct = failed == 0
    if args.trace:
        metrics, repeatable = per_layer(doc, json.loads(trace_file.read_text()))
        units = per_layer_units()
        if not repeatable:
            print("deterministic counters differ between passes")
            correct = False
    else:
        wall = fastest(untraced)
        setups.append(doc["setup_s"])
        metrics = {
            "wall_s": wall,
            "sim_mcycles_per_s": doc["sim_cycles_per_pass"] / wall / 1e6,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": doc["peak_rss_mb"],
        }
        units = END_TO_END
        # The highest percentile with at least ten samples beyond it.
        supported = max((q for q in (50, 90, 99)
                         if len(untraced) * (100 - q) / 100 >= 10),
                        default=None)
        tail = (f"p{supported} "
                f"{untraced[int(len(untraced) * supported / 100)]:.4f} s"
                if supported else "no percentile has ten samples beyond it")
        print(f"wall_s: fastest of n={len(untraced)} passes; median "
              f"{statistics.median(untraced):.4f} s, max {untraced[-1]:.4f} s; "
              f"{tail}")
        print(f"setup_s: median of n={len(setups)} processes")
    print(f"failed_share: {failed / attempted:.4f} "
          f"({failed} of {attempted} operations failed)")
    for name, unit in units.items():
        print(f"  {name:48s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (OSError, RuntimeError, subprocess.CalledProcessError,
            json.JSONDecodeError, KeyError) as error:
        log(f"perfbench: {error}")
        sys.exit(1)

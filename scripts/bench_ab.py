#!/usr/bin/env python3
"""Interleaved A/B of the repository benchmark between two checkouts.

    python3 scripts/bench_ab.py PARENT CHANGE [--workloads a,b] \
        [--pairs 10] [--seconds 5] [--seed 0] [--out ab.json] \
        [--history BENCH_history.jsonl]

PARENT and CHANGE are two checkouts of this repository (for example the
parent commit made with `git clone` or `git archive`, and the working
tree). For every workload the script runs `perfbench/run.py --trace 0`
in each checkout, PAIRS times, alternating which side goes first, so
slow drift on a shared host lands on both sides evenly. Each checkout
builds its own driver into its own .bench_build/ the first time (the
build is not timed; run.py times the driver alone).

For each end-to-end metric BENCHMARK.json declares, it prints both sides'
median and quartiles, how many pairs the change won (ties count for
neither side), and whether a gain would be claimable by the rule of the
choosing-metrics method: the change wins at least nine tenths of the
pairs, and its median beats the parent's by more than the distance
between the parent's quartiles. It also prints each metric's regression
check against the benchmark's bound, and the paired verdict: the median
over pairs of log(change / parent), shown as a percent change, with a
95% percentile-bootstrap confidence interval over the pairs (stdlib
only, seeded, so a rerun prints the same interval).

With --history FILE it appends one JSON line per workload to FILE: the
date, both sides' `git describe`, build type and compiler, the pairs,
seconds and seed, and for each end-to-end metric both sides' medians and
quartiles, the pair wins, the paired median log ratio with its CI, and
the gain and bound verdicts. The repository
keeps its A/B results that way in BENCH_history.jsonl.

Exits 1 as soon as either side reports `correct: false` or `failed > 0`,
and 2 on a usage or run error.
"""

import argparse
import datetime
import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("reproduce", "study_fx8", "study_fx64")
SIDES = ("parent", "change")
BOOTSTRAP_RESAMPLES = 4000


def run_once(checkout, workload, seconds, seed):
    """One `perfbench/run.py --trace 0` run; its final JSON line, with
    the run's manifest line under "manifest". The run builds into the
    checkout's own .bench_build/: a CARGO_TARGET_DIR shared by both
    sides would let one side's build overwrite the other's, so it is
    dropped from the run's environment."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, env=env)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{checkout}: run.py exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["manifest"] = next(
        (json.loads(line[len("manifest: "):]) for line in lines
         if line.startswith("manifest: ")), {})
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def paired_log_ratios(parent, change):
    """log(change / parent) for each pair whose values are both positive
    (a ratio of a zero or negative value means nothing)."""
    return [math.log(c / p) for p, c in zip(parent, change) if p > 0 and c > 0]


def bootstrap_median_ci(values, level=0.95, resamples=BOOTSTRAP_RESAMPLES,
                        seed=0):
    """Median of `values` and its percentile-bootstrap confidence interval:
    the median of `resamples` same-size resamples drawn with replacement
    from a seeded generator, cut at the (1 - level) / 2 tails. None for
    no values."""
    if not values:
        return None
    rng = random.Random(seed)
    n = len(values)
    medians = sorted(
        statistics.median(rng.choice(values) for _ in range(n))
        for _ in range(resamples))
    tail = (1 - level) / 2
    low = medians[int(math.floor(tail * (resamples - 1)))]
    high = medians[int(math.ceil((1 - tail) * (resamples - 1)))]
    return statistics.median(values), low, high


def better(a, b, direction):
    """True when value a is better than b."""
    return a < b if direction == "lower" else a > b


def summarize(metric, runs):
    """One report row for `metric` over the paired runs."""
    name, direction, bound = metric["name"], metric["better"], metric["bound"]
    values = {side: [r[side]["metrics"][name]["value"] for r in runs]
              for side in SIDES}
    wins = sum(better(c, p, direction)
               for p, c in zip(values["parent"], values["change"]))
    losses = sum(better(p, c, direction)
                 for p, c in zip(values["parent"], values["change"]))
    parent_q = quartiles(values["parent"])
    change_q = quartiles(values["change"])
    iqr = parent_q[2] - parent_q[0]
    gap = (parent_q[1] - change_q[1] if direction == "lower"
           else change_q[1] - parent_q[1])
    claimable = wins >= math.ceil(0.9 * len(runs)) and gap > iqr
    # Worse than the parent's median by more than the bound's share.
    limit = (parent_q[1] * (1 + bound) if direction == "lower"
             else parent_q[1] * (1 - bound))
    regressed = better(limit, change_q[1], direction)
    paired = bootstrap_median_ci(
        paired_log_ratios(values["parent"], values["change"]))
    return {
        "metric": name, "better": direction, "pairs": len(runs),
        "parent": values["parent"], "change": values["change"],
        "parent_quartiles": parent_q, "change_quartiles": change_q,
        "change_wins": wins, "parent_wins": losses,
        "median_gap": gap, "parent_iqr": iqr,
        "log_ratio_median": paired[0] if paired else None,
        "log_ratio_ci95": [paired[1], paired[2]] if paired else None,
        "gain_claimable": claimable, "within_bound": not regressed,
    }


def percent(log_ratio):
    """A log ratio as a signed percent change."""
    return (math.exp(log_ratio) - 1) * 100


def print_row(row, unit):
    p1, p2, p3 = row["parent_quartiles"]
    c1, c2, c3 = row["change_quartiles"]
    change = (c2 - p2) / p2 * 100 if p2 else float("nan")
    if row["log_ratio_median"] is None:
        paired = "paired n/a"
    else:
        low, high = row["log_ratio_ci95"]
        paired = (f"paired {percent(row['log_ratio_median']):+.1f}% "
                  f"[{percent(low):+.1f}%, {percent(high):+.1f}%]")
    print(f"  {row['metric']:18s} parent {p2:.4g} [{p1:.4g}-{p3:.4g}] "
          f"change {c2:.4g} [{c1:.4g}-{c3:.4g}] {unit} ({change:+.1f}%)  "
          f"wins {row['change_wins']}/{row['pairs']} "
          f"(parent {row['parent_wins']})  {paired}  "
          f"gain rule: {'holds' if row['gain_claimable'] else 'not met'}  "
          f"bound: {'ok' if row['within_bound'] else 'EXCEEDED'}")


def history_line(workload, args, runs, rows):
    """One BENCH_history.jsonl record of a workload's A/B."""
    sides = {}
    for side in SIDES:
        manifest = runs[0][side]["manifest"]
        sides[side] = {key: manifest.get(key) for key in
                       ("git_describe", "build_type", "compiler",
                        "hardware_workers")}
    metrics = {}
    for row in rows:
        metrics[row["metric"]] = {
            "parent_median": row["parent_quartiles"][1],
            "parent_quartiles": [row["parent_quartiles"][0],
                                 row["parent_quartiles"][2]],
            "change_median": row["change_quartiles"][1],
            "change_quartiles": [row["change_quartiles"][0],
                                 row["change_quartiles"][2]],
            "change_wins": row["change_wins"],
            "parent_wins": row["parent_wins"],
            "log_ratio_median": row["log_ratio_median"],
            "log_ratio_ci95": row["log_ratio_ci95"],
            "gain_claimable": row["gain_claimable"],
            "within_bound": row["within_bound"],
        }
    return {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "workload": workload, "parent": sides["parent"],
        "change": sides["change"], "pairs": args.pairs,
        "seconds": args.seconds, "seed": args.seed, "metrics": metrics,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path,
                        help="write every run and summary row as JSON")
    parser.add_argument("--history", type=Path,
                        help="append one JSON line per workload")
    args = parser.parse_args(argv)
    args.workloads = args.workloads.split(",")
    for workload in args.workloads:
        if workload not in WORKLOADS:
            parser.error(f"unknown workload {workload!r}")
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")
    for side in (args.parent, args.change):
        if not (side / "perfbench" / "run.py").is_file():
            parser.error(f"{side}: no perfbench/run.py")
    return args


def main(argv):
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    checkouts = {"parent": args.parent, "change": args.change}
    report = {}
    for workload in args.workloads:
        runs = []
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            result = {}
            for side in order:
                out = run_once(checkouts[side], workload, args.seconds,
                               args.seed)
                if not out["correct"] or out["failed"] > 0:
                    print(f"{workload} pair {pair + 1}: {side} reports "
                          f"correct={out['correct']} failed={out['failed']}")
                    return 1
                result[side] = out
            runs.append(result)
            print(f"{workload} pair {pair + 1}/{args.pairs} "
                  f"({order[0]} first): " + ", ".join(
                      f"{side} {result[side]['metrics']['wall_s']['value']:.4f} s"
                      for side in SIDES), flush=True)
        rows = [summarize(metric, runs) for metric in metrics]
        report[workload] = {"runs": runs, "summary": rows}
        print(f"{workload}: {args.pairs} pairs, --seconds {args.seconds}, "
              f"seed {args.seed}; median [quartiles]")
        for metric, row in zip(metrics, rows):
            print_row(row, metric["unit"])
        if args.history:
            with args.history.open("a", encoding="utf-8") as history:
                history.write(json.dumps(
                    history_line(workload, args, runs, rows)) + "\n")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (OSError, RuntimeError, json.JSONDecodeError, KeyError) as error:
        print(f"bench_ab: {error}", file=sys.stderr)
        sys.exit(2)

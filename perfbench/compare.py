#!/usr/bin/env python3
"""Compare two sets of perfbench results, metric by metric.

    python3 perfbench/compare.py before.log after.log

Each file holds the standard output of one or more runs of
perfbench/run.py on one workload (append them: `>> before.log`). For each
metric the script prints both medians, the change as a share of the
first, and each side's spread (quartile distance over median).

It refuses, with exit code 2, to compare results whose manifests differ
in build type or lane pass, or that mix workloads or trace modes: such
numbers measure different programs.
"""

import json
import statistics
import sys

MUST_MATCH = ("build_type", "lane_pass", "workload", "trace")


def load(path):
    """(manifests, results) of every run in one output file."""
    manifests, results = [], []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("manifest: "):
                manifests.append(json.loads(line[len("manifest: "):]))
            elif line.startswith('{"correct"'):
                results.append(json.loads(line))
    if not results or len(manifests) != len(results):
        raise ValueError(f"{path}: no complete perfbench runs")
    return manifests, results


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        (ma, ra), (mb, rb) = load(argv[1]), load(argv[2])
    except (OSError, ValueError) as error:
        print(f"compare: {error}", file=sys.stderr)
        return 2
    for key in MUST_MATCH:
        seen = {str(m.get(key)) for m in ma + mb}
        if len(seen) > 1:
            print(f"compare: refusing, {key} differs: {sorted(seen)}",
                  file=sys.stderr)
            return 2
    print(f"{'metric':48s} {'A median':>12s} {'B median':>12s} "
          f"{'change':>8s} {'spread A':>9s} {'spread B':>9s}")
    for name in ra[0]["metrics"]:
        a = [r["metrics"][name]["value"] for r in ra]
        b = [r["metrics"][name]["value"] for r in rb if name in r["metrics"]]
        if not b:
            continue
        med_a, med_b = statistics.median(a), statistics.median(b)
        change = (med_b - med_a) / med_a if med_a else 0.0
        print(f"{name:48s} {med_a:12.6g} {med_b:12.6g} {change:+8.3f} "
              f"{spread(a):9.3f} {spread(b):9.3f}")
    failed = sum(r["failed"] for r in ra + rb)
    print(f"runs: {len(ra)} vs {len(rb)}; failed operations: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

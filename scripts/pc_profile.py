#!/usr/bin/env python3
"""Sampled per-function profile of one perfbench workload.

    python3 scripts/pc_profile.py [--workload study_fx8] [--seconds 5] \
        [--seed 0] [--tiny] [--hz 1000] [--top 30]

Run it from the repository root. It builds the perfbench driver as
perfbench/run.py does (RelWithDebInfo, with debug info, into
.bench_build/perfbench) and compiles scripts/pc_sampler.c into
.bench_build/pc_sampler.so. It then runs the driver twice for the same
workload and time:

  1. unsampled, as the baseline;
  2. with the sampler preloaded: setitimer(ITIMER_PROF) takes the
     program counter every 1/HZ s of process CPU time.

Each sample is charged to the innermost frame, inlined ones included,
that is in one of the repository's source files: `addr2line -f -i -C`
lists the inlined chain innermost first, and frames in headers (the
standard library's, and the repository's own inline accessors) are
passed over. Samples in shared libraries are charged to the library.
The plain build is what gets measured; nothing is instrumented.

It prints the share table with the sample count, and the sampler's own
overhead: the fastest pass of the sampled run against the fastest pass
of the unsampled one (perfbench/README.md, "Steadiness").
"""

import argparse
import collections
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLER = ROOT / "scripts" / "pc_sampler.c"
WORKLOADS = ("reproduce", "study_fx8", "study_fx64")


def load_perfbench():
    """perfbench/run.py as a module, for its build."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_sampler(out_dir):
    """Compile the preload library when it is missing or stale."""
    library = out_dir / "pc_sampler.so"
    if (not library.exists()
            or library.stat().st_mtime < SAMPLER.stat().st_mtime):
        out_dir.mkdir(parents=True, exist_ok=True)
        subprocess.run(["cc", "-O2", "-shared", "-fPIC", str(SAMPLER),
                        "-o", str(library)], check=True)
    return library


def run_driver(driver, args, out_file, env=None):
    """One closed-loop driver run; the fastest untraced pass, in s."""
    command = [str(driver), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--out",
               str(out_file)]
    if args.tiny:
        command.append("--tiny")
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL, env=env)
    doc = json.loads(out_file.read_text())
    return min(p["wall_s"] for p in doc["passes"] if not p["traced"])


def own_code(location):
    """True for a line of one of this repository's source files, not of
    a header: inline accessors are charged to the function that calls
    them, and the standard library to its caller."""
    path = location.split(":")[0]
    return (path.startswith(f"{ROOT}{os.sep}")
            and path.endswith((".cpp", ".cc", ".c")))


def short_name(function):
    """A demangled function without its argument list, and with each
    template argument list shown as <>."""
    out = []
    depth = 0
    index = 0
    while index < len(function):
        char = function[index]
        operator = "".join(out).endswith("operator")
        if char == "(" and depth == 0 and not operator and out:
            break
        if char in "<{" and not operator:
            if depth == 0:
                out.append("<>" if char == "<" else "{}")
            depth += 1
        elif char in ">}" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(char)
            if operator and char == "(":  # operator(): keep its "()"
                out.append(")")
                index += 1
        index += 1
    return "".join(out)


def charge(driver, offsets):
    """Innermost own-code function for each executable offset."""
    unique = sorted(set(offsets))
    done = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", str(driver)],
        input="\n".join(unique) + "\n", capture_output=True, text=True,
        check=True)
    frames = {}
    current = None
    lines = done.stdout.splitlines()
    address = re.compile(r"^0x[0-9a-f]+$")
    index = 0
    while index < len(lines):
        line = lines[index]
        if address.match(line):
            current = int(line, 16)
            frames[current] = []
            index += 1
            continue
        location = lines[index + 1] if index + 1 < len(lines) else "??"
        frames[current].append((line, location))
        index += 2
    names = {}
    for offset in unique:
        chain = frames.get(int(offset, 16), [])
        mine = [function for function, location in chain
                if own_code(location)]
        if mine:
            names[offset] = short_name(mine[0])
        elif chain:
            names[offset] = short_name(chain[-1][0])
        else:
            names[offset] = "??"
    return names


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="study_fx8")
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="the perfbench self-test's populations")
    parser.add_argument("--hz", type=int, default=1000,
                        help="samples per second of process CPU time")
    parser.add_argument("--top", type=int, default=30,
                        help="rows of the table")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or not 1 <= args.hz <= 100000 or args.top < 1:
        parser.error("need --seconds > 0, --hz in 1..100000, --top >= 1")
    return args


def main(argv):
    args = parse_args(argv)
    perfbench = load_perfbench()
    out_dir = perfbench.build_dir()
    driver = perfbench.build(out_dir)
    library = build_sampler(out_dir.parent)

    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        tmp = Path(tmp)
        plain_s = run_driver(driver, args, tmp / "plain.json")
        env = dict(os.environ, LD_PRELOAD=str(library),
                   PC_SAMPLER_OUT=str(tmp / "samples.txt"),
                   PC_SAMPLER_HZ=str(args.hz))
        sampled_s = run_driver(driver, args, tmp / "sampled.json", env)
        samples = (tmp / "samples.txt").read_text().splitlines()

    offsets = [line[4:] for line in samples if line.startswith("exe ")]
    names = charge(driver, offsets) if offsets else {}
    counts = collections.Counter()
    for line in samples:
        kind, _, where = line.partition(" ")
        counts[names[where] if kind == "exe"
               else f"[{os.path.basename(where)}]"] += 1

    total = len(samples)
    scale = "tiny" if args.tiny else "paper"
    print(f"pc_profile: {args.workload}, {scale} scale, seed {args.seed}, "
          f"{args.seconds:g} s, {total} samples at {args.hz} Hz of CPU time")
    print(f"overhead: fastest pass {sampled_s:.4f} s sampled, "
          f"{plain_s:.4f} s unsampled "
          f"({(sampled_s - plain_s) / plain_s * 100:+.1f}%)")
    if total == 0:
        print("no samples taken")
        return 1
    print(f"  {'share':>6s} {'samples':>8s}  function")
    for name, count in counts.most_common(args.top):
        print(f"  {count / total * 100:5.1f}% {count:8d}  {name}")
    rest = total - sum(c for _, c in counts.most_common(args.top))
    if rest:
        print(f"  {rest / total * 100:5.1f}% {rest:8d}  "
              f"(the other {len(counts) - args.top} functions)")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (OSError, subprocess.CalledProcessError, json.JSONDecodeError,
            KeyError, ValueError) as error:
        print(f"pc_profile: {error}", file=sys.stderr)
        sys.exit(2)

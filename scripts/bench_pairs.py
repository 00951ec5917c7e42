#!/usr/bin/env python3
"""Paired benchmark comparison of two perfbench binaries.

Runs a workload in alternating pairs: the parent binary and the change
binary on the same seed, one pair per seed, and the side that runs
first swaps from pair to pair so both sides see the same phases of the
host. Both binaries must be built from identical perfbench sources
(only the library under them differs).

The script stops with an error if a run does not report `correct`, or
if the two runs of a pair disagree on `attempted` or `failed`. For each
metric it then prints both medians, the parent's quartiles and
interquartile range (IQR), how many pairs the change won (strictly
better, in the metric's direction), whether the values were identical
seed for seed, and for the end-to-end metrics a verdict against the
metric's bound. Directions and bounds come from BENCHMARK.json, which
is only read.

Usage (from anywhere; paths are the two built binaries):

    python3 scripts/bench_pairs.py PARENT_BIN CHANGE_BIN \\
        --workload cold_burst --pairs 10 --seconds 30 --seed 71

`--trace` compares traced runs on the per-layer metrics instead (no
bounds, no verdicts). Quartiles are statistics.quantiles(values, n=4),
the rule perfbench/stability.py uses. Standard library only.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(binary, workload, seed, seconds, trace):
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60 * seconds + 900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)}: run not correct: {result}")
    return result


def fmt(x):
    return f"{x:.4g}"


def better(direction, change, parent):
    return change < parent if direction == "lower" else change > parent


def verdict(direction, bound, change_median, parent_median):
    """`ok` when the change's median is worse than the parent's by no
    more than `bound`, a share of the parent's median."""
    if direction == "lower":
        ok = change_median <= parent_median * (1 + bound)
    else:
        ok = change_median >= parent_median * (1 - bound)
    return "ok" if ok else "OUT"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="perfbench binary built from the parent commit")
    ap.add_argument("change", help="perfbench binary built from the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--trace", action="store_true", help="compare per-layer metrics")
    args = ap.parse_args()
    if args.pairs < 2:
        sys.exit("--pairs must be at least 2 (quartiles need two values)")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {}
        for side in order:
            binary = args.parent if side == "parent" else args.change
            pair[side] = run_once(binary, args.workload, seed, args.seconds, args.trace)
            print(f"# seed {seed} {side}: done", file=sys.stderr, flush=True)
        for field in ("attempted", "failed"):
            if pair["parent"][field] != pair["change"][field]:
                sys.exit(
                    f"seed {seed}: {field} differs: parent {pair['parent'][field]}, "
                    f"change {pair['change'][field]}"
                )
        for side in runs:
            runs[side].append(pair[side])

    print(
        f"# {args.workload}: {args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}, "
        f"--seconds {args.seconds}{', traced' if args.trace else ''}"
    )
    header = "| metric | better | parent median | change median | Δ | parent q1 | parent q3 | parent IQR | change won | same |"
    if not args.trace:
        header += " bound | verdict |"
    print(header)
    print("|" + "---|" * (header.count("|") - 1))
    for m in metrics:
        name, direction = m["name"], m["better"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        pm, cm = statistics.median(parent), statistics.median(change)
        q1, _, q3 = statistics.quantiles(parent, n=4)
        won = sum(better(direction, c, p) for p, c in zip(parent, change))
        same = sum(p == c for p, c in zip(parent, change))
        delta = f"{(cm / pm - 1) * 100:+.1f}%" if pm else "n/a"
        row = (
            f"| {name} | {direction} | {fmt(pm)} | {fmt(cm)} | {delta} | {fmt(q1)} | {fmt(q3)} "
            f"| {fmt(q3 - q1)} | {won}/{args.pairs} | {same}/{args.pairs} |"
        )
        if not args.trace:
            row += f" {m['bound']} | {verdict(direction, m['bound'], cm, pm)} |"
        print(row)


if __name__ == "__main__":
    main()

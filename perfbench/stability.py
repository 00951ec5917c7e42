#!/usr/bin/env python3
"""Stability report for the benchmark. For every workload in
BENCHMARK.json it makes two sets of ten untraced runs (seeds 1..10) at
the file's run_seconds, interleaved seed by seed (set 1, then set 2, for
each seed) so that both sets see the same phases of the host. Per
end-to-end metric it prints each set's median, set 1's quartiles and
min/max, both sets' quartile spreads as a share of the median, and how
much worse set 2's median is than set 1's, next to the bound.

It also makes three traced runs per workload, each right after the set-2
run of seeds 1..3, and reports the per-layer medians and the tracing
overhead. The overhead compares each traced run with the untraced run
just before it, because the host's speed drifts over minutes.

Run from the repository root:

    python3 perfbench/stability.py > perfbench/STABILITY.md

Quartiles are statistics.quantiles(values, n=4), the same rule the
acceptance check uses. Standard library only.
"""

import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = 10
TRACED = 3


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
        "spread": (q3 - q1) / med if med else 0.0,
    }


def fmt(x):
    return f"{x:.4g}"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"# Stability report\n\nTwo sets of {SEEDS} untraced runs per workload (seeds 1..{SEEDS}), "
          f"interleaved seed by seed, and {TRACED} traced runs; --seconds {spec['run_seconds']}. "
          "Spread = (q3 - q1) / median; the target is below a third of the bound. "
          "\"Set 2 worse by\" is the change of set 2's median against set 1's in the "
          "metric's bad direction; the acceptance check allows up to the bound.\n")
    for w in (w["name"] for w in spec["workloads"]):
        sets, traced = ([], []), []
        for seed in range(1, SEEDS + 1):
            for runs in sets:
                runs.append(run_once(spec, w, seed, 0))
            if seed <= TRACED:
                traced.append(run_once(spec, w, seed, 1))
        every = sets[0] + sets[1] + traced
        print(f"## {w}\n\nops attempted {sum(r['attempted'] for r in every)}, "
              f"failed {sum(r['failed'] for r in every)}, "
              f"all correct: {all(r['correct'] for r in every)}\n")
        print("| metric | unit | median | q1 | q3 | min | max | spread | set 2 median | set 2 spread "
              "| set 2 worse by | bound | spreads within bound/3 | repeat within bound |")
        print("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|")
        for name in bounds:
            a, b = (summary([r["metrics"][name]["value"] for r in runs]) for runs in sets)
            worse = (b["median"] - a["median"]) / a["median"]
            if better[name] == "higher":
                worse = -worse
            steady = "yes" if max(a["spread"], b["spread"]) <= bounds[name] / 3 else "NO"
            print(f"| {name} | {units[name]} | {fmt(a['median'])} | {fmt(a['q1'])} | {fmt(a['q3'])} "
                  f"| {fmt(a['min'])} | {fmt(a['max'])} | {a['spread']:.4f} | {fmt(b['median'])} "
                  f"| {b['spread']:.4f} | {worse:+.3f} | {bounds[name]} | {steady} "
                  f"| {'yes' if worse <= bounds[name] else 'NO'} |")
        print()
        paired = sets[1][:TRACED]
        layer = {
            name: statistics.median([r["metrics"][name]["value"] for r in traced])
            for name in traced[0]["metrics"]
        }

        def overhead(name):
            return statistics.median([
                t["metrics"][f"traced.{name}"]["value"] - u["metrics"][name]["value"]
                for t, u in zip(traced, paired)
            ])

        print(f"Tracing overhead (median over {TRACED} pairs of an untraced run and the traced "
              f"run right after it): compile_ms_p50 {overhead('compile_ms_p50'):+.4g} ms, "
              f"fast_ms_p50 {overhead('fast_ms_p50'):+.4g} ms.\n")
        print(f"<details><summary>per-layer medians ({TRACED} traced runs)</summary>\n")
        print("| metric | unit | median |\n|---|---|---|")
        for name, value in layer.items():
            if value:
                print(f"| {name} | {units[name]} | {fmt(value)} |")
        print("\n</details>\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Result sets for the repository benchmark: collect, summarize, compare.

A result set is a directory holding one file per run,
``<workload>/seed-<n>.json``, each the benchmark's last stdout line.

    python3 chipletbench/compare.py collect --out DIR [--workload W ...]
        [--seeds 1-10] [--trace 0|1] [--seconds S]
    python3 chipletbench/compare.py summary DIR
    python3 chipletbench/compare.py compare OLD NEW

Run from the repository root. ``collect`` runs the ``command`` of
BENCHMARK.json once per (workload, seed), ``summary`` prints each
metric's median, quartiles and spread (quartile distance over median)
against its bound, and ``compare`` prints one row per (workload, metric)
with both sides' median and quartiles, the ratio NEW/OLD, the share of
seed-paired runs NEW won (collect both sides with the same seeds; "-"
when no seed is shared), and a verdict:

  better      the medians differ by more than OLD's quartile distance,
              in the better direction, and NEW wins >= 9/10 of the pairs;
  worse       an end-to-end metric's median is worse by more than its
              bound, or a per-layer metric's is worse by more than OLD's
              quartile distance with NEW losing >= 9/10 of the pairs;
  unresolved  anything else: no change the runs can tell apart from
              their own spread. ``(wide)`` marks a metric whose spread on
              either side exceeds its bound, so "unchanged" cannot be
              claimed for it either.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path


def spec():
    return json.loads(Path("BENCHMARK.json").read_text())


def metric_specs(bench):
    out = {}
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            out[m["name"]] = dict(m, kind=kind)
    return out


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def collect(args):
    bench = spec()
    out, workloads, seeds, trace, seconds = None, [], "1-10", "0", str(bench["run_seconds"])
    it = iter(args)
    for arg in it:
        if arg == "--out":
            out = Path(next(it))
        elif arg == "--workload":
            workloads.append(next(it))
        elif arg == "--seeds":
            seeds = next(it)
        elif arg == "--trace":
            trace = next(it)
        elif arg == "--seconds":
            seconds = next(it)
        else:
            sys.exit(f"collect: unknown argument {arg}")
    if out is None:
        sys.exit("collect: --out DIR is required")
    workloads = workloads or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        (out / workload).mkdir(parents=True, exist_ok=True)
        for seed in parse_seeds(seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", seconds, "--trace", trace]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            (out / workload / f"seed-{seed}.log").write_text(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                continue
            (out / workload / f"seed-{seed}.json").write_text(lines[-1] + "\n")
            result = json.loads(lines[-1])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)


def load(directory):
    """{workload: {seed: result}}"""
    sets = {}
    for path in sorted(Path(directory).glob("*/seed-*.json")):
        seed = int(path.stem.split("-", 1)[1])
        sets.setdefault(path.parent.name, {})[seed] = json.loads(path.read_text())
    return sets


def values(runs, name):
    return {seed: r["metrics"][name]["value"] for seed, r in runs.items() if name in r["metrics"]}


def quartiles(vals):
    vals = list(vals)
    if len(vals) < 2:
        v = vals[0] if vals else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else 0.0


def summary(args):
    (directory,) = args
    specs = metric_specs(spec())
    print(f"{'workload':<12} {'metric':<32} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>7} {'bound':>6}  ok")
    for workload, runs in load(directory).items():
        bad = [s for s, r in runs.items() if not r["correct"] or r["failed"]]
        if bad:
            print(f"{workload}: runs with failures or incorrect output: seeds {bad}")
        names = sorted({n for r in runs.values() for n in r["metrics"]})
        for name in names:
            vals = list(values(runs, name).values())
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            bound = specs.get(name, {}).get("bound")
            ok = "" if bound is None else ("yes" if s <= bound / 3 else "WIDE" if s > bound else "near")
            print(f"{workload:<12} {name:<32} {len(vals):>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{s:>7.3f} {'' if bound is None else bound:>6}  {ok}")


def verdict(old, new, m):
    """better / worse / unresolved for seed-paired values of one metric."""
    o_q1, o_med, o_q3 = quartiles(old.values())
    _, n_med, _ = quartiles(new.values())
    sign = -1 if m["better"] == "lower" else 1
    gain = sign * (n_med - o_med)
    paired = [s for s in old if s in new]
    wins = sum(1 for s in paired if sign * (new[s] - old[s]) > 0)
    losses = sum(1 for s in paired if sign * (new[s] - old[s]) < 0)
    share = wins / len(paired) if paired else None
    iqr = o_q3 - o_q1
    bound = m.get("bound")
    if bound is not None and o_med and -gain / abs(o_med) > bound:
        return "worse", share
    if gain > iqr and paired and wins >= 0.9 * len(paired):
        return "better", share
    if bound is None and -gain > iqr and paired and losses >= 0.9 * len(paired):
        return "worse", share
    label = "unresolved"
    if bound is not None and max(spread(old.values()), spread(new.values())) > bound:
        label += " (wide)"
    return label, share


def compare(args):
    old_dir, new_dir = args
    specs = metric_specs(spec())
    old_sets, new_sets = load(old_dir), load(new_dir)
    print(f"{'workload':<12} {'metric':<32} {'old median [q1, q3]':>36} {'new median [q1, q3]':>36} "
          f"{'ratio':>7} {'wins':>5}  verdict")
    for workload in sorted(set(old_sets) & set(new_sets)):
        old_runs, new_runs = old_sets[workload], new_sets[workload]
        names = [n for n in specs
                 if any(n in r["metrics"] for r in old_runs.values())
                 and any(n in r["metrics"] for r in new_runs.values())]
        for name in names:
            old, new = values(old_runs, name), values(new_runs, name)
            o_q1, o_med, o_q3 = quartiles(old.values())
            n_q1, n_med, n_q3 = quartiles(new.values())
            ratio = n_med / o_med if o_med else float("nan")
            label, share = verdict(old, new, specs[name])
            wins = "-" if share is None else f"{share:.2f}"
            print(f"{workload:<12} {name:<32} {o_med:>12.5g} [{o_q1:>9.4g}, {o_q3:>9.4g}] "
                  f"{n_med:>12.5g} [{n_q1:>9.4g}, {n_q3:>9.4g}] {ratio:>7.3f} {wins:>5}  {label}")


def main():
    if len(sys.argv) < 2 or sys.argv[1] not in ("collect", "summary", "compare"):
        sys.exit(__doc__)
    {"collect": collect, "summary": summary, "compare": compare}[sys.argv[1]](sys.argv[2:])


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Shows whether the benchmark is steady enough for its own bounds.

    python3 perfbench/steadiness.py                      # 2 sets x 10 seeds
    python3 perfbench/steadiness.py --runs 5 --sets 1 \
        --workloads train-kaggle-fae

Runs every workload once per seed (seeds 1..runs), in `sets` repeated sets
of the same seeds, through perfbench/run.py with tracing off. For each
end-to-end metric it prints the spread of each set, (Q3 - Q1) / median with
the quartiles of statistics.quantiles(n=4), against the metric's bound from
BENCHMARK.json, and how far the later sets' medians moved from the first in
the worse direction. It also checks that the deterministic metrics repeat
exactly for a seed across sets. Exits 1 when a spread (setup_s excepted)
exceeds its bound, a median moves by more than its bound, a deterministic
value differs, or a run is not correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETERMINISTIC = ("modeled_samples_per_s", "loss", "hit_rate")


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run.py failed on {workload} seed {seed}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first, later, better):
    """Share by which `later` is worse than `first` (negative = better)."""
    change = (later - first) / first
    return -change if better == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    if args.runs < 4 or args.sets < 1:
        parser.error("need --runs >= 4 and --sets >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workloads == "all" else args.workloads.split(","))
    metrics = spec["end_to_end"]
    # values[set][workload][metric] -> per-seed list
    values = []
    ok = True
    for s in range(args.sets):
        values.append({w: {m["name"]: [] for m in metrics} for w in workloads})
        for seed in range(1, args.runs + 1):
            for w in workloads:
                r = run(w, seed, seconds)
                if not r["correct"] or r["failed"]:
                    print(f"NOT CORRECT: {w} seed {seed}: {r}")
                    ok = False
                for m in metrics:
                    values[s][w][m["name"]].append(
                        r["metrics"][m["name"]]["value"])
                print(f"set {s + 1} seed {seed} {w}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                    flush=True)

    print()
    print(f"{'workload':26} {'metric':22} {'bound':>6} "
          + " ".join(f"{'spread' + str(s + 1):>8}" for s in range(args.sets))
          + " " + " ".join(f"{'moved' + str(s + 1):>8}"
                           for s in range(1, args.sets)))
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            spreads = [spread(values[s][w][name]) for s in range(args.sets)]
            medians = [statistics.median(values[s][w][name])
                       for s in range(args.sets)]
            moved = [worsening(medians[0], medians[s], m["better"])
                     for s in range(1, args.sets)]
            flags = []
            if name != "setup_s" and any(x > bound for x in spreads):
                flags.append("SPREAD>BOUND")
            elif name != "setup_s" and any(x > bound / 3 for x in spreads):
                flags.append("spread>bound/3")
            if any(x > bound for x in moved):
                flags.append("MOVED>BOUND")
            if name in DETERMINISTIC and any(
                    values[s][w][name] != values[0][w][name]
                    for s in range(args.sets)):
                flags.append("NOT-REPEATED")
            if any(f.isupper() for f in flags):
                ok = False
            print(f"{w:26} {name:22} {bound:6.3f} "
                  + " ".join(f"{x:8.4f}" for x in spreads) + " "
                  + " ".join(f"{x:8.4f}" for x in moved) + " "
                  + " ".join(flags))
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

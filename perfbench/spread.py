#!/usr/bin/env python3
"""Run-to-run steadiness check for the served-estimate benchmark.

Runs every workload of BENCHMARK.json --runs times, each run with its
own seed, rotating the workload order on every repetition so that a
burst of host noise does not always land on the same workload, and then
repeats the whole series as a second set with other seeds.  For each
end-to-end metric it prints the median and the quartile spread
(q3 - q1) / median, as statistics.quantiles(values, n=4) gives it, of
each set, the drift of the second median against the first, and the
metric's bound.

    python3 perfbench/spread.py --runs 10

Exits 1 when a spread exceeds its bound or a second median is worse than
the first by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return result, took


def series(bench, workloads, runs, seed_base):
    values = {w: {} for w in workloads}
    for i in range(runs):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            seed = seed_base + i
            result, took = run_once(bench, w, seed)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            sys.stderr.write(f"  run {i + 1}/{runs} {w} seed={seed} took {took:.1f}s\n")
    return values


def spread(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return med, (q3 - q1) / med if med else 0.0


SEED_BASE = 100  # set k runs seeds SEED_BASE + 1000 k + 0 .. runs - 1
SETS = 2


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default=os.path.join(".perfbench", "spread.json"), help="raw values, as JSON")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    sets = []
    for k in range(SETS):
        sys.stderr.write(f"set {k + 1}/{SETS}\n")
        sets.append(series(bench, workloads, args.runs, SEED_BASE + 1000 * k))
    os.makedirs(os.path.dirname(os.path.join(ROOT, args.out)), exist_ok=True)
    with open(os.path.join(ROOT, args.out), "w") as f:
        json.dump(sets, f, indent=1)

    failed = False
    print(f"{'workload':<10} {'metric':<22} {'median':>12} {'spread':>8} {'median2':>12} {'spread2':>8} "
          f"{'drift':>8} {'bound':>6}")
    for w in workloads:
        for name, m in metrics.items():
            bound = m["bound"]
            (med, sp), (med2, sp2) = spread(sets[0][w][name]), spread(sets[1][w][name])
            worse = (med2 - med) / med if m["better"] == "lower" else (med - med2) / med
            flags = [f for f, bad in [("SPREAD>BOUND", max(sp, sp2) > bound), ("DRIFT>BOUND", worse > bound)]
                     if bad]
            failed = failed or bool(flags)
            if not flags and max(sp, sp2) > bound / 3:
                flags = ["spread>bound/3"]
            print(f"{w:<10} {name:<22} {med:12.6g} {sp:8.4f} {med2:12.6g} {sp2:8.4f} {worse:+8.4f} {bound:6.3f}"
                  + ("  " + " ".join(flags) if flags else ""))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()

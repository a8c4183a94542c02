#!/usr/bin/env python3
"""Runs the benchmark K times per workload, back to back, and prints each
end-to-end metric's median, quartile spread and max/min spread.

  python3 bench/ledger/calibrate.py                   # K=5, one set
  python3 bench/ledger/calibrate.py --runs 10 --sets 2

Run r uses seed r (1..K) on every workload, and the workloads take turns
within each run, so slow drift of the host spreads over all of them. The
spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4). With --sets 2 the whole procedure runs
twice and the second set's median is set against the first's: the check a
benchmark's bounds must pass. Bounds come from BENCHMARK.json; `suggest`
is three times the widest spread seen, floored at 3% and capped at 25%,
the largest bound allowed (setup_s always keeps 25%). A verdict of `ok`
means the spread is within a third of the bound, `loose` within the
bound; `SPREAD` and `DRIFT` fail. Stdlib only.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def run_once(workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"calibrate: {workload} seed {seed} printed nothing "
                 f"(exit {proc.returncode})")
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit(f"calibrate: {workload} seed {seed} was not correct: {res}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in SPEC["workloads"]))
    args = p.parse_args()
    if args.runs < 4:
        sys.exit("calibrate: --runs must be at least 4 for quartiles")
    workloads = args.workloads.split(",")
    metrics = SPEC["end_to_end"]

    # values[set][workload][metric] -> list over runs
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads}
              for _ in range(args.sets)]
    for s in range(args.sets):
        for r in range(1, args.runs + 1):
            for w in workloads:
                got = run_once(w, r)
                for m in metrics:
                    values[s][w][m["name"]].append(got[m["name"]])
                shown = " ".join(f"{k}={v:.6g}" for k, v in got.items())
                print(f"set {s + 1} run {r} {w}: {shown}", file=sys.stderr,
                      flush=True)

    header = (f"{'workload':13s} {'metric':34s} {'median':>12s} {'spread':>7s} "
              f"{'max/min':>8s}")
    if args.sets == 2:
        header += f" {'median2':>12s} {'spread2':>7s} {'worse':>7s}"
    header += f" {'bound':>6s} {'suggest':>7s} verdict"
    print(header)
    ok = True
    for w in workloads:
        for m in metrics:
            name = m["name"]
            first = values[0][w][name]
            med, sp = statistics.median(first), spread(first)
            line = (f"{w:13s} {name:34s} {med:12.6g} {sp:7.2%} "
                    f"{max(first) / min(first):8.3f}")
            spreads = [sp]
            worse = 0.0
            if args.sets == 2:
                second = values[1][w][name]
                med2, sp2 = statistics.median(second), spread(second)
                spreads.append(sp2)
                worse = worse_by(med, med2, m["better"])
                line += f" {med2:12.6g} {sp2:7.2%} {worse:7.2%}"
            bound = m["bound"]
            widest = max(spreads)
            if name == "setup_s":
                suggest = 0.25
                verdict = "ok" if worse <= bound else "DRIFT"
            else:
                suggest = min(0.25, max(0.03,
                                        math.ceil(300 * widest) / 100))
                verdict = ("ok" if widest <= bound / 3 else
                           "loose" if widest <= bound else "SPREAD")
                if worse > bound:
                    verdict = "DRIFT"
            ok = ok and verdict in ("ok", "loose")
            print(line + f" {bound:6.2f} {suggest:7.2f} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Layered SpTRSV benchmark: builds the ledger program from source, runs each
workload in its own process and prints the result.

  python3 bench/ledger/run.py                  # every workload, end to end
  python3 bench/ledger/run.py --traced         # every workload, per layer
  python3 bench/ledger/run.py --workload iccg --seed 3 --seconds 10 --trace 0
  python3 bench/ledger/run.py --smoke          # tiny inputs, every metric named
  python3 bench/ledger/run.py --self-test      # one corrupted answer per workload

With --workload, the last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} holding
every end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer
metric (--trace 1). The exit code is 0 only when every checked answer was
right and every metric was printed. Stdlib only.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-ledger"
OUT = BUILD / "out"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ["paper_sweep", "big_stream", "iccg", "serve_open", "serve_closed"]
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 0.3


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC.name}: {e}")


def build():
    """Configures (once) and builds the ledger binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"the library sources are missing from {ROOT}")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "--target", "ledger",
                  "--parallel", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail(f"build step failed: {' '.join(cmd)}")
    return BUILD / "ledger"


def run_ledger(binary, workload, seed, seconds, trace, smoke=False,
               perturb=False):
    """Runs one workload process; returns (exit code, metrics, stdout).

    metrics maps name -> (value, unit) for every "<workload> <name> <value>
    <unit>" line the binary printed.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", str(OUT)]
    cmd += ["--trace"] if trace else []
    cmd += ["--smoke"] if smoke else []
    cmd += ["--perturb"] if perturb else []
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    metrics = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            try:
                metrics[parts[1]] = (float(parts[2]), parts[3])
            except ValueError:
                pass
    return proc.returncode, metrics, proc.stdout


def missing_metrics(spec, metrics, trace):
    """Declared metrics the run did not print, or printed in another unit."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    return [m["name"] for m in declared
            if metrics.get(m["name"], (None, None))[1] != m["unit"]]


def result(spec, rc, metrics, trace):
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    attempted = int(metrics.get("attempted", (0, ""))[0])
    failed = int(metrics.get("failed", (0, ""))[0])
    missing = missing_metrics(spec, metrics, trace)
    for name in missing:
        print(f"run.py: metric {name} missing or in the wrong unit",
              file=sys.stderr)
    correct = rc == 0 and failed == 0 and attempted > 0 and not missing
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": m["unit"]}
                    for m in declared if m["name"] not in missing},
    }


def one_workload(args, spec, binary):
    rc, metrics, stdout = run_ledger(binary, args.workload, args.seed,
                                     args.seconds, args.trace)
    sys.stdout.write(stdout)
    if rc not in (0, 1):  # sizing guard or crash: no result to report
        fail(f"{args.workload} exited with code {rc}", 1)
    res = result(spec, rc, metrics, args.trace)
    print(json.dumps(res))
    return 0 if res["correct"] else 1


def all_workloads(args, spec, binary):
    """The default full run: every workload, one process each."""
    ok = True
    rows = []
    for workload in WORKLOADS:
        rc, metrics, stdout = run_ledger(binary, workload, args.seed,
                                         args.seconds, args.trace)
        sys.stdout.write(stdout)
        res = result(spec, rc, metrics, args.trace)
        ok = ok and res["correct"]
        rows.append((workload, res))
    print()
    for workload, res in rows:
        print(f"{workload:13s} correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def smoke(spec, binary):
    """Tiny inputs, every workload, both modes: every metric named in
    BENCHMARK.json must be printed with its unit."""
    bad = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, metrics, _ = run_ledger(binary, workload, 1, SMOKE_SECONDS,
                                        trace, smoke=True)
            missing = missing_metrics(spec, metrics, trace)
            failed = metrics.get("failed", (1, ""))[0]
            status = "ok" if rc == 0 and not missing and failed == 0 else "FAIL"
            print(f"smoke {workload} trace={trace}: rc={rc} failed={failed:g} "
                  f"missing={missing} {status}")
            if status != "ok":
                bad.append(f"{workload}/trace={trace}")
    if bad:
        print(f"smoke: FAILED {bad}")
        return 1
    print("smoke: every metric printed with its unit")
    return 0


def self_test(binary):
    """Corrupts one answer per workload. Each run must fail its gate: exit
    nonzero with failed_frac > 0. Exits 1 when every gate fired (the
    expected outcome), 3 when some gate let the corrupted answer through."""
    missed = []
    for workload in WORKLOADS:
        rc, metrics, _ = run_ledger(binary, workload, 1, SMOKE_SECONDS, 0,
                                    smoke=True, perturb=True)
        attempted = metrics.get("attempted", (0, ""))[0]
        failed = metrics.get("failed", (0, ""))[0]
        frac = failed / attempted if attempted else 0.0
        print(f"self-test {workload}: rc={rc} failed_frac={frac:.3g}")
        if rc == 0 or frac <= 0:
            missed.append(workload)
    if missed:
        print(f"self-test: gates did NOT fire for {missed}")
        return 3
    print(f"self-test: all {len(WORKLOADS)} gates fired")
    return 1


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.get("run_seconds", 10))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--traced", action="store_true",
                   help="same as --trace 1")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--binary", help="use this ledger binary instead of "
                                    "building one")
    args = p.parse_args()
    if args.traced:
        args.trace = 1
    binary = Path(args.binary) if args.binary else build()
    if args.smoke:
        return smoke(spec, binary)
    if args.self_test:
        return self_test(binary)
    if args.workload:
        return one_workload(args, spec, binary)
    return all_workloads(args, spec, binary)


if __name__ == "__main__":
    sys.exit(main())

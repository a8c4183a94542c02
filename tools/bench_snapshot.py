#!/usr/bin/env python3
"""Consolidated performance snapshot of the perf-critical benches.

Runs bench_micro_kernels (google-benchmark JSON), bench_fold_policies,
bench_tiled_multirhs and bench_overload_resilience
(their `JSON: ` payload lines) and writes one consolidated snapshot file
— by convention `BENCH_<PR>.json` at the repo root — so the perf
trajectory of the hot paths is versioned alongside the code that produced
it. Schema in docs/BENCHMARKS.md.

Usage:
    python3 tools/bench_snapshot.py --out BENCH_5.json [--build-dir build]
                                    [--scale 0.05] [--reps 3]

--out is required and names the snapshot (BENCH_<PR>.json by convention,
one per PR) so a rerun cannot silently clobber a previous PR's committed
baseline.

--scale/--reps set STS_BENCH_SCALE / STS_BENCH_REPS (and the per-bench
rep knobs) for every bench; omit them to inherit the environment. Exits
nonzero if a required bench fails or emits no JSON payload.
bench_micro_kernels is optional (it needs Google Benchmark at build
time): when the binary is missing its entry is null and a note is
recorded.
"""

import argparse
import json
import os
import subprocess
import sys

REQUIRED_BENCHES = ["bench_fold_policies", "bench_tiled_multirhs",
                    "bench_overload_resilience"]
OPTIONAL_BENCHES = ["bench_micro_kernels"]


def run_json_line_bench(binary, env):
    """Run a bench that prints a single `JSON: {...}` line; return the
    parsed payload. Raises RuntimeError on nonzero exit or missing/bad
    payload."""
    proc = subprocess.run([binary], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{binary} exited {proc.returncode}")
    for line in proc.stdout.splitlines():
        if line.startswith("JSON: "):
            return json.loads(line[len("JSON: "):])
    raise RuntimeError(f"{binary} printed no 'JSON: ' payload line")


def run_google_benchmark(binary, env):
    """Run a google-benchmark binary in JSON mode; return the parsed
    report."""
    proc = subprocess.run(
        [binary, "--benchmark_format=json"], env=env, capture_output=True,
        text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{binary} exited {proc.returncode}")
    return json.loads(proc.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory holding the bench "
                             "binaries (default: build)")
    parser.add_argument("--out", required=True,
                        help="output snapshot path (BENCH_<PR>.json by "
                             "convention; required so reruns cannot "
                             "silently overwrite an earlier PR's baseline)")
    parser.add_argument("--scale", default=None,
                        help="STS_BENCH_SCALE for all benches")
    parser.add_argument("--reps", default=None,
                        help="timing repetitions (STS_BENCH_REPS and the "
                             "per-bench *_REPS knobs)")
    args = parser.parse_args()

    env = dict(os.environ)
    if args.scale is not None:
        env["STS_BENCH_SCALE"] = str(args.scale)
    if args.reps is not None:
        env["STS_BENCH_REPS"] = str(args.reps)
        env.setdefault("STS_TILED_REPS", str(args.reps))
        # Quick-snapshot mode also trims the open-loop overload phase.
        env.setdefault("STS_OVERLOAD_REQUESTS", "48")

    snapshot = {
        "snapshot": os.path.splitext(os.path.basename(args.out))[0],
        "generated_by": "tools/bench_snapshot.py",
        "scale": env.get("STS_BENCH_SCALE"),
        "reps": env.get("STS_BENCH_REPS"),
        "benches": {},
        "notes": [],
    }

    failures = 0
    for bench in REQUIRED_BENCHES:
        binary = os.path.join(args.build_dir, bench)
        key = bench.removeprefix("bench_")
        if not os.path.exists(binary):
            snapshot["benches"][key] = None
            snapshot["notes"].append(f"{bench}: binary not found in "
                                     f"{args.build_dir}")
            failures += 1
            continue
        try:
            snapshot["benches"][key] = run_json_line_bench(binary, env)
            print(f"{bench}: ok")
        except (RuntimeError, json.JSONDecodeError) as err:
            snapshot["benches"][key] = None
            snapshot["notes"].append(f"{bench}: {err}")
            failures += 1

    for bench in OPTIONAL_BENCHES:
        binary = os.path.join(args.build_dir, bench)
        key = bench.removeprefix("bench_")
        if not os.path.exists(binary):
            snapshot["benches"][key] = None
            snapshot["notes"].append(f"{bench}: not built (Google Benchmark "
                                     "missing at configure time); skipped")
            print(f"{bench}: skipped (not built)")
            continue
        try:
            snapshot["benches"][key] = run_google_benchmark(binary, env)
            print(f"{bench}: ok")
        except (RuntimeError, json.JSONDecodeError) as err:
            snapshot["benches"][key] = None
            snapshot["notes"].append(f"{bench}: {err}")
            failures += 1

    # Lift the host fields of the first JSON-line bench to the top level
    # so cross-snapshot tooling need not dig per bench.
    for key in ("fold_policies", "tiled_multirhs"):
        payload = snapshot["benches"].get(key)
        if payload:
            snapshot["host"] = {
                "hardware_cores": payload.get("hardware_cores"),
                "omp_max_threads": payload.get("omp_max_threads"),
            }
            break

    with open(args.out, "w") as out:
        json.dump(snapshot, out, indent=1, sort_keys=False)
        out.write("\n")
    print(f"wrote {args.out} ({failures} failure(s))")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

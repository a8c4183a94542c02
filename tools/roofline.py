#!/usr/bin/env python3
"""Roofline accounting for the tiled multi-RHS solve path.

Reads a consolidated snapshot written by tools/bench_snapshot.py
(`BENCH_<PR>.json`) and reports, per (dataset, nrhs) and per
individual bench row, the achieved-vs-roofline fraction of the tiled
solve: measured time versus the model lower bound

    t_bound = max(flops / peak_flops, bytes_moved / peak_bandwidth)

where flops and bytes_moved come from the bench_tiled_multirhs rows (the
CSR byte accounting, csrBytesMoved(): the matrix stream once per tile
plus one RHS/solution round trip) and the peaks come from

  * bench_micro_kernels when the snapshot embeds it: peak_flops is twice
    the best items_per_second among the multi-RHS kernel rows (one
    multiply-add per item), and
  * the snapshot's own rows otherwise: peak_flops / peak_bandwidth are
    the best observed flops/s and bytes/s among the tiled rows, so every
    fraction is <= 100% by construction and the report ranks rows
    against the snapshot's own streaming ceiling.

Fractions above 100% mean the solve beat the byte model's bound. That is
*explained* when the row's working set (matrix bytes + both RHS/solution
buffers) fits in the detected L3 — the model charges DRAM-stream bytes
the cache never moved — and the row is annotated `cache-resident`
instead of failing. Unexplained >100% rows fail the run: the byte
accounting drifted from the kernels.

Usage:
    python3 tools/roofline.py BENCH_8.json [--quiet]

Exit codes: 0 ok; 1 unexplained >100% fraction; 2 usage, parse, or
schema errors (missing benches/tiled_multirhs payload or row fields —
the CI self-check that the snapshot schema and this tool stay in sync).
"""

import argparse
import json
import math
import sys

ROW_FIELDS = (
    "dataset", "matrix", "executor", "team", "nrhs",
    "tile_cols", "num_tiles", "rows", "nnz",
    "untiled_seconds", "tiled_seconds", "tiled_speedup",
    "bytes_moved", "flops",
)

# Matches the layout constants in src/exec/tile.hpp.
SIZEOF_DOUBLE = 8
SIZEOF_INDEX = 4
SIZEOF_OFFSET = 8


def fail_schema(message):
    print(f"roofline: schema error: {message}", file=sys.stderr)
    sys.exit(2)


def load_rows(snapshot):
    benches = snapshot.get("benches")
    if not isinstance(benches, dict):
        fail_schema("no 'benches' object (not a bench_snapshot.py snapshot?)")
    tiled = benches.get("tiled_multirhs")
    if not isinstance(tiled, dict):
        fail_schema("benches.tiled_multirhs missing or null "
                    "(snapshot predates the tiled path or the bench failed)")
    rows = tiled.get("results")
    if not isinstance(rows, list) or not rows:
        fail_schema("benches.tiled_multirhs.results missing or empty")
    for i, row in enumerate(rows):
        missing = [f for f in ROW_FIELDS if f not in row]
        if missing:
            fail_schema(f"results[{i}] missing fields: {', '.join(missing)}")
        if row["tiled_seconds"] <= 0 or row["bytes_moved"] <= 0 \
                or row["flops"] <= 0:
            fail_schema(f"results[{i}] has non-positive "
                        "tiled_seconds/bytes_moved/flops")
    return tiled


def micro_peak_flops(snapshot):
    """Peak FLOP rate from the embedded google-benchmark report: the best
    multi-RHS kernel row's items_per_second (one fnma per item => 2
    flops). None when the snapshot has no micro_kernels entry."""
    micro = snapshot.get("benches", {}).get("micro_kernels")
    if not isinstance(micro, dict):
        return None
    best = 0.0
    for row in micro.get("benchmarks", []):
        if row.get("run_type") == "aggregate":
            continue
        if "MultiRhsKernel" not in row.get("name", ""):
            continue
        best = max(best, float(row.get("items_per_second", 0.0)))
    return 2.0 * best if best > 0.0 else None


def working_set_bytes(row):
    """Bytes the row's solve actually touches once: the matrix stream
    plus both the packed RHS and solution buffers."""
    n, nnz, nrhs = row["rows"], row["nnz"], row["nrhs"]
    num_tiles = max(1, row["num_tiles"])
    vector_bytes = 2 * n * nrhs * SIZEOF_DOUBLE
    # bytes_moved = matrix_stream * num_tiles + vector round trip; the
    # resident set holds the stream once.
    matrix_bytes = (row["bytes_moved"] - vector_bytes) // num_tiles
    return matrix_bytes + vector_bytes


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values)) \
        if values else 0.0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("snapshot", help="BENCH_<PR>.json snapshot")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-row lines; print only the "
                             "(dataset, nrhs) summary and verdict")
    args = parser.parse_args()

    try:
        with open(args.snapshot) as f:
            snapshot = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"roofline: {err}", file=sys.stderr)
        return 2

    tiled = load_rows(snapshot)
    rows = tiled["results"]
    l3_bytes = int(tiled.get("l3_bytes", 0))
    cache_detected = bool(tiled.get("cache_detected", False))

    peak_flops = micro_peak_flops(snapshot)
    flops_source = "micro_kernels"
    if peak_flops is None:
        peak_flops = max(r["flops"] / r["tiled_seconds"] for r in rows)
        flops_source = "snapshot-best"
    peak_bw = max(r["bytes_moved"] / r["tiled_seconds"] for r in rows)

    print(f"roofline peaks: {peak_flops / 1e9:.2f} GFLOP/s "
          f"({flops_source}), {peak_bw / 1e9:.2f} GB/s "
          f"(snapshot-best stream); "
          f"L3 {l3_bytes / 1e6:.1f} MB "
          f"({'detected' if cache_detected else 'fallback'})\n")

    unexplained = []
    groups = {}
    for row in rows:
        t = row["tiled_seconds"]
        t_bound = max(row["flops"] / peak_flops,
                      row["bytes_moved"] / peak_bw)
        fraction = t_bound / t
        resident = l3_bytes > 0 and working_set_bytes(row) < l3_bytes
        note = ""
        if fraction > 1.0 + 1e-9:
            if resident:
                note = "  [>100%: cache-resident, DRAM byte model undershoots]"
            else:
                note = "  [>100% UNEXPLAINED]"
                unexplained.append(row)
        if not args.quiet:
            print(f"  {row['matrix']:<16} {row['executor']:<10} "
                  f"team {row['team']:>2} "
                  f"nrhs {row['nrhs']:>3}: {100 * fraction:6.1f}% of "
                  f"roofline ({row['flops'] / t / 1e9:6.2f} GFLOP/s, "
                  f"{row['bytes_moved'] / t / 1e9:6.2f} GB/s)"
                  f"{note}")
        key = (row["dataset"], row["nrhs"])
        groups.setdefault(key, []).append(fraction)

    print("\nachieved-vs-roofline by (dataset, nrhs):")
    for (dataset, nrhs), fractions in sorted(groups.items()):
        print(f"  {dataset:<20} nrhs {nrhs:>3}: "
              f"geomean {100 * geomean(fractions):6.1f}%  "
              f"best {100 * max(fractions):6.1f}%  "
              f"({len(fractions)} rows)")

    if unexplained:
        print(f"\n{len(unexplained)} row(s) beat the roofline bound with a "
              "working set larger than L3 — the byte accounting has "
              "drifted from the kernels.", file=sys.stderr)
        return 1
    print("\nno unexplained >100% entries.")
    return 0


if __name__ == "__main__":
    sys.exit(main())

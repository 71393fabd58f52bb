#!/usr/bin/env python3
"""bench_gate: the kernel-benchmark regression gate.

Reads a BENCH_kernels.json produced by micro_kernels --json (schema
gcol-bench-kernels-v3, either bare or wrapped as the "bench" section of
a gcol-report-v1 run report) and enforces, in order:

  G1 valid-rows       every kernel row carries valid=true — an invalid
                      coloring makes its wall-time meaningless.
  G4 no-regression    with --baseline OLD.json: every kernel row's
                      wall_ms <= the matching baseline row (same kind/
                      dataset/algo/threads) * (1 + tolerance).
                      Rows present in the baseline but missing from the
                      candidate fail too (coverage loss); new candidate
                      rows are fine.

The tolerance (--regression-pct, default 10) is a noise band, not a
target: both files should come from the same machine and --smoke level.

Exit codes: 0 all gates pass, 1 a gate failed, 2 unreadable or
unparsable input / usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

SCHEMA = "gcol-bench-kernels-v3"
REPORT_SCHEMA = "gcol-report-v1"

# A kernel row's identity inside one file.
ROW_KEY = ("kind", "dataset", "algo", "threads")


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"bench_gate: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    if data.get("schema") == REPORT_SCHEMA:
        # gcol-report-v1 wrapper: the kernel rows live under the
        # report's "bench" section.
        bench = data.get("bench")
        if not isinstance(bench, dict) or \
                not isinstance(bench.get("kernels"), list):
            print(f"bench_gate: {path}: {REPORT_SCHEMA} document has no "
                  "bench.kernels payload", file=sys.stderr)
            sys.exit(2)
        data = {"schema": SCHEMA, "kernels": bench["kernels"]}
    if data.get("schema") != SCHEMA:
        print(f"bench_gate: {path}: schema {data.get('schema')!r} != "
              f"{SCHEMA!r}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data.get("kernels"), list) or not data["kernels"]:
        print(f"bench_gate: {path}: no kernel rows", file=sys.stderr)
        sys.exit(2)
    return data


def row_key(row: dict) -> tuple:
    return tuple(row.get(k) for k in ROW_KEY)


def row_name(row: dict) -> str:
    return (f"{row.get('kind')}/{row.get('dataset')}/{row.get('algo')}"
            f"@t{row.get('threads')}")


def check_valid(rows: list[dict], failures: list[str]) -> None:
    for row in rows:
        if not row.get("valid"):
            failures.append(f"G1 valid-rows: {row_name(row)} has valid="
                            f"{row.get('valid')!r}")


def check_baseline(rows: list[dict], baseline_rows: list[dict], tol: float,
                   failures: list[str]) -> None:
    current = {row_key(r): r for r in rows}
    compared = 0
    for base in baseline_rows:
        cand = current.get(row_key(base))
        if cand is None:
            failures.append(f"G4 no-regression: {row_name(base)} present in "
                            "baseline but missing from candidate")
            continue
        limit = base["wall_ms"] * (1.0 + tol)
        compared += 1
        if cand["wall_ms"] > limit:
            failures.append(
                f"G4 no-regression: {row_name(cand)} wall "
                f"{cand['wall_ms']:.2f}ms > baseline "
                f"{base['wall_ms']:.2f}ms * {1.0 + tol:.2f}")
    print(f"  G4 no-regression      {compared} row(s) compared")


def main() -> int:
    parser = argparse.ArgumentParser(prog="bench_gate.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("candidate", help="BENCH_kernels.json to gate")
    parser.add_argument("--baseline", metavar="JSON",
                        help="prior BENCH_kernels.json to diff against (G4)")
    parser.add_argument("--regression-pct", type=float, default=10.0,
                        help="noise band for G4, percent (default 10)")
    args = parser.parse_args()
    if args.regression_pct < 0:
        parser.error("tolerance must be non-negative")
    tol = args.regression_pct / 100.0

    data = load(args.candidate)
    rows = data["kernels"]
    print(f"bench_gate: {args.candidate}: {len(rows)} kernel row(s)")

    failures: list[str] = []
    check_valid(rows, failures)
    if args.baseline:
        check_baseline(rows, load(args.baseline)["kernels"], tol, failures)

    if failures:
        for f in failures:
            print(f"bench_gate: FAIL {f}")
        print(f"bench_gate: {len(failures)} gate failure(s)", file=sys.stderr)
        return 1
    print("bench_gate: all gates pass")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
    except Exception as exc:  # noqa: BLE001 — the process boundary
        print(f"bench_gate: internal error: {exc}", file=sys.stderr)
        sys.exit(2)

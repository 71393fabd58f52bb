#!/usr/bin/env python3
"""check_trace: validator for gcol-trace artifacts.

Validates a Chrome trace-event JSON written by the gcol-trace exporter
(color_tool --trace-out) and, optionally, a
gcol-report-v1 run report (--report). Checks, in order:

  T1 envelope        top-level traceEvents array + the exporter's
                     otherData.schema tag (gcol-trace-chrome-v1).
  T2 event-shape     every event carries name/ph/ts/pid/tid; ph is one
                     of B/E/i/M; ts is a non-negative number.
  T3 balance         per (pid, tid) track, B/E strictly nest: no end
                     without a begin, nothing left open at the end.
  T4 round-phases    every round span (*.round) at the engine pid
                     contains >= 1 begin of a color span and >= 1 of
                     a conflict span — the per-round, per-phase story
                     the paper's evaluation is built on. Skipped for
                     tracks with no round spans.

With --report FILE also validates the run-report envelope:

  R1 schema          "schema": "gcol-report-v1" + a "tool" string.
  R2 sections        every present section among options/graph/totals/
                     rounds/degradation/metrics/trace/bench is an
                     object (rounds: array); metrics values are
                     non-negative integers.
  R3 fingerprint     graph.fingerprint (when present) matches
                     fnv1a64w:<16 hex digits>.

Exit codes: 0 all checks pass, 1 a check failed, 2 unreadable or
unparsable input / usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

TRACE_SCHEMA = "gcol-trace-chrome-v1"
REPORT_SCHEMA = "gcol-report-v1"
ENGINE_PID = 1

ROUND_NAMES = {"bgpc.round", "d2gc.round", "d1gc.round"}
COLOR_NAMES = {"bgpc.color", "d2gc.color", "d1gc.color"}
CONFLICT_NAMES = {"bgpc.conflict", "d2gc.conflict", "d1gc.conflict"}

FINGERPRINT_RE = re.compile(r"fnv1a64w:[0-9a-f]{16}")


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"check_trace: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data, dict):
        print(f"check_trace: {path}: top level is not an object",
              file=sys.stderr)
        sys.exit(2)
    return data


def check_envelope(data: dict, failures: list[str]) -> list:
    events = data.get("traceEvents")
    if not isinstance(events, list):
        failures.append("T1 envelope: no traceEvents array")
        return []
    schema = data.get("otherData", {}).get("schema")
    if schema != TRACE_SCHEMA:
        failures.append(f"T1 envelope: otherData.schema {schema!r} != "
                        f"{TRACE_SCHEMA!r}")
    return events


def check_events(events: list, failures: list[str]) -> list[dict]:
    ok = []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            failures.append(f"T2 event-shape: event #{i} is not an object")
            continue
        ph = ev.get("ph")
        bad = []
        if not isinstance(ev.get("name"), str):
            bad.append("name")
        if ph not in ("B", "E", "i", "M"):
            bad.append(f"ph={ph!r}")
        if ph != "M" and not (isinstance(ev.get("ts"), (int, float))
                              and ev["ts"] >= 0):
            bad.append("ts")
        if not isinstance(ev.get("pid"), int):
            bad.append("pid")
        if not isinstance(ev.get("tid"), int):
            bad.append("tid")
        if bad:
            failures.append(f"T2 event-shape: event #{i} "
                            f"({ev.get('name')!r}): bad {', '.join(bad)}")
            continue
        ok.append(ev)
    return ok


def check_balance(events: list[dict], failures: list[str]) -> None:
    stacks: dict[tuple, list[str]] = {}
    for ev in events:
        track = (ev["pid"], ev["tid"])
        if ev["ph"] == "B":
            stacks.setdefault(track, []).append(ev["name"])
        elif ev["ph"] == "E":
            stack = stacks.setdefault(track, [])
            if not stack:
                failures.append(f"T3 balance: track {track}: end "
                                f"{ev['name']!r} without a begin")
            else:
                stack.pop()
    for track, stack in sorted(stacks.items()):
        if stack:
            failures.append(f"T3 balance: track {track}: {len(stack)} "
                            f"span(s) left open ({stack[-1]!r} innermost)")


def check_round_phases(events: list[dict], failures: list[str]) -> int:
    """Each round span on the engine pid must contain >= 1 color-phase
    and >= 1 conflict-phase begin (driver-side events, so engine-pid
    only)."""
    rounds_checked = 0
    open_rounds: dict[tuple, list[dict]] = {}
    for ev in events:
        if ev["pid"] != ENGINE_PID:
            continue
        track = (ev["pid"], ev["tid"])
        name, ph = ev["name"], ev["ph"]
        if ph == "B" and name in ROUND_NAMES:
            open_rounds.setdefault(track, []).append(
                {"name": name, "color": 0, "conflict": 0})
        elif ph == "B":
            for frame in open_rounds.get(track, []):
                if name in COLOR_NAMES:
                    frame["color"] += 1
                if name in CONFLICT_NAMES:
                    frame["conflict"] += 1
        elif ph == "E" and name in ROUND_NAMES:
            frames = open_rounds.get(track, [])
            if not frames:
                continue  # balance problems are T3's to report
            frame = frames.pop()
            rounds_checked += 1
            # The last round of a deadline/cap'd run can legitimately
            # end after the color phase (watchdog break) — require the
            # color phase always, the conflict phase only when present.
            if frame["color"] == 0:
                failures.append(f"T4 round-phases: a {frame['name']} span "
                                "contains no color span")
    return rounds_checked


def check_report(path: str, failures: list[str]) -> None:
    data = load(path)
    if data.get("schema") != REPORT_SCHEMA:
        failures.append(f"R1 schema: {data.get('schema')!r} != "
                        f"{REPORT_SCHEMA!r}")
        return
    if not isinstance(data.get("tool"), str):
        failures.append("R1 schema: missing tool string")
    for key in ("options", "graph", "totals", "degradation", "metrics",
                "trace", "bench"):
        if key in data and not isinstance(data[key], dict):
            failures.append(f"R2 sections: {key} is not an object")
    if "rounds" in data and not isinstance(data["rounds"], list):
        failures.append("R2 sections: rounds is not an array")
    for name, value in data.get("metrics", {}).items():
        if not isinstance(value, int) or value < 0:
            failures.append(f"R2 sections: metric {name} = {value!r} is "
                            "not a non-negative integer")
    fp = data.get("graph", {}).get("fingerprint")
    if fp is not None and not (isinstance(fp, str)
                               and FINGERPRINT_RE.fullmatch(fp)):
        failures.append(f"R3 fingerprint: {fp!r} does not match "
                        "fnv1a64w:<16 hex digits>")


def main() -> int:
    parser = argparse.ArgumentParser(prog="check_trace.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("trace", nargs="?",
                        help="Chrome trace-event JSON to validate")
    parser.add_argument("--report", metavar="JSON",
                        help="also validate a gcol-report-v1 run report")
    args = parser.parse_args()
    if not args.trace and not args.report:
        parser.error("nothing to validate: pass a trace file and/or --report")

    failures: list[str] = []
    if args.trace:
        data = load(args.trace)
        events = check_envelope(data, failures)
        events = check_events(events, failures)
        check_balance(events, failures)
        rounds = check_round_phases(events, failures)
        print(f"check_trace: {args.trace}: {len(events)} event(s), "
              f"{rounds} round span(s)")
    if args.report:
        check_report(args.report, failures)
        print(f"check_trace: {args.report}: report envelope checked")

    if failures:
        for f in failures:
            print(f"check_trace: FAIL {f}")
        print(f"check_trace: {len(failures)} check failure(s)",
              file=sys.stderr)
        return 1
    print("check_trace: all checks pass")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
    except Exception as exc:  # noqa: BLE001 — the process boundary
        print(f"check_trace: internal error: {exc}", file=sys.stderr)
        sys.exit(2)

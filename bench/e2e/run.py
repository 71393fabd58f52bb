#!/usr/bin/env python3
"""End-to-end benchmark: matrix file -> verified coloring -> report.

Builds bench/e2e (a CMake project of its own) under build/bench_e2e/,
runs each workload in its own bench_e2e process, checks every output,
and prints each metric by name with its unit. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is non-zero when any output is wrong.

  python3 bench/e2e/run.py --seed 0                # every workload
  python3 bench/e2e/run.py --workload bin-bgpc --seed 3 --trace 0
  python3 bench/e2e/run.py --seed 0 --trace 1      # per-layer (traced) run
  python3 bench/e2e/run.py --seed 0 --out r.json   # also keep a result file
  python3 bench/e2e/run.py --smoke                 # quick self-check

The measured time per workload is BENCHMARK.json's run_seconds. --seconds
is accepted so the benchmark can be driven by the generic
`<command> --workload W --seed S --seconds T --trace 0|1` interface, and
it must equal run_seconds.

Everything it writes goes under build/bench_e2e/. README.md describes the
workloads and metrics; compare.py compares two sets of result files.
"""

import argparse
import contextlib
import fcntl
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
OUT = ROOT / "build" / "bench_e2e"
SPEC = ROOT / "BENCHMARK.json"

MIN_TRACE_COVERAGE = 0.95
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """A failure that leaves no result to report."""


def run_proc(cmd, timeout, **kwargs):
    """subprocess.run that also kills grandchildren (make, compilers) on a
    timeout or an interrupt, and waits for them."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build():
    """Configure (once) and build bench_e2e in Release; returns the binary
    path."""
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found on PATH")
    build_dir = OUT / "cmake-release"
    log_path = OUT / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "bench" / "e2e"),
                      "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "bench_e2e",
                  "-j", str(min(4, os.cpu_count() or 1))])
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        log_path.write_text("")
        for cmd in steps:
            with open(log_path, "a") as log:
                try:
                    res = run_proc(cmd, BUILD_TIMEOUT_S, stdout=log,
                                   stderr=subprocess.STDOUT)
                except subprocess.TimeoutExpired:
                    raise BenchError(f"build timed out; see {log_path}")
            if res.returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-25:]
                sys.stderr.write("\n".join(tail) + "\n")
                raise BenchError(f"build failed; see {log_path}")
    return build_dir / "bench_e2e"


def cpu_model():
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        res = run_proc(["git", "-C", str(ROOT), "rev-parse", "HEAD"], 30,
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
        if res.returncode == 0:
            return res.stdout.strip()
    return "unknown"


def machine_fingerprint(binary_doc):
    fp = dict(binary_doc.get("fingerprint", {}))
    fp["cpu"] = cpu_model()
    fp["os_nproc"] = os.cpu_count()
    fp["omp_env"] = {k: v for k, v in sorted(os.environ.items())
                     if k.startswith(("OMP_", "GOMP_"))}
    fp["commit"] = git_commit()
    return fp


def cpu_ticks():
    """(steal, total) clock ticks of all CPUs so far, or None."""
    with contextlib.suppress(OSError, ValueError, IndexError):
        first = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        ticks = [int(t) for t in first[1:9]]
        return ticks[7], sum(ticks)
    return None


def finite_number(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_section(doc, key, spec_metrics, positive):
    problems = []
    section = doc.get(key, {})
    for m in spec_metrics:
        got = section.get(m["name"], {})
        value = got.get("value")
        if not finite_number(value) or (positive and value <= 0):
            problems.append(f"{m['name']} missing or out of range: {value}")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} in {got.get('unit')}, "
                            f"not {m['unit']}")
    return problems


def check_doc(doc, spec, traced):
    """Problems with one bench_e2e result; empty when every output is
    right."""
    problems = list(doc.get("errors", []))
    if doc.get("attempted", 0) < 1:
        problems.append("no job ran")
    if doc.get("failed", 1) != 0:
        problems.append(f"{doc.get('failed')} job(s) failed")
    problems += check_section(doc, "metrics", spec["end_to_end"], True)
    if traced:
        layers = doc.get("layers", {})
        problems += check_section(doc, "layers", spec["per_layer"], False)
        coverage = layers.get("trace.coverage", {}).get("value", 0)
        if finite_number(coverage) and coverage < MIN_TRACE_COVERAGE:
            problems.append(f"layer shares cover only {coverage:.3f} of "
                            f"job wall (< {MIN_TRACE_COVERAGE})")
        if doc.get("trace_dropped", 1) != 0:
            problems.append("trace ring overflowed; layer sums incomplete")
    return problems


def run_workload(binary, workload, args):
    """Runs one workload in its own process; returns its result doc."""
    work_dir = OUT / f"work-{workload}-{os.getpid()}"
    json_path = OUT / f"{workload}{'.traced' if args.trace else ''}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work-dir", str(work_dir),
           "--json", str(json_path)]
    if args.trace:
        cmd += ["--trace-out", str(OUT / f"{workload}.trace.json")]
    if args.smoke:
        cmd.append("--smoke")
    json_path.unlink(missing_ok=True)
    ticks_before = cpu_ticks()
    try:
        res = run_proc(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        return {"workload": workload, "errors": ["timed out"]}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    ticks_after = cpu_ticks()
    if res.stderr:
        sys.stderr.write(res.stderr)
    if not json_path.exists():
        return {"workload": workload,
                "errors": [f"bench_e2e exited {res.returncode} "
                           "without a result"]}
    doc = json.loads(json_path.read_text())
    # The share of the machine's CPU time the hypervisor gave to other
    # guests while bench_e2e ran: on a shared host, the first thing to
    # look at when a run reads slow.
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        doc["host_steal_frac"] = ((ticks_after[0] - ticks_before[0]) /
                                  (ticks_after[1] - ticks_before[1]))
    if res.returncode != 0:
        doc.setdefault("errors", []).append(
            f"bench_e2e exited {res.returncode}")
    return doc


def check_datasets(binary):
    """Seed 0 must reproduce the dataset registry; seed 1 must relabel
    every dataset without changing its shape."""
    json_path = OUT / "datasets.json"
    res = run_proc([str(binary), "--check-datasets", "--json",
                    str(json_path)], RUN_TIMEOUT_S)
    if res.returncode != 0 or not json_path.exists():
        return ["dataset fingerprint check failed; see " + str(json_path)]
    return []


def tree_snapshot():
    """(path, size, mtime) of every file outside build/ and .git/."""
    snap = set()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        rel = Path(dirpath).relative_to(ROOT)
        if rel == Path("."):
            dirnames[:] = [d for d in dirnames
                           if d not in ("build", ".git")]
        for f in filenames:
            p = Path(dirpath) / f
            with contextlib.suppress(OSError):
                st = p.stat()
                snap.add((str(p.relative_to(ROOT)), st.st_size,
                          st.st_mtime_ns))
    return snap


def print_doc(doc, spec_metrics, traced):
    w = doc.get("workload", "?")
    if traced:
        print("   per-layer metrics of the traced passes:")
    else:
        print(f"== {w}: {doc.get('attempted', 0)} jobs in "
              f"{doc.get('passes', 0)} pass(es) of "
              f"{doc.get('jobs_per_pass', 0)}, "
              f"{doc.get('measured_s', 0):.2f} s measured, "
              f"{doc.get('failed', '?')} failed")
        if "tail_pct" in doc:
            print(f"   job_ms_tail is p{doc['tail_pct']:g} over "
                  f"{doc.get('tail_samples', 0)} jobs")
        if "host_steal_frac" in doc:
            print(f"   host steal {doc['host_steal_frac'] * 100:.1f}% of "
                  "CPU time during the run")
    section = doc.get("layers" if traced else "metrics", {})
    for m in spec_metrics:
        value = section.get(m["name"], {}).get("value")
        shown = f"{value:.6g}" if finite_number(value) else "missing"
        print(f"   {w:<10} {m['name']:<26} {shown:>14} {m['unit']}")
    if not traced:
        for err in doc.get("errors", []):
            print(f"   ERROR {err}")


def parse_args(argv, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"],
                    help="must equal BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: traced run reporting the per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one traced and one untraced pass "
                         "of each workload, plus the dataset and "
                         "hermeticity checks")
    ap.add_argument("--out", type=Path,
                    help="also write a result file (Release builds only)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds != spec["run_seconds"]:
        ap.error(f"--seconds must be {spec['run_seconds']}: the run length "
                 "is fixed by BENCHMARK.json")
    return args


def main(argv):
    spec = json.loads(SPEC.read_text())
    args = parse_args(argv, spec)
    all_workloads = [w["name"] for w in spec["workloads"]]
    workloads = all_workloads if args.workload == "all" else [args.workload]
    before = tree_snapshot() if args.smoke else None
    try:
        binary = build()
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2

    problems = []
    if args.smoke:
        # A traced run also makes untraced passes, so it checks both kinds
        # of metric.
        args.trace = 1
        problems += check_datasets(binary)
    traced = bool(args.trace)

    docs = {}
    metrics = {}
    attempted = failed = 0
    fingerprint = None
    for w in workloads:
        doc = run_workload(binary, w, args)
        docs[w] = doc
        fingerprint = fingerprint or machine_fingerprint(doc)
        if doc.get("fingerprint", {}).get("build_type") not in (
                None, "Release"):
            problems.append(f"{w}: binary is not a Release build")
        problems += [f"{w}: {p}" for p in check_doc(doc, spec, traced)]
        attempted += doc.get("attempted", 0)
        failed += doc.get("failed", 0)
        section = doc.get("layers" if traced else "metrics", {})
        for m in spec["per_layer" if traced else "end_to_end"]:
            value = section.get(m["name"], {}).get("value")
            key = m["name"] if len(workloads) == 1 else f"{w}/{m['name']}"
            metrics[key] = {"value": value, "unit": m["unit"]}
        print_doc(doc, spec["end_to_end"], False)
        if traced:
            print_doc(doc, spec["per_layer"], True)

    if args.smoke:
        changed = tree_snapshot() ^ before
        if changed:
            problems.append("files written outside build/: " + ", ".join(
                sorted({p for p, _, _ in changed})))

    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for p in problems:
        print(f"PROBLEM {p}")
    if args.out is not None and (fingerprint or {}).get(
            "build_type") != "Release":
        print(f"PROBLEM refusing to record {args.out} from a non-Release "
              "build")
    elif args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "schema": "gcol-bench-e2e-result-v1",
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "trace": args.trace,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "fingerprint": fingerprint,
            "workloads": docs,
        }, indent=1) + "\n")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

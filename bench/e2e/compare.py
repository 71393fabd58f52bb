#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark result files.

  python3 bench/e2e/compare.py --base b1.json b2.json ... \\
                               --change c1.json c2.json ...

The files are written by `run.py --out`. For every (workload, end-to-end
metric) this prints each side's median and quartiles, the share of run
pairs the change wins (ties count for neither), and a verdict:

  better        the change wins >= 90% of the pairs and its median beats
                the base's by more than the base's own quartile spread
  unresolved    the run-to-run spread of either side is wider than the
                metric's bound, and not every change run beats every
                base run
  regressed     the change's median is worse than the base's by more
                than the bound
  within bound  otherwise

Runs are paired by seed when both sides ran the same seeds, else in the
order given. Bounds and directions come from BENCHMARK.json at the
repository root. Runs whose seconds, smoke or trace settings differ are
refused. After the table it prints each side's median host steal, the
share of CPU time the hypervisor took while the runs measured. The exit
code is 1 when any row is regressed or unresolved, 0 otherwise.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SAME_MACHINE_KEYS = ("cpu", "nproc", "compiler", "build_type", "gcol_options")
SAME_RUN_KEYS = ("seconds", "smoke", "trace")


def load(paths):
    runs = []
    for p in paths:
        doc = json.loads(Path(p).read_text())
        if doc.get("schema") != "gcol-bench-e2e-result-v1":
            sys.exit(f"compare.py: {p} is not a run.py result file")
        runs.append(doc)
    return runs


def values(runs, workload, metric):
    out = []
    for run in runs:
        doc = run["workloads"].get(workload)
        if doc is None:
            continue
        value = doc.get("metrics", {}).get(metric, {}).get("value")
        if isinstance(value, (int, float)):
            out.append((run.get("seed"), float(value)))
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def fmt(pairs):
    return "/".join(f"{q:.4g}" for q in quartiles([v for _, v in pairs]))


def pairs_of(base, change):
    base_seeds = [s for s, _ in base]
    change_seeds = [s for s, _ in change]
    if sorted(base_seeds) == sorted(change_seeds) and \
            len(set(base_seeds)) == len(base_seeds):
        by_seed = dict(change)
        return [(v, by_seed[s]) for s, v in base]
    return list(zip([v for _, v in base], [v for _, v in change]))


def verdict(base, change, lower_is_better, bound):
    """Returns (verdict, change-worse-by share, share of pairs won)."""
    bv = [v for _, v in base]
    cv = [v for _, v in change]
    b1, bmed, b3 = quartiles(bv)
    c1, cmed, c3 = quartiles(cv)

    def better(new, old):
        return new < old if lower_is_better else new > old

    worse_by = (cmed - bmed) / bmed if lower_is_better else (bmed - cmed) / bmed
    pairs = pairs_of(base, change)
    won = sum(1 for old, new in pairs if better(new, old)) / len(pairs)
    base_spread = (b3 - b1) / bmed
    change_spread = (c3 - c1) / cmed
    all_better = all(better(new, old) for new in cv for old in bv)
    if won >= 0.9 and -worse_by > base_spread:
        return "better", worse_by, won
    if max(base_spread, change_spread) > bound and not all_better:
        return "unresolved", worse_by, won
    if worse_by > bound:
        return "regressed", worse_by, won
    return "within bound", worse_by, won


def machine_mismatch(base, change):
    def keys(runs):
        return {tuple((run.get("fingerprint") or {}).get(k)
                      for k in SAME_MACHINE_KEYS) for run in runs}
    kb, kc = keys(base), keys(change)
    return len(kb | kc) > 1


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)

    spec = json.loads(args.benchmark.read_text())
    base, change = load(args.base), load(args.change)
    settings = {tuple(run.get(k) for k in SAME_RUN_KEYS)
                for run in base + change}
    if len(settings) > 1:
        sys.exit("compare.py: the runs differ in "
                 f"{'/'.join(SAME_RUN_KEYS)} ({sorted(map(str, settings))}); "
                 "only runs made alike can be compared")
    if machine_mismatch(base, change):
        print("WARNING: the two sets come from different machines or builds; "
              "their wall times are not comparable")

    header = (f"{'workload':<10} {'metric':<15} {'base q1/med/q3':>28} "
              f"{'change q1/med/q3':>28} {'worse by':>9} {'won':>5}  verdict")
    print(header)
    print("-" * len(header))
    bad = 0
    for w in (wl["name"] for wl in spec["workloads"]):
        for m in spec["end_to_end"]:
            b = values(base, w, m["name"])
            c = values(change, w, m["name"])
            if not b or not c:
                print(f"{w:<10} {m['name']:<15} {'missing':>28}")
                bad += 1
                continue
            v, worse_by, won = verdict(b, c, m["better"] == "lower",
                                       m["bound"])
            bad += v in ("regressed", "unresolved")
            print(f"{w:<10} {m['name']:<15} {fmt(b):>28} {fmt(c):>28} "
                  f"{worse_by * 100:8.2f}% {won * 100:4.0f}%  {v}")
    print("\nmedian host steal (CPU time the hypervisor gave to other "
          "guests), base / change:")
    for w in (wl["name"] for wl in spec["workloads"]):
        print(f"  {w:<10} {median_steal(base, w)} / {median_steal(change, w)}")
    return 1 if bad else 0


def median_steal(runs, workload):
    steal = [run["workloads"][workload]["host_steal_frac"] for run in runs
             if "host_steal_frac" in run["workloads"].get(workload, {})]
    return f"{statistics.median(steal) * 100:.1f}%" if steal else "n/a"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Regenerate every EXPERIMENTS.md table in one command.

Runs the paper driver (build/bench/paper, built by `cmake --build build`),
keeps its raw JSON, and prints each table of Taş, Kaya & Saule (ICPP
2017) as markdown next to the paper's reference values, under the
machine fingerprint. Every timing cell reads "median [min–max]" over the
driver's reps; ratios over datasets are geometric means, formed per rep.

  python3 bench/paper/run.py                    # full run, ~5 min on 4 cores
  python3 bench/paper/run.py --smoke            # one rep on nlpkkt_s, t in {1,2}
  python3 bench/paper/run.py --from build/paper.json   # re-render only

The exit code is non-zero when the driver fails or any coloring in the
document is invalid.
"""

import argparse
import importlib.util
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_e2e():
    sys.dont_write_bytecode = True  # no __pycache__ in the source tree
    spec = importlib.util.spec_from_file_location(
        "gcol_e2e_run", ROOT / "bench" / "e2e" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Paper reference values (16 cores of a 2x15-core Xeon E7-4870 v2).
PAPER_T1 = {"bone_s": ("bone010", 986_703, (863_785, 806_264, 610_924)),
            "copapers_s": ("coPapersDBLP", 540_486,
                           (409_621, 303_152, 133_874))}
PAPER_T3 = {  # algo: (colors/V-V, t=16 speedup over sequential V-V)
    "V-V": (1.00, 2.76), "V-V-64": (1.01, 4.00), "V-V-64D": (1.01, 4.05),
    "V-Ninf": (1.01, 5.84), "V-N1": (1.01, 5.85), "V-N2": (1.01, 6.01),
    "N1-N2": (1.08, 11.38), "N2-N2": (1.07, 7.50)}
PAPER_T4 = {
    "V-V": (None, 3.78), "V-V-64": (None, 6.41), "V-V-64D": (None, 6.86),
    "V-Ninf": (None, 9.20), "V-N1": (None, 10.07), "V-N2": (None, 10.09),
    "N1-N2": (1.09, 16.76), "N2-N2": (None, 11.19)}
PAPER_T5 = {  # algo: (colors/V-V, t=16 over sequential, over V-V-64D)
    "V-V-64D": (1.04, 6.11, 1.00), "V-N1": (1.04, 8.97, 1.39),
    "V-N2": (1.04, 8.87, 1.37), "N1-N2": (1.09, 13.20, 2.00)}
PAPER_T6 = {  # run: (time, #sets, avg card, stddev), normalized to -U
    "V-N2-B1": (0.95, 1.04, 0.96, 0.69), "V-N2-B2": (0.95, 1.13, 0.89, 0.25),
    "N1-N2-B1": (0.99, 1.04, 0.96, 0.84), "N1-N2-B2": (0.99, 1.09, 0.91, 0.62)}
FIG_DATASET = "copapers_s"
FIG3_RANKS = (0.01, 0.1, 0.5)
SCHEDULE_DATASETS = ("copapers_s", "movielens_s", "uk2002_s")
SCHEDULE_CORES = (2, 8, 16, 64, 256)


def num(x):
    if x is None:
        return "–"
    a = abs(x)
    if isinstance(x, int) or a >= 1000:
        return f"{x:,.0f}"
    return f"{x:.0f}" if a >= 100 else f"{x:.1f}" if a >= 10 else f"{x:.2f}"


def mega(values):
    """Median of a work count, in millions."""
    return f"{statistics.median(values) / 1e6:.1f}M"


def cell(values):
    """median [min–max] of a non-empty sample."""
    values = [v for v in values if v is not None]
    if not values:
        return "–"
    med = statistics.median(values)
    if min(values) == max(values):
        return num(med)
    return f"{num(med)} [{num(min(values))}–{num(max(values))}]"


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def table(header, rows):
    out = ["| " + " | ".join(header) + " |",
           "|" + "|".join("---" for _ in header) + "|"]
    out += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join(out) + "\n"


class Doc:
    def __init__(self, doc):
        self.doc = doc
        self.rows = doc["rows"]
        self.threads = doc["threads"]
        self.t_max = self.threads[-1]
        self.reps = doc["reps"]

    def select(self, experiment, **match):
        return [r for r in self.rows if r["experiment"] == experiment and
                all(r[k] == v for k, v in match.items())]

    def datasets(self, experiment):
        seen = []
        for r in self.rows:
            if r["experiment"] == experiment and r["dataset"] not in seen:
                seen.append(r["dataset"])
        return seen

    def values(self, experiment, field, **match):
        return [field(r) if callable(field) else r[field]
                for r in self.select(experiment, **match)]

    def median(self, experiment, field, **match):
        return statistics.median(self.values(experiment, field, **match))

    def per_rep_geomean(self, datasets, ratio):
        """Geomean over datasets of ratio(dataset, rep), one per rep."""
        return [geomean([ratio(ds, rep) for ds in datasets])
                for rep in range(self.reps)]

    def fig_dataset(self, experiment):
        names = self.datasets(experiment)
        return FIG_DATASET if FIG_DATASET in names else names[0]


def seconds(r):
    return r["seconds"] + r["post_seconds"]


def ms(r):
    return seconds(r) * 1e3


def first_conflicts(r):
    return r["iterations"][0]["conflicts"] if r["iterations"] else 0


def render_fingerprint(d, e2e):
    fp = e2e.machine_fingerprint(d.doc)
    rows = [(k, json.dumps(v) if isinstance(v, dict) else v)
            for k, v in fp.items()]
    rows += [("threads", ", ".join(map(str, d.threads))), ("reps", d.reps),
             ("driver wall time", f"{d.doc['seconds']:.0f} s")]
    return "## Machine\n\n" + table(["key", "value"], rows)


def render_table1(d):
    out = ["## Table I — |W_next| after the first iteration\n"]
    rows = []
    for ds in d.datasets("first-iteration"):
        if ds in PAPER_T1:
            name, nets, ref = PAPER_T1[ds]
            rows.append([f"paper {name}", 16, *map(num, ref), num(nets)])
        nets = d.doc["datasets"][ds]["rows"]
        for t in d.threads:
            cols = [cell(d.values("first-iteration", first_conflicts,
                                  dataset=ds, algo=a, threads=t))
                    for a in ("alg6", "alg6-reverse")]
            cols.append(cell(d.values("bgpc-natural", first_conflicts,
                                      dataset=ds, algo="N1-N2", threads=t)))
            rows.append([f"**{ds}**", t, *cols, num(nets)])
    out.append(table(["graph", "t", "Alg. 6", "Alg. 6+reverse", "Alg. 8",
                      "of |V_B|"], rows))
    return "\n".join(out)


def render_fig1(d):
    ds = d.fig_dataset("bgpc-natural")
    out = [f"## Figure 1 — per-iteration phase times ({ds}, "
           f"t={d.t_max}, ms)\n"]
    rows = []
    for algo in ("V-V-64D", "V-Ninf", "V-N1", "V-N2", "N1-N2", "N2-N2"):
        runs = d.select("bgpc-natural", dataset=ds, algo=algo,
                        threads=d.t_max)
        for i in range(min(5, max(len(r["iterations"]) for r in runs))):
            its = [r["iterations"][i] for r in runs
                   if len(r["iterations"]) > i]
            rows.append([algo, i + 1, cell([it["queue"] for it in its]),
                         cell([it["color_ms"] for it in its]),
                         cell([it["conflict_ms"] for it in its]),
                         its[0]["kernels"]])
    out.append(table(["algorithm", "round", "|W|", "coloring", "conflict",
                      "kernels"], rows))
    return "\n".join(out)


def render_table2(d):
    out = ["## Table II — datasets and sequential BGPC baselines "
           "(ms; ordering time excluded)\n"]
    rows = []
    for ds in d.datasets("bgpc-natural"):
        info = d.doc["datasets"][ds]
        seq = {e: d.select(e, dataset=ds, algo="seq")
               for e in ("bgpc-natural", "bgpc-sl")}
        rows.append([ds, info["mimics"], f"{info['rows']:,}×{info['cols']:,}",
                     num(info["nnz"]), num(info["deg_max"]),
                     num(info["deg_sd"]),
                     cell([ms(r) for r in seq["bgpc-natural"]]),
                     cell([r["colors"] for r in seq["bgpc-natural"]]),
                     cell([ms(r) for r in seq["bgpc-sl"]]),
                     cell([r["colors"] for r in seq["bgpc-sl"]]),
                     "Y" if info["d2gc"] else "–"])
    out.append(table(["graph", "mimics", "rows×cols", "nnz", "deg.max",
                      "deg.sd", "nat. ms", "nat. #col", "SL ms", "SL #col",
                      "D2GC"], rows))
    return "\n".join(out)


def render_fig2(d):
    out = ["## Figure 2 — every BGPC algorithm on every graph "
           "(natural order, ms)\n"]
    rows = []
    for ds in d.datasets("bgpc-natural"):
        seq = d.select("bgpc-natural", dataset=ds, algo="seq")
        rows.append([f"**{ds}**", "seq", cell([ms(r) for r in seq]),
                     *[""] * (len(d.threads) - 1),
                     cell([r["colors"] for r in seq]),
                     mega([r["work"] for r in seq])])
        for algo in algos(d, "bgpc-natural"):
            times = [cell(d.values("bgpc-natural", ms, dataset=ds,
                                   algo=algo, threads=t))
                     for t in d.threads]
            top = d.select("bgpc-natural", dataset=ds, algo=algo,
                           threads=d.t_max)
            rows.append(["", algo, *times, cell([r["colors"] for r in top]),
                         mega([r["work"] for r in top])])
    out.append(table(["graph", "algorithm",
                      *[f"t={t}" for t in d.threads],
                      f"#colors t={d.t_max}", f"work t={d.t_max}"], rows))
    return "\n".join(out)


def algos(d, experiment):
    seen = []
    for r in d.select(experiment):
        if r["algo"] != "seq" and r["algo"] not in seen:
            seen.append(r["algo"])
    return seen


def speedup_table(d, experiment, base, paper, title):
    """Tables III-V: geomean speedups over the sequential run and over the
    parallel `base` algorithm, color and work ratios against `base`."""
    datasets = d.datasets(experiment)
    seq = {ds: d.median(experiment, seconds, dataset=ds, algo="seq")
           for ds in datasets}
    top = {(ds, a): d.select(experiment, dataset=ds, algo=a,
                             threads=d.t_max)
           for ds in datasets for a in algos(d, experiment)}
    base_med = {(ds, f): statistics.median(r[f] for r in top[ds, base])
                for ds in datasets for f in ("seconds", "colors", "work")}

    def ratio(algo, f, inverse):
        def at(ds, rep):
            own = top[ds, algo][rep][f]
            return base_med[ds, f] / own if inverse else own / base_med[ds, f]
        return cell(d.per_rep_geomean(datasets, at))

    rows = []
    for algo in algos(d, experiment):
        per_t = []
        for t in d.threads:
            runs = {ds: d.select(experiment, dataset=ds, algo=algo, threads=t)
                    for ds in datasets}
            per_t.append(cell(d.per_rep_geomean(
                datasets, lambda ds, rep: seq[ds] / runs[ds][rep]["seconds"])))
        ref = paper.get(algo, (None,) * 3)
        ref_vs_base = (ref[2] if len(ref) > 2 else
                       ref[1] / paper[base][1] if ref[1] else None)
        rows.append([algo, num(ref[0]), ratio(algo, "colors", False),
                     num(ref[1]), *per_t, num(ref_vs_base),
                     ratio(algo, "seconds", True),
                     ratio(algo, "work", True)])
    header = ["algorithm", "paper colors/V-V", f"colors/{base}",
              "paper t=16 vs seq", *[f"t={t} vs seq" for t in d.threads],
              f"paper vs {base}", f"t={d.t_max} vs {base}",
              f"work {base}/alg"]
    return f"## {title}\n\n" + table(header, rows)


def render_table6(d):
    datasets = d.datasets("balance")
    out = [f"## Table VI — balancing heuristics (t={d.t_max}, "
           "normalized to -U, geomean over graphs)\n"]
    fields = (seconds, lambda r: r["sets"], lambda r: r["card_mean"],
              lambda r: r["card_sd"])
    rows = []
    for algo in ("V-N2", "N1-N2"):
        base = {ds: d.select("balance", dataset=ds, algo=algo, balance="U",
                             post="none") for ds in datasets}
        base_med = {(ds, i): statistics.median(f(r) for r in base[ds])
                    for ds in datasets for i, f in enumerate(fields)}
        rows.append([f"{algo}-U", "1.00 / 1.00 / 1.00 / 1.00",
                     *["1.00"] * len(fields)])
        for label, balance, post in (("B1", "B1", "none"),
                                     ("B2", "B2", "none"),
                                     ("LU (offline)", "U", "least-used")):
            runs = {ds: d.select("balance", dataset=ds, algo=algo,
                                 balance=balance, post=post)
                    for ds in datasets}
            cols = []
            for i, f in enumerate(fields):
                def at(ds, rep, i=i, f=f):
                    b = base_med[ds, i]
                    # A perfectly uniform -U run (stddev 0) has nothing
                    # to improve: count it as ratio 1.
                    return f(runs[ds][rep]) / b if b > 0 else 1.0
                cols.append(cell(d.per_rep_geomean(datasets, at)))
            ref = PAPER_T6.get(f"{algo}-{label}")
            rows.append([f"{algo}-{label}",
                         " / ".join(map(num, ref)) if ref else "–", *cols])
    out.append(table(["run", "paper time / #sets / card / sd", "time",
                      "#sets", "avg card", "stddev"], rows))
    return "\n".join(out)


def percentile(card, q):
    """Size of the set at rank q of the descending order (Fig. 3's x)."""
    return card[int(q * (len(card) - 1))]


def render_fig3(d):
    ds = d.fig_dataset("balance")
    out = [f"## Figure 3 — color-set cardinalities ({ds}, t={d.t_max})\n"]
    rows = []
    for algo in ("V-N2", "N1-N2"):
        for balance in ("U", "B1", "B2"):
            runs = d.select("balance", dataset=ds, algo=algo,
                            balance=balance, post="none")
            c = [r["cardinalities"] for r in runs]
            rows.append([f"{algo}-{balance}", cell([r["sets"] for r in runs]),
                         cell([r["card_max"] for r in runs]),
                         *[cell([percentile(x, q) for x in c])
                           for q in FIG3_RANKS],
                         cell([r["singletons"] for r in runs]),
                         cell([r["card_sd"] for r in runs])])
    out.append(table(["run", "#sets", "max",
                      *[f"size at rank {q:.0%}" for q in FIG3_RANKS],
                      "singletons", "stddev"], rows))
    return "\n".join(out)


def efficiency(card, cores):
    span = sum(-(-c // cores) for c in card)
    return sum(card) / (cores * span)


def render_schedule(d):
    names = [ds for ds in d.datasets("balance") if ds in SCHEDULE_DATASETS]
    names = names or d.datasets("balance")[:1]
    out = ["## Schedule efficiency — items / (P × span) of the N1-N2 color "
           f"schedule (t={d.t_max})\n"]
    rows = []
    for ds in names:
        for balance in ("U", "B1", "B2"):
            runs = d.select("balance", dataset=ds, algo="N1-N2",
                            balance=balance, post="none")
            rows.append([ds, f"N1-N2-{balance}",
                         cell([r["sets"] for r in runs]),
                         *[cell([efficiency(r["cardinalities"], p)
                                 for r in runs]) for p in SCHEDULE_CORES]])
    out.append(table(["graph", "run", "#sets",
                      *[f"P={p}" for p in SCHEDULE_CORES]], rows))
    return "\n".join(out)


def render_orderings(d):
    out = [f"## Orderings and the DSATUR ceiling (N1-N2 at t={d.t_max})\n"]
    rows = []
    for ds in d.datasets("orderings"):
        lower = d.doc["datasets"][ds]["deg_max"]
        orders = []
        for r in d.select("orderings", algo="seq", dataset=ds):
            if r["order"] not in orders:
                orders.append(r["order"])
        for order in orders:
            seq = d.select("orderings", dataset=ds, algo="seq", order=order)
            par = d.select("orderings", dataset=ds, algo="N1-N2", order=order)
            rows.append([ds, num(lower), order,
                         cell([r["colors"] for r in seq]),
                         cell([r["colors"] for r in par]),
                         cell([ms(r) for r in par])])
        ds_runs = d.select("orderings", dataset=ds, algo="dsatur")
        rows.append([ds, num(lower), "dsatur (seq)",
                     cell([r["colors"] for r in ds_runs]), "–",
                     cell([ms(r) for r in ds_runs])])
    out.append(table(["graph", "L", "ordering", "seq colors", "N1-N2 colors",
                      "N1-N2 / dsatur ms"], rows))
    return "\n".join(out)


def render_recolor(d):
    out = [f"## Iterated-greedy recoloring (t={d.t_max})\n"]
    rows = []
    for ds in d.datasets("recolor"):
        for algo in algos(d, "recolor"):
            base = d.select("bgpc-natural", dataset=ds, algo=algo,
                            threads=d.t_max)
            once = d.select("recolor", dataset=ds, algo=algo)
            rows.append([ds, algo, cell([r["colors"] for r in base]),
                         cell([r["colors"] for r in once]),
                         cell([ms(r) for r in base]),
                         cell([r["post_seconds"] * 1e3 for r in once])])
    out.append(table(["graph", "algorithm", "colors", "after 1 pass",
                      "color ms", "1-pass ms"], rows))
    return "\n".join(out)


def render_d1_vs_d2(d):
    out = ["## Intro claim — D1GC is cheap, BGPC and D2GC are not "
           "(sequential, ms)\n"]
    rows = []
    for ds in d.datasets("d1-vs-d2"):
        d1 = d.select("d1-vs-d2", dataset=ds, algo="seq")
        bgpc = d.select("bgpc-natural", dataset=ds, algo="seq")
        d2 = d.select("d2gc", dataset=ds, algo="seq")
        spec = d.select("d1-vs-d2", dataset=ds, algo="V-V-64D")
        jp = d.select("d1-vs-d2", dataset=ds, algo="jp")
        rows.append([ds, cell([ms(r) for r in d1]),
                     cell([r["colors"] for r in d1]),
                     cell([ms(r) for r in bgpc]),
                     cell([ms(r) for r in d2]),
                     cell([r["colors"] for r in d2]),
                     num(statistics.median(r["work"] for r in d2) /
                         statistics.median(r["work"] for r in d1)),
                     f"{cell([ms(r) for r in spec])} / "
                     f"{cell([r['colors'] for r in spec])}",
                     f"{cell([ms(r) for r in jp])} / "
                     f"{cell([r['colors'] for r in jp])} / "
                     f"{cell([r['rounds'] for r in jp])}"])
    out.append(table(["graph", "D1 ms", "D1 col", "BGPC ms", "D2 ms",
                      "D2 col", "D2/D1 work",
                      f"spec. D1 t={d.t_max} ms / col",
                      f"JP t={d.t_max} ms / col / rounds"], rows))
    return "\n".join(out)


def render(doc, e2e):
    d = Doc(doc)
    parts = [
        render_fingerprint(d, e2e), render_table1(d), render_fig1(d),
        render_table2(d), render_fig2(d),
        speedup_table(d, "bgpc-natural", "V-V", PAPER_T3,
                      "Table III — BGPC speedups, natural order"),
        speedup_table(d, "bgpc-sl", "V-V", PAPER_T4,
                      "Table IV — BGPC speedups, smallest-last order"),
        speedup_table(d, "d2gc", "V-V-64D", PAPER_T5,
                      "Table V — D2GC speedups, natural order"),
        render_table6(d), render_fig3(d), render_schedule(d),
        render_orderings(d), render_recolor(d), render_d1_vs_d2(d)]
    return "\n".join(parts)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--smoke", action="store_true",
                    help="one rep of every experiment on nlpkkt_s")
    ap.add_argument("--binary", type=Path,
                    default=ROOT / "build" / "bench" / "paper",
                    help="paper driver (default: build/bench/paper)")
    ap.add_argument("--out", type=Path,
                    help="where the driver's JSON goes "
                         "(default: build/paper[_smoke].json)")
    ap.add_argument("--from", dest="from_json", type=Path,
                    help="render this driver output instead of running")
    args = ap.parse_args(argv)

    if args.from_json:
        path = args.from_json
    else:
        path = args.out or ROOT / "build" / (
            "paper_smoke.json" if args.smoke else "paper.json")
        if not args.binary.exists():
            sys.exit(f"{args.binary} not found; run `cmake --build build`")
        path.parent.mkdir(parents=True, exist_ok=True)
        cmd = [str(args.binary), "--out", str(path)]
        if args.smoke:
            cmd.insert(1, "--smoke")
        rc = subprocess.run(cmd).returncode
        if rc != 0:
            sys.exit(f"paper driver exited {rc}")
    doc = json.loads(path.read_text())
    print(render(doc, load_e2e()))
    if doc["invalid"]:
        sys.exit(f"{doc['invalid']} invalid colorings in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

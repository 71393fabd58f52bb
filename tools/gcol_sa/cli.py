"""gcol-sa command line: the lint gate's process boundary.

Exit-code contract (unchanged from the retired regex lint):
  0  clean (or every finding baselined)
  1  findings
  2  the gate itself could not do its job (bad inputs, internal error,
     blown --budget-seconds)
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .baseline import BASELINE_NAME, apply as baseline_apply, load as \
    baseline_load, rehash as baseline_rehash, render_entries
from .effects import (build_race_surface, check_hot_call_effects,
                      check_shared_write_chains, compute_summaries,
                      verify_race_surface)
from .index import (GateError, build_program, changed_rels, collect_files,
                    file_findings, find_root, run_analysis)
from .rules import (RULES, RULE_NAMES, check_error_propagation,
                    check_interproc_alloc, check_seam_escape)
from .sarif import write_sarif


def analyze(root: str, paths: list[str], explicit: bool,
            cache_dir: str | None, jobs: int = 1, timings=None):
    """Shared analysis pipeline: per-file rules + program rules.
    Returns (analyzed_files, program_facts, includes_map, findings)."""
    t = timings if timings is not None else {}
    t0 = time.perf_counter()
    analyzed = run_analysis(root, paths, explicit, cache_dir, jobs=jobs)
    t1 = time.perf_counter()
    findings = file_findings(analyzed)
    facts, includes = build_program(analyzed, explicit)
    t2 = time.perf_counter()
    summaries = compute_summaries(facts)
    t3 = time.perf_counter()
    findings += check_interproc_alloc(facts)
    findings += check_seam_escape(facts)
    findings += check_error_propagation(facts)
    findings += check_shared_write_chains(facts)
    findings += check_hot_call_effects(facts, summaries)
    t4 = time.perf_counter()
    t["files"] = t1 - t0
    t["callgraph"] = t2 - t1
    t["effects"] = t3 - t2
    t["program-rules"] = t4 - t3
    return analyzed, facts, includes, findings


def rule_docs() -> str:
    lines = [
        "| Rule | Name | Scope | Fixture | Rationale |",
        "| --- | --- | --- | --- | --- |",
    ]
    for r in RULES:
        lines.append(f"| {r.id} | `{r.name}` | {r.scope} "
                     f"| `{r.fixture}` | {r.rationale} |")
    return "\n".join(lines)


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gcol_sa",
        description="gcol-sa: token-accurate static analysis gate for the "
                    "greedcolor repo")
    p.add_argument("paths", nargs="*",
                   help="analyze only these files (all rules apply)")
    p.add_argument("--compile-commands", metavar="JSON",
                   help="compilation database to take the file set from")
    p.add_argument("--root", default=None,
                   help="repository root (auto-detected by default)")
    p.add_argument("--list-rules", action="store_true")
    p.add_argument("--rule-docs", action="store_true",
                   help="print the rule catalog as a markdown table")
    p.add_argument("--self-test", action="store_true",
                   help="run engine unit tests, the lint_fixtures matrix, "
                        "and the exit-code contract checks")
    p.add_argument("--sarif", metavar="FILE",
                   help="also write findings as SARIF 2.1.0")
    p.add_argument("--baseline", metavar="FILE", default=None,
                   help=f"baseline file (default: tools/{BASELINE_NAME})")
    p.add_argument("--no-baseline", action="store_true",
                   help="report baselined findings too")
    p.add_argument("--write-baseline", action="store_true",
                   help="write the current findings as the new baseline "
                        "and exit 0 (justifications start as TODO)")
    p.add_argument("--changed-only", action="store_true",
                   help="report findings only for files changed per git "
                        "plus their reverse call-graph/include dependents")
    p.add_argument("--diff-base", metavar="REF", default=None,
                   help="with --changed-only: also diff against this ref")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="content-hash result cache "
                        "(default: <root>/build/gcol_sa_cache)")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--budget-seconds", type=float, default=None,
                   help="exit 2 if the run exceeds this wall-time budget")
    p.add_argument("--stats", action="store_true",
                   help="print cache/timing statistics (with a per-phase "
                        "breakdown) to stderr")
    p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                   help="analyze files with N worker processes")
    p.add_argument("--race-surface", metavar="FILE",
                   help="write the gcol-sa-race-v1 shared-write surface "
                        "report to FILE ('-' for stdout)")
    p.add_argument("--verify-race-surface", action="store_true",
                   help="cross-check the freshly built race surface "
                        "against docs/race_surface.json and the seam "
                        "table in docs/ANALYSIS.md (exit 2 on drift)")
    p.add_argument("--rehash-baseline", action="store_true",
                   help="one-shot migration: rewrite the baseline file's "
                        "fingerprints to the current (v2) hash in place")
    return p


def main(argv: list[str] | None = None) -> int:
    t0 = time.monotonic()
    args = build_arg_parser().parse_args(argv)
    root = os.path.abspath(args.root) if args.root else find_root(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

    if args.list_rules:
        for rid in sorted(RULE_NAMES):
            print(f"{rid}  {RULE_NAMES[rid]}")
        return 0
    if args.rule_docs:
        print(rule_docs())
        return 0
    if args.self_test:
        from .selftest import run_self_test
        return run_self_test(root)

    try:
        if args.paths:
            paths = [os.path.realpath(p) for p in args.paths]
            for p in paths:
                if not os.path.exists(p):
                    raise GateError(f"no such file: {p}")
            explicit = True
        else:
            paths = collect_files(root, args.compile_commands)
            if not paths:
                print("gcol-sa: no files to analyze "
                      "(missing compile_commands?)", file=sys.stderr)
                return 2
            explicit = False

        cache_dir = None
        if not args.no_cache:
            cache_dir = args.cache_dir or os.path.join(
                root, "build", "gcol_sa_cache")
        phase_timings: dict[str, float] = {}
        analyzed, facts, includes, findings = analyze(
            root, paths, explicit, cache_dir, jobs=max(1, args.jobs),
            timings=phase_timings)

        if args.rehash_baseline:
            bpath = args.baseline or os.path.join(root, "tools",
                                                  BASELINE_NAME)
            rewritten, unmatched = baseline_rehash(bpath, findings, root)
            for u in unmatched:
                print(f"gcol-sa: warning: could not rehash: {u}",
                      file=sys.stderr)
            print(f"gcol-sa: rehashed {rewritten} baseline entrie(s) in "
                  f"{os.path.relpath(bpath, root)}")
            return 0

        if args.race_surface or args.verify_race_surface:
            import json as _json
            report = build_race_surface(analyzed, facts)
            if args.race_surface == "-":
                _json.dump(report, sys.stdout, indent=1, sort_keys=True)
                print()
            elif args.race_surface:
                with open(args.race_surface, "w", encoding="utf-8") as fh:
                    _json.dump(report, fh, indent=1, sort_keys=True)
                    fh.write("\n")
                print(f"gcol-sa: wrote race surface "
                      f"({report['summary']['sites']} site(s), "
                      f"{report['summary']['flagged']} unjustified) to "
                      f"{args.race_surface}")
            if args.verify_race_surface:
                problems = verify_race_surface(
                    report,
                    os.path.join(root, "docs", "race_surface.json"),
                    os.path.join(root, "docs", "ANALYSIS.md"))
                if problems:
                    for prob in problems:
                        print(f"gcol-sa: race-surface drift: {prob}",
                              file=sys.stderr)
                    print("gcol-sa: regenerate with `python3 tools/gcol_sa "
                          "--race-surface docs/race_surface.json` and "
                          "re-review the justifications", file=sys.stderr)
                    return 2
                print(f"gcol-sa: race surface in sync "
                      f"({report['summary']['sites']} site(s), "
                      f"{report['summary']['flagged']} unjustified)")

        if args.changed_only:
            changed = changed_rels(root, args.diff_base)
            target = facts.dependents_closure(changed, includes)
            findings = [
                f for f in findings
                if os.path.relpath(f.path, root).replace(os.sep, "/")
                in target]

        if args.write_baseline:
            path = args.baseline or os.path.join(root, "tools",
                                                 BASELINE_NAME)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_entries(findings, root))
            print(f"gcol-sa: wrote {len(findings)} baseline entrie(s) to "
                  f"{os.path.relpath(path, root)}")
            return 0

        suppressed = []
        if not explicit and not args.no_baseline:
            bpath = args.baseline or os.path.join(root, "tools",
                                                  BASELINE_NAME)
            try:
                entries = baseline_load(bpath)
            except ValueError as exc:
                raise GateError(str(exc)) from exc
            findings, suppressed = baseline_apply(findings, entries, root)
            # A --changed-only run sees only a slice of the findings, so
            # an unmatched entry proves nothing about staleness.
            for e in (entries if not args.changed_only else []):
                if not e.used:
                    print(f"gcol-sa: warning: stale baseline entry "
                          f"{e.rule} {e.rel} {e.fp} "
                          f"(finding no longer produced) — remove it",
                          file=sys.stderr)

        if args.sarif:
            write_sarif(args.sarif, findings, suppressed, root)

        for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
            print(f.render(root))

        elapsed = time.monotonic() - t0
        if args.stats:
            hits = sum(1 for a in analyzed if a.cached)
            per_rule: dict[str, int] = {}
            for f in findings + suppressed:
                per_rule[f.rule] = per_rule.get(f.rule, 0) + 1
            counts = " ".join(f"{r}:{n}" for r, n
                              in sorted(per_rule.items())) or "none"
            print(f"gcol-sa: stats: {len(analyzed)} file(s), "
                  f"{hits} cache hit(s), {elapsed:.2f}s, "
                  f"findings {counts}", file=sys.stderr)
            per_phase: dict[str, float] = {}
            for a in analyzed:
                if a.cached:
                    continue
                for k, v in a.payload.get("timings", {}).items():
                    per_phase[k] = per_phase.get(k, 0.0) + v
            per_phase.update(phase_timings)
            breakdown = " ".join(f"{k}:{v * 1000:.0f}ms"
                                 for k, v in per_phase.items())
            print(f"gcol-sa: phases ({max(1, args.jobs)} job(s)): "
                  f"{breakdown}", file=sys.stderr)
        if args.budget_seconds is not None and elapsed > args.budget_seconds:
            print(f"gcol-sa: wall-time budget exceeded: {elapsed:.2f}s > "
                  f"{args.budget_seconds:.2f}s — the gate must stay fast "
                  f"enough to run on every build", file=sys.stderr)
            return 2

        if findings:
            note = (f" ({len(suppressed)} baselined)" if suppressed else "")
            print(f"gcol-sa: {len(findings)} finding(s) in "
                  f"{len(analyzed)} file(s){note}", file=sys.stderr)
            return 1
        note = (f" ({len(suppressed)} baselined finding(s))"
                if suppressed else "")
        print(f"gcol-sa: {len(analyzed)} file(s) clean{note}")
        return 0
    except GateError as exc:
        print(f"gcol-sa: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """Process entry point with the exception->exit-2 contract."""
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(130)
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001 — the process boundary
        print(f"gcol-sa: internal error: {exc}", file=sys.stderr)
        sys.exit(2)

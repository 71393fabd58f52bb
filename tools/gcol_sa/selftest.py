"""gcol-sa self test: engine unit tests, the lint_fixtures matrix, a
golden-verdict identity check against the regex lint's recorded output,
and the subprocess exit-code contract.

Runs with zero dependencies: `python3 tools/gcol_sa --self-test`.
"""

from __future__ import annotations

import glob
import os
import re
import subprocess
import sys
import tempfile

from .index import FileAnalysis, analyze_text, build_program, \
    run_analysis, file_findings
from .lexer import lex
from .parser import find_functions
from .rules import (check_error_propagation, check_interproc_alloc,
                    check_trace_balance)


# ---------------------------------------------------------------------------
# Engine unit tests. Each returns None or raises AssertionError.


def _t_raw_string_hides_pragma():
    src = 'const char* doc = R"(\n#pragma omp critical\n)";\nint x;\n'
    lf = lex(src)
    assert not lf.directives, "raw-string body must not become a directive"
    kinds = [t.kind for t in lf.tokens]
    assert "rawstr" in kinds
    assert not any(t.kind == "id" and t.val == "critical" for t in lf.tokens)


def _t_multiline_pragma_joins():
    src = ("#pragma omp parallel for \\\n"
           "    schedule(static, 64) \\\n"
           "    default(none) shared(c)\n"
           "for (int i = 0; i < 4; ++i) {}\n")
    lf = lex(src)
    assert len(lf.directives) == 1
    d = lf.directives[0]
    assert d.is_omp()
    ids = d.ids()
    assert "schedule" in ids and "shared" in ids
    assert d.attach == 0, "pragma must attach to the first code token"


def _t_line_comment_continuation():
    src = "// comment \\\nstill comment\nint y;\n"
    lf = lex(src)
    assert [t.val for t in lf.tokens] == ["int", "y", ";"]


def _t_digit_separator():
    lf = lex("auto n = 1'000'000;")
    nums = [t for t in lf.tokens if t.kind == "num"]
    assert len(nums) == 1 and nums[0].val == "1'000'000"


def _t_include_paths():
    lf = lex('#include "greedcolor/robust/fault.hpp"\n#include <vector>\n')
    paths = [d.include_path() for d in lf.directives]
    assert paths == ["greedcolor/robust/fault.hpp", "vector"]


def _t_find_functions():
    src = ("int free_fn(int a) { return a; }\n"
           "struct S { int v; };\n"
           "S::S(int v) : v{v} { v += 1; }\n"
           "auto trailing(int x) -> int { return x; }\n"
           "int decl_only(int);\n")
    funcs = find_functions(lex(src).tokens)
    names = [f.name for f in funcs]
    assert names == ["free_fn", "S", "trailing"], names


def _t_lambda_stays_inside():
    src = ("void outer() {\n"
           "  auto f = [](int x) { return x + 1; };\n"
           "  f(2);\n"
           "}\n")
    funcs = find_functions(lex(src).tokens)
    assert [f.name for f in funcs] == ["outer"]


def _t_omp_braceless_nested():
    src = ("void k(int* c, int n) {\n"
           "#pragma omp parallel for schedule(static)\n"
           "  for (int i = 0; i < n; ++i)\n"
           "    if (c[i] > 0) c[i] = 1;\n"
           "    else c[i] = 2;\n"
           "  c[0] = 9;\n"
           "}\n")
    fa = FileAnalysis("mem.cpp", "mem.cpp", src)
    toks = fa.lexed.tokens
    hot_lines = {toks[i].line for i in range(len(toks))
                 if fa.regions.hot[i] and toks[i].val == "c"}
    assert 4 in hot_lines and 5 in hot_lines, \
        "both branches of the braceless if/else are in the omp-for body"
    tail = [i for i in range(len(toks))
            if toks[i].line == 6 and toks[i].val == "c"]
    assert tail and not fa.regions.hot[tail[0]], \
        "code after the loop must not be hot"
    assert not fa.regions.parallel[tail[0]]


def _t_omp_nested_regions():
    src = ("void k(int* c, int n) {\n"
           "#pragma omp parallel\n"
           "  {\n"
           "    int t = 0;\n"
           "#pragma omp for schedule(dynamic)\n"
           "    for (int i = 0; i < n; ++i)\n"
           "      t += c[i];\n"
           "    c[n - 1] = t;\n"
           "  }\n"
           "}\n")
    fa = FileAnalysis("mem.cpp", "mem.cpp", src)
    toks = fa.lexed.tokens
    body = [i for i in range(len(toks))
            if toks[i].line == 7 and toks[i].val == "c"][0]
    after = [i for i in range(len(toks))
             if toks[i].line == 8 and toks[i].val == "c"][0]
    assert fa.regions.parallel[body] and fa.regions.hot[body]
    assert fa.regions.parallel[after] and not fa.regions.hot[after], \
        "after the omp-for, still parallel but no longer the hot body"


def _t_callgraph_reachability():
    src = ("void leaf(int* v) { throw 1; }\n"
           "void mid(int* v) { leaf(v); }\n"
           "void kernel(int* v, int n) {\n"
           "#pragma omp parallel for schedule(static)\n"
           "  for (int i = 0; i < n; ++i) mid(v);\n"
           "}\n")
    payload = analyze_text("mem.cpp", "mem.cpp", src, explicit=True)

    class _AF:
        path, rel = "mem.cpp", "mem.cpp"
        lines = src.split("\n")

        def __init__(self, p):
            self.payload = p
    facts, _ = build_program([_AF(payload)], explicit=True)
    reached = facts.reachable_from_regions(require_parallel=False)
    names = sorted(f.name for (_, f) in reached)
    assert names == ["leaf", "mid"], names
    findings = check_interproc_alloc(facts)
    assert len(findings) == 1 and findings[0].rule == "R009"
    assert "leaf" in findings[0].message


def _t_trace_balanced_loop():
    src = ("void f() {\n"
           "  for (int r = 0; r < 3; ++r) {\n"
           '    GCOL_TRACE_BEGIN(t, "round");\n'
           "    if (r == 2) {\n"
           '      GCOL_TRACE_END(t, "round");\n'
           "      break;\n"
           "    }\n"
           '    GCOL_TRACE_END(t, "round");\n'
           "  }\n"
           "}\n")
    fa = FileAnalysis("mem.cpp", "mem.cpp", src)
    assert check_trace_balance(fa, {"trace_scope"}) == []


def _t_trace_unbalanced_return():
    src = ("int f(int x) {\n"
           '  GCOL_TRACE_BEGIN(t, "phase");\n'
           "  if (x < 0) return -1;\n"
           '  GCOL_TRACE_END(t, "phase");\n'
           "  return 0;\n"
           "}\n")
    fa = FileAnalysis("mem.cpp", "mem.cpp", src)
    found = check_trace_balance(fa, {"trace_scope"})
    assert len(found) == 1 and found[0].rule == "R011"
    assert "return" in found[0].message


def _t_trace_if_else_mismatch():
    src = ("void f(bool b) {\n"
           "  if (b) {\n"
           '    GCOL_TRACE_BEGIN(t, "span");\n'
           "  } else {\n"
           "    (void)b;\n"
           "  }\n"
           '  GCOL_TRACE_END(t, "span");\n'
           "}\n")
    fa = FileAnalysis("mem.cpp", "mem.cpp", src)
    found = check_trace_balance(fa, {"trace_scope"})
    assert found and any("different spans" in f.message for f in found)


def _t_error_facts_classification():
    src = ("void f() { throw Error(ErrorCode::kBadGraph, \"x\"); }\n"
           "const char* to_string(ErrorCode c) {\n"
           "  switch (c) {\n"
           "    case ErrorCode::kBadGraph: return \"bad\";\n"
           "  }\n"
           "  return \"?\";\n"
           "}\n"
           "void g() { raise(ErrorCode::kLost); }\n")
    payload = analyze_text("mem.cpp", "mem.cpp", src, explicit=True)
    ef = payload["errors"]
    constructed = {c for c, _ in ef["constructed"]}
    assert constructed == {"kBadGraph", "kLost"}, constructed
    assert ef["mapped"] == ["kBadGraph"], ef["mapped"]

    class _AF:
        path, rel = "mem.cpp", "mem.cpp"
        lines = src.split("\n")

        def __init__(self, p):
            self.payload = p
    facts, _ = build_program([_AF(payload)], explicit=True)
    findings = check_error_propagation(facts)
    assert len(findings) == 1 and "kLost" in findings[0].message


def _t_clause_parsing():
    src = ("#pragma omp parallel for schedule(static, 64) default(none) \\\n"
           "    shared(g, c) firstprivate(chunk, n) reduction(+ : acc)\n"
           "for (int i = 0; i < 4; ++i) {}\n")
    from .omp import parse_clauses
    cl = parse_clauses(lex(src).directives[0])
    assert cl.default == "none"
    assert cl.shared == {"g", "c"} and cl.firstprivate == {"chunk", "n"}
    assert cl.reduction == {"acc"}, cl.reduction
    assert cl.listed() == {"g", "c", "chunk", "n", "acc"}
    assert cl.has_schedule and not cl.has_num_threads


def _t_symbol_classification():
    src = ("void k(int& total, int* out, const int* vals, int n) {\n"
           "#pragma omp parallel for schedule(static) reduction(+ : red)\n"
           "  for (int i = 0; i < n; ++i) {\n"
           "    int t = vals[i];\n"
           "    t += 1;\n"             # region-local: never a site
           "    out[i] = t;\n"         # iteration-owned subscript
           "    out[0] = t;\n"         # shared write, no justification
           "    total += t;\n"         # shared write, no justification
           "  }\n"
           "}\n")
    from .rules import sharing_model
    fa = FileAnalysis("mem.cpp", "mem.cpp", src)
    sites = {(s["var"], s["line"]): s["just"] for s in sharing_model(fa)}
    assert ("t", 5) not in sites, "region-local write must not be a site"
    assert sites[("out", 6)] == "iteration-owned-index"
    assert sites[("out", 7)] == "", "out[0] write has no justification"
    assert sites[("total", 8)] == "", "ref-param store has no justification"


def _t_effects_fixpoint_cycle():
    # a <-> b call cycle plus one blocking leaf: the fixpoint must
    # converge and both cycle members must inherit blocks-I/O.
    src = ("void a(int v);\n"
           "void b(int v) { if (v > 0) a(v - 1); fopen(\"x\", \"r\"); }\n"
           "void a(int v) { if (v > 0) b(v - 1); }\n")
    from .effects import compute_summaries
    payload = analyze_text("mem.cpp", "mem.cpp", src, explicit=True)

    class _AF:
        path, rel = "mem.cpp", "mem.cpp"
        lines = src.split("\n")

        def __init__(self, p):
            self.payload = p
    facts, _ = build_program([_AF(payload)], explicit=True)
    summ = compute_summaries(facts)
    by_name = {f.name: s for (_, f), s in summ.items()}
    assert by_name["b"].blocks_io, "direct fopen caller"
    assert by_name["a"].blocks_io, "cycle member inherits via b"
    assert not by_name["a"].calls_unknown, "a and b both resolve"


def _t_effects_unknown_widening():
    src = ("void helper(int v) { mystery_external(v); }\n"
           "void pure(int v) { (void)(v * 2); }\n")
    from .effects import compute_summaries
    payload = analyze_text("mem.cpp", "mem.cpp", src, explicit=True)

    class _AF:
        path, rel = "mem.cpp", "mem.cpp"
        lines = src.split("\n")

        def __init__(self, p):
            self.payload = p
    facts, _ = build_program([_AF(payload)], explicit=True)
    summ = compute_summaries(facts)
    by_name = {f.name: s for (_, f), s in summ.items()}
    assert by_name["helper"].calls_unknown, \
        "unresolved free-function call must widen to calls-unknown"
    assert not by_name["pure"].calls_unknown


ENGINE_TESTS = [
    ("lexer: raw string hides pragma", _t_raw_string_hides_pragma),
    ("lexer: multi-line pragma joins", _t_multiline_pragma_joins),
    ("lexer: comment continuation", _t_line_comment_continuation),
    ("lexer: digit separators", _t_digit_separator),
    ("lexer: include paths", _t_include_paths),
    ("parser: function definitions", _t_find_functions),
    ("parser: lambda stays inside", _t_lambda_stays_inside),
    ("omp: braceless nested body", _t_omp_braceless_nested),
    ("omp: nested regions", _t_omp_nested_regions),
    ("omp: data-sharing clauses", _t_clause_parsing),
    ("symbols: access classification", _t_symbol_classification),
    ("effects: cycle fixpoint", _t_effects_fixpoint_cycle),
    ("effects: unknown-callee widening", _t_effects_unknown_widening),
    ("callgraph: region reachability", _t_callgraph_reachability),
    ("r011: balanced loop", _t_trace_balanced_loop),
    ("r011: open at return", _t_trace_unbalanced_return),
    ("r011: if/else mismatch", _t_trace_if_else_mismatch),
    ("errors: construct vs map", _t_error_facts_classification),
]


def run_engine_tests() -> int:
    failures = 0
    for name, fn in ENGINE_TESTS:
        detail = ""
        try:
            fn()
            status = "ok"
        except AssertionError as exc:
            status = "FAIL"
            detail = str(exc)
            failures += 1
        print(f"  {name:<34} engine {status}")
        if detail:
            print(f"    {detail}")
    return failures


# ---------------------------------------------------------------------------
# Fixture matrix + golden identity


def _lint_fixture(root: str, path: str):
    analyzed = run_analysis(root, [path], explicit=True, cache_dir=None)
    findings = file_findings(analyzed)
    facts, _ = build_program(analyzed, explicit=True)
    findings += check_interproc_alloc(facts)
    from .effects import (check_hot_call_effects, check_shared_write_chains,
                          compute_summaries)
    from .rules import check_seam_escape
    findings += check_seam_escape(facts)
    findings += check_error_propagation(facts)
    findings += check_shared_write_chains(facts)
    findings += check_hot_call_effects(facts, compute_summaries(facts))
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def run_fixture_matrix(root: str) -> tuple[int, int]:
    fixtures = sorted(
        glob.glob(os.path.join(root, "tools", "lint_fixtures", "*.cpp")))
    if not fixtures:
        print("gcol-sa --self-test: no fixtures found", file=sys.stderr)
        return 1, 0
    failures = 0
    rendered: dict[str, list[str]] = {}
    for path in fixtures:
        name = os.path.basename(path)
        got = _lint_fixture(root, path)
        rendered[name] = [f.render(root) for f in got]
        m = re.match(r"(r\d{3})_", name)
        if m:
            expected = m.group(1).upper()
            ok = (len(got) == 1 and got[0].rule == expected)
            detail = (f"expected exactly one {expected} finding, got "
                      f"[{', '.join(f.rule for f in got) or 'none'}]")
        else:
            expected = "clean"
            ok = not got
            detail = (f"expected no findings, got "
                      f"[{', '.join(f.rule for f in got)}]")
        status = "ok" if ok else "FAIL"
        print(f"  {name:<34} {expected:<6} {status}")
        if not ok:
            failures += 1
            print(f"    {detail}")
            for line in rendered[name]:
                print(f"    {line}")

    # Golden identity: the regex lint's recorded verdicts for the
    # original corpus must be reproduced byte-for-byte.
    golden_path = os.path.join(os.path.dirname(__file__), "testdata",
                               "fixture_golden.txt")
    with open(golden_path, encoding="utf-8") as fh:
        golden = [line.rstrip("\n") for line in fh if line.strip()]
    produced = set()
    for lines in rendered.values():
        produced.update(lines)
    golden_fail = 0
    for line in golden:
        if line not in produced:
            golden_fail += 1
            print(f"  golden verdict MISSING: {line}")
    status = "ok" if golden_fail == 0 else "FAIL"
    print(f"  {'golden verdict identity (R001-R012)':<34} "
          f"{len(golden) - golden_fail}/{len(golden)} {status}")
    return failures + golden_fail, len(fixtures)


# ---------------------------------------------------------------------------
# Exit-code contract (subprocess, as CI would invoke the gate)


def run_exit_code_checks(root: str) -> int:
    pkg_dir = os.path.dirname(os.path.abspath(__file__))
    checks = []
    dirty = os.path.join(root, "tools", "lint_fixtures",
                         "r001_omp_critical.cpp")
    checks.append(("findings exit 1",
                   [sys.executable, pkg_dir, dirty], 1))
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as fh:
        fh.write("{ this is not json")
        bad_json = fh.name
    try:
        checks.append(("unparsable compile_commands exit 2",
                       [sys.executable, pkg_dir,
                        "--compile-commands", bad_json], 2))
        checks.append(("missing file exit 2",
                       [sys.executable, pkg_dir,
                        os.path.join(root, "no", "such", "file.cpp")], 2))
        failures = 0
        for name, cmd, want in checks:
            rc = subprocess.run(cmd, capture_output=True,
                                check=False).returncode
            ok = rc == want
            print(f"  {name:<34} exit-{want} {'ok' if ok else 'FAIL'}")
            if not ok:
                failures += 1
                print(f"    expected exit {want}, got {rc}")
        return failures
    finally:
        os.unlink(bad_json)


def run_self_test(root: str) -> int:
    eng_fail = run_engine_tests()
    fix_fail, nfix = run_fixture_matrix(root)
    ec_fail = run_exit_code_checks(root)
    neng = len(ENGINE_TESTS)
    print(f"gcol-sa --self-test: {neng - eng_fail}/{neng} engine checks "
          f"ok, {nfix - min(fix_fail, nfix)}/{nfix} fixtures ok, "
          f"{3 - ec_fail}/3 exit-code checks ok")
    return 0 if (eng_fail + fix_fail + ec_fail) == 0 else 1

"""The gcol-sa rule catalog: R001-R008 ported from the regex lint with
identical verdicts, plus the interprocedural rules R009-R012 the regex
scanner fundamentally cannot express.

File-scope rules run over one file's token stream / statement tree;
program rules run over the whole-program call graph built from every
translation unit's facts. Messages for R001-R008 are byte-identical to
the retired regex lint's, so the fixture verdicts do not change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .parser import skip_balanced
from .symbols import (_MACRO_ID, build_func_symbols, classify_access,
                      scan_accesses)

# ---------------------------------------------------------------------------
# Catalog


@dataclass(frozen=True)
class RuleInfo:
    id: str
    name: str
    scope: str
    rationale: str
    fixture: str


RULES: list[RuleInfo] = [
    RuleInfo("R001", "omp-critical", "every file",
             "a critical section in a kernel serializes the very phase the "
             "paper parallelizes; counters merge through `CounterSlots`",
             "r001_omp_critical.cpp"),
    RuleInfo("R002", "raw-color-access", "src/core",
             "in a parallel region the shared color array is touched only "
             "through `load_color`/`store_color`/`exchange_uncolor` "
             "(relaxed `atomic_ref`); a raw access is an unsanctioned race",
             "r002_raw_color_access.cpp"),
    RuleInfo("R003", "kernel-alloc", "src/core",
             "no allocation / `.resize` / `.reserve` / `.at()` inside an "
             "`omp for` body; heap locks serialize threads and workspaces "
             "are pre-sized by the drivers",
             "r003_kernel_alloc.cpp"),
    RuleInfo("R004", "schedule-missing", "src/core",
             "every `omp for` carries an explicit `schedule(...)`: the "
             "chunk size is part of the algorithm (the paper's `-64` "
             "variants), not an implementation default",
             "r004_schedule_missing.cpp"),
    RuleInfo("R005", "raw-atomic-ref", "src/core",
             "`std::atomic_ref` only inside the `kernels_common.hpp` "
             "accessor seam, where the audit ledgers and gcol-mc schedule "
             "points hook every access",
             "r005_raw_atomic_ref.cpp"),
    RuleInfo("R008", "raw-timing", "src/core",
             "engine timing goes through `WallTimer` or gcol-trace spans; "
             "an ad-hoc clock is invisible to the trace timeline and the "
             "run report",
             "r008_raw_chrono.cpp"),
    RuleInfo("R009", "interproc-alloc", "interprocedural, src/",
             "a function *reachable* from an OpenMP region body that "
             "allocates, throws, or calls `.at()` serializes threads on "
             "the heap lock just as surely as a direct call — the regex "
             "lint could only see the direct ones",
             "r009_interproc_alloc.cpp"),
    RuleInfo("R010", "swallowed-error", "whole program",
             "every `gcol::Error` code constructed in src/ must be "
             "reachable from the `to_string` / `is_input_error` / "
             "color_tool exit-code mapping — an unmapped code is an error "
             "kind the 4xx-vs-5xx boundary silently swallows",
             "r010_swallowed_error.cpp"),
    RuleInfo("R011", "trace-unbalanced", "src/",
             "`GCOL_TRACE_BEGIN`/`END` must pair on every control-flow "
             "path; the exporter's runtime orphan handling (PR 8) is a "
             "diagnostic, not a license to leak spans",
             "r011_trace_unbalanced.cpp"),
    RuleInfo("R012", "seam-escape", "interprocedural, src/core",
             "raw reads/writes of the shared color array in any function "
             "reachable from a parallel region — outside the "
             "`kernels_common.hpp` accessor seam — bypass the audit "
             "ledgers and gcol-mc schedule points invisibly",
             "r012_seam_escape.cpp"),
    RuleInfo("R013", "unblessed-shared-write", "interprocedural, src/",
             "every shared-state write inside (or reachable from) a "
             "parallel region must flow through a blessed seam "
             "(kernels_common accessors, CounterSlots, TraceBuffer), a "
             "`reduction` clause, an omp critical/atomic section, or an "
             "iteration-owned index — anything else is the unsanctioned "
             "race the benign-race argument does not cover",
             "r013_shared_write.cpp"),
    RuleInfo("R014", "implicit-data-sharing", "src/core",
             "`omp parallel` constructs in the engine layers carry "
             "`default(none)` or name every escaping variable in an "
             "explicit clause; implicit `default(shared)` capture is how "
             "a stack variable silently becomes a race",
             "r014_default_sharing.cpp"),
    RuleInfo("R015", "hot-call-effects", "interprocedural, src/",
             "a call from an omp-for body resolves against the callee's "
             "*effect summary* — blocking I/O or an unknown-effect callee "
             "stalls or invalidates the whole team, not just the calling "
             "thread (deepens R003/R009 from alloc-only to the effect "
             "lattice)",
             "r015_hot_blocking_call.cpp"),
    RuleInfo("R016", "ref-capture-escape", "src/",
             "a lambda inside a parallel region that captures enclosing "
             "locals by reference aliases shared state invisibly to the "
             "data-sharing clauses; capture by value or route the write "
             "through a seam",
             "r016_ref_capture.cpp"),
]

RULE_NAMES = {r.id: r.name for r in RULES}
RULE_BY_ID = {r.id: r for r in RULES}


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str
    context: str = ""   # stripped source line, for drift-stable baselining

    def render(self, root: str) -> str:
        import os
        rel = os.path.relpath(self.path, root)
        return (f"{rel}:{self.line}: error: "
                f"[{self.rule}/{RULE_NAMES[self.rule]}] {self.message}")


# Messages for the ported rules, byte-identical to the retired regex lint.
MSG = {
    "R001": "`#pragma omp critical` outside util/counters.hpp; "
            "use CounterSlots / per-thread state instead",
    "R002": "raw color-array access inside a parallel region; use "
            "load_color/store_color (relaxed atomic_ref)",
    "R003": "allocation / bounds-checked access inside a hot kernel loop; "
            "pre-size workspaces in the driver",
    "R004": "omp for without an explicit schedule(...) clause",
    "R005": "raw std::atomic_ref outside the kernels_common.hpp accessor "
            "seam; go through load_color/store_color/exchange_uncolor so "
            "audit and gcol-mc hooks see the access",
    "R008": "raw std::chrono / omp_get_wtime in an engine layer; time "
            "through WallTimer (result totals) or gcol-trace spans "
            "(src/obs) so the measurement reaches the trace timeline and "
            "the run report",
}

CONTAINER_NAMES = {"vector", "string", "map", "unordered_map", "set",
                   "unordered_set"}
# The narrow allocation set R003 has always enforced (direct sites).
R003_METHODS = {"resize", "reserve", "at"}
# The broad set R009 uses for *reachable* functions.
R009_METHODS = {"resize", "reserve", "at", "push_back", "emplace_back",
                "emplace", "assign", "insert_or_assign"}
ALLOC_FREE_FUNCS = {"malloc", "calloc", "realloc", "make_unique",
                    "make_shared"}

ATOMIC_SEAM_SUFFIX = "core/src/kernels_common.hpp"
COUNTERS_SUFFIX = "util/include/greedcolor/util/counters.hpp"
TRACE_MACROS = ("GCOL_TRACE_BEGIN", "GCOL_TRACE_END")

# The blessed benign-race seams: the only places a shared-state write in
# (or reachable from) a parallel region may live without further
# justification. This list IS the race-surface report's seam inventory;
# the race_surface ctest cross-checks it against docs/ANALYSIS.md.
SEAM_FILES = (
    ("color-accessor", "src/core/src/kernels_common.hpp"),
    ("counter-slots", "src/util/include/greedcolor/util/counters.hpp"),
    ("trace-buffer", "src/obs/include/greedcolor/obs/trace.hpp"),
    ("trace-buffer", "src/obs/src/trace.cpp"),
)


def seam_of(rel: str) -> str | None:
    rel = rel.replace("\\", "/")
    for name, suffix in SEAM_FILES:
        if rel.endswith(suffix):
            return name
    return None

KEYWORDS_NOT_CALLS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof",
    "alignof", "decltype", "new", "delete", "throw", "case", "do",
    "else", "co_await", "co_return", "co_yield", "static_assert",
    "alignas", "noexcept", "requires", "defined", "alignof", "typeid",
    "constexpr",
}


# ---------------------------------------------------------------------------
# File-scope rules (R001-R008). `fa` is an index.FileAnalysis.


def check_pragma_rules(fa, roles) -> list[Finding]:
    out = []
    allow_critical = fa.rel.replace("\\", "/").endswith(COUNTERS_SUFFIX)
    for d in fa.lexed.directives:
        if not d.is_omp():
            continue
        ids = set(d.ids()[2:])
        if "critical" in ids and not allow_critical:
            out.append(fa.finding("R001", d.line, MSG["R001"]))
        if "core" in roles and "for" in ids and "schedule" not in ids:
            out.append(fa.finding("R004", d.line, MSG["R004"]))
    return out


def check_region_rules(fa, roles) -> list[Finding]:
    """R002 (raw color access in parallel regions) and R003 (narrow
    allocation set in omp-for bodies) — token-accurate, one per line to
    match the line-oriented verdicts of the old gate."""
    if "core" not in roles:
        return []
    out = []
    toks = fa.lexed.tokens
    r002_lines, r003_lines = set(), set()
    for i, t in enumerate(toks):
        if fa.regions.parallel[i] and t.kind == "id" \
                and t.val in ("c", "colors") \
                and i + 1 < len(toks) and toks[i + 1].val == "[" \
                and t.line not in fa.atomic_ref_lines \
                and t.line not in r002_lines:
            r002_lines.add(t.line)
            out.append(fa.finding("R002", t.line, MSG["R002"]))
        if fa.regions.hot[i] and t.line not in r003_lines \
                and _is_r003_site(toks, i):
            r003_lines.add(t.line)
            out.append(fa.finding("R003", t.line, MSG["R003"]))
    return out


def _is_r003_site(toks, i) -> bool:
    t = toks[i]
    if t.kind != "id":
        return False
    nxt = toks[i + 1].val if i + 1 < len(toks) else ""
    prev = toks[i - 1].val if i > 0 else ""
    if t.val == "new":
        return True
    if t.val == "malloc" and nxt == "(":
        return True
    if t.val in R003_METHODS and prev in (".", "->") and nxt == "(":
        return True
    # std::vector<...> (and friends) instantiated in the body.
    if t.val in CONTAINER_NAMES and nxt == "<" and prev == "::" \
            and i >= 2 and toks[i - 2].val == "std":
        return True
    return False


def check_token_rules(fa, roles) -> list[Finding]:
    """R005 / R008 — identifier-level rules, one finding per line as
    before."""
    out = []
    toks = fa.lexed.tokens
    rel = fa.rel.replace("\\", "/")
    seam = rel.endswith(ATOMIC_SEAM_SUFFIX)
    seen: dict[str, set[int]] = {"R005": set(), "R008": set()}

    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        if "core" in roles and not seam and t.val == "atomic_ref" \
                and t.line not in seen["R005"]:
            seen["R005"].add(t.line)
            out.append(fa.finding("R005", t.line, MSG["R005"]))
        if "timing_guard" in roles and t.line not in seen["R008"]:
            if t.val == "omp_get_wtime" or (
                    t.val == "std" and i + 2 < len(toks)
                    and toks[i + 1].val == "::"
                    and toks[i + 2].val == "chrono"):
                seen["R008"].add(t.line)
                out.append(fa.finding("R008", t.line, MSG["R008"]))
    return out


# ---------------------------------------------------------------------------
# R011: static trace-macro balance, per control-flow path.


@dataclass
class _Flow:
    normal: dict | None          # net span delta, or None if all paths exit
    breaks: list = field(default_factory=list)
    continues: list = field(default_factory=list)


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if out[k] == 0:
            del out[k]
    return out


def _span_args(toks, i):
    """`toks[i]` is a trace macro id; return (span_name|None, next_i)."""
    if i + 1 >= len(toks) or toks[i + 1].val != "(":
        return None, i + 1
    close = skip_balanced(toks, i + 1)
    depth = 0
    args, cur = [], []
    for t in toks[i + 2:close - 1]:
        if t.val in "([{":
            depth += 1
        elif t.val in ")]}":
            depth -= 1
        if t.val == "," and depth == 0:
            args.append(cur)
            cur = []
        else:
            cur.append(t)
    args.append(cur)
    name = None
    if len(args) >= 2 and len(args[1]) == 1 and args[1][0].kind == "str":
        name = args[1][0].val.strip('"')
    elif len(args) >= 2 and args[1]:
        # A non-literal name (`V::kNames.round`) balances by spelling.
        name = "".join(t.val for t in args[1])
    return name, close


class _TraceWalker:
    def __init__(self, fa, func):
        self.fa = fa
        self.func = func
        self.findings: list[Finding] = []
        self.last_begin: dict[str, int] = {}

    def report(self, line: int, what: str, delta: dict) -> None:
        names = ", ".join(sorted(delta)) or "<span>"
        self.findings.append(self.fa.finding(
            "R011", line,
            f"GCOL_TRACE span(s) [{names}] unbalanced in "
            f"`{self.func.qual}`: {what}; every control-flow path must "
            f"close exactly what it opens (the exporter's orphan handling "
            f"is a diagnostic, not a contract)"))

    def scan_tokens(self, lo: int, hi: int, cur: dict) -> dict:
        toks = self.fa.lexed.tokens
        i = lo
        while i < hi:
            t = toks[i]
            if t.kind == "id" and t.val in TRACE_MACROS:
                name, nxt = _span_args(toks, i)
                if name is not None:
                    sign = +1 if t.val == "GCOL_TRACE_BEGIN" else -1
                    if sign > 0:
                        self.last_begin[name] = t.line
                    cur = _add(cur, {name: sign})
                i = nxt
                continue
            i += 1
        return cur

    def site(self, delta: dict) -> int:
        for name in sorted(delta):
            if name in self.last_begin:
                return self.last_begin[name]
        return self.func.line

def check_trace_balance(fa, roles) -> list[Finding]:
    if "trace_scope" not in roles:
        return []
    out: list[Finding] = []
    for func, tree in fa.func_trees():
        # Cheap pre-filter: no trace macros, no walk.
        if not any(t.kind == "id" and t.val in TRACE_MACROS
                   for t in fa.lexed.tokens[func.lbrace:func.rbrace]):
            continue
        w = _TraceWalker(fa, func)
        flow = _walk_function(w, tree)
        if flow.normal:
            w.report(w.site(flow.normal),
                     "still open at the end of the function", flow.normal)
        out.extend(w.findings)
    return out


def _walk_function(w: _TraceWalker, tree) -> _Flow:
    # `return` statements need the accumulated prefix to check "all
    # spans closed at return", so the sequence walk threads it through.
    return _walk_seq_checked(w, tree, {})


def _walk_seq_checked(w: _TraceWalker, stmts, entry: dict) -> _Flow:
    flow = _Flow(normal=dict(entry))
    for st in stmts:
        if flow.normal is None:
            break
        sub = _walk_checked(w, st, flow.normal)
        flow.breaks += sub.breaks
        flow.continues += sub.continues
        flow.normal = sub.normal
    return flow


def _walk_checked(w: _TraceWalker, st, cur: dict) -> _Flow:
    """Like _TraceWalker.walk but threading the *absolute* open-span
    state `cur` so exits can be checked in place. Returns absolute
    normals; breaks/continues carry absolute states too."""
    kind = st.kind
    if kind == "block":
        return _walk_seq_checked(w, st.children, cur)
    if kind == "simple":
        state = w.scan_tokens(st.start, st.end, dict(cur))
        sk = st.simple_kind
        if sk == "return":
            if state:
                w.report(w.site(state), "still open at a `return`", state)
            return _Flow(normal=None)
        if sk in ("throw", "goto"):
            return _Flow(normal=None)  # exempt: orphan handling's domain
        if sk == "break":
            f = _Flow(normal=None)
            f.breaks.append(state)
            return f
        if sk == "continue":
            f = _Flow(normal=None)
            f.continues.append(state)
            return f
        return _Flow(normal=state)
    if kind == "label":
        return _Flow(normal=dict(cur))
    if kind == "if":
        arms = st.children or []
        flows = [_walk_checked(w, a, cur) for a in arms]
        if len(flows) < 2:
            flows.append(_Flow(normal=dict(cur)))
        out = _Flow(normal=None)
        for f in flows:
            out.breaks += f.breaks
            out.continues += f.continues
        normals = [f.normal for f in flows if f.normal is not None]
        if len(normals) == 2 and normals[0] != normals[1]:
            diff = _add(normals[0], {k: -v for k, v in normals[1].items()})
            w.report(w.site(diff),
                     "if/else branches leave different spans open", diff)
        out.normal = normals[0] if normals else None
        return out
    if kind == "loop":
        body = _walk_seq_checked(w, st.children, cur)
        ends = body.continues + ([body.normal]
                                 if body.normal is not None else [])
        for state in ends:
            if state != cur:
                diff = _add(state, {k: -v for k, v in cur.items()})
                w.report(w.site(diff),
                         "a span crosses a loop-iteration boundary", diff)
        for state in body.breaks:
            if state != cur:
                diff = _add(state, {k: -v for k, v in cur.items()})
                w.report(w.site(diff), "a `break` path leaves spans open",
                         diff)
        return _Flow(normal=dict(cur))
    if kind == "switch":
        body = _walk_seq_checked(w, st.children, cur)
        for state in body.breaks + ([body.normal]
                                    if body.normal is not None else []):
            if state != cur:
                diff = _add(state, {k: -v for k, v in cur.items()})
                w.report(w.site(diff), "a switch path leaves spans open",
                         diff)
        out = _Flow(normal=dict(cur))
        out.continues = body.continues
        return out
    if kind == "try":
        if not st.children:
            return _Flow(normal=dict(cur))
        flow = _walk_checked(w, st.children[0], cur)
        for handler in st.children[1:]:
            h = _walk_checked(w, handler, cur)
            flow.breaks += h.breaks
            flow.continues += h.continues
            if h.normal is not None and h.normal != cur:
                diff = _add(h.normal, {k: -v for k, v in cur.items()})
                w.report(w.site(diff), "a catch handler leaves spans open",
                         diff)
        return flow
    return _Flow(normal=dict(cur))


# ---------------------------------------------------------------------------
# Data-sharing rules (R013 intraprocedural, R014, R016) over the clause
# model + symbol resolver. R013's interprocedural half and R015 live in
# effects.py, next to the effect summaries they consume.


# Classifications that mean "this write lands in memory other threads
# see" under the OpenMP data-sharing rules.
_SHARED_WRITE_CLASSES = {"param", "escaping-shared", "shared-clause",
                         "unknown", "reduction"}


def sharing_model(fa) -> list[dict]:
    """Every write site inside a parallel extent whose target is shared,
    with the justification that blesses it ("" = unjustified -> R013).
    This is the per-file slice of the race-surface report, so blessed
    sites are recorded too, not just violations."""
    toks = fa.lexed.tokens
    regions = fa.regions
    if not regions.regions:
        return []
    seam = seam_of(fa.rel)
    sites: list[dict] = []
    n = len(toks)
    for func, _tree in fa.func_trees():
        lo, hi = func.lbrace + 1, min(func.rbrace - 1, n)
        if not any(regions.parallel[i] for i in range(lo, hi)):
            continue
        syms = build_func_symbols(toks, func)
        for acc in scan_accesses(toks, lo, hi):
            if not acc.write or not regions.parallel[acc.tok]:
                continue
            chain = regions.enclosing(acc.tok)
            cls = classify_access(acc, syms, regions, chain)
            if cls not in _SHARED_WRITE_CLASSES:
                continue
            induction: set = set()
            for r in chain:
                induction |= r.induction
            just = ""
            if seam:
                just = f"seam:{seam}"
            elif cls == "reduction":
                just = "reduction-clause"
            elif regions.critical[acc.tok]:
                just = "omp-critical"
            elif regions.atomic[acc.tok]:
                just = "omp-atomic"
            elif fa.counted[acc.tok]:
                just = "counter-macro"
            elif acc.name in ("c", "colors"):
                just = "color-accessor-rule"   # R002/R012's domain
            elif acc.line in fa.atomic_ref_lines:
                just = "atomic-ref"
            elif acc.subscript_ids & induction:
                just = "iteration-owned-index"
            sites.append({"line": acc.line, "func": func.qual,
                          "var": acc.name, "cls": cls, "just": just,
                          "region_line": chain[-1].line if chain else 0})
    return sites


def check_race_rules(fa, roles, sites) -> list[Finding]:
    out: list[Finding] = []
    if "race" in roles:
        seen: set[int] = set()
        for s in sites:
            if s["just"] or s["line"] in seen:
                continue
            seen.add(s["line"])
            out.append(fa.finding(
                "R013", s["line"],
                f"write to `{s['var']}` (classified {s['cls']}) in "
                f"`{s['func']}` inside an OpenMP parallel region (pragma "
                f"at line {s['region_line']}) is not routed through a "
                f"blessed seam (kernels_common accessors / CounterSlots / "
                f"TraceBuffer), a reduction clause, an omp "
                f"critical/atomic section, or an iteration-owned index — "
                f"this is exactly the write the benign-race argument does "
                f"not cover"))
        out += _check_ref_captures(fa)
    if "sharing" in roles:
        out += _check_default_sharing(fa)
    return out


def _check_default_sharing(fa) -> list[Finding]:
    """R014: `omp parallel` constructs carry default(none) or name every
    escaping variable explicitly."""
    toks = fa.lexed.tokens
    out: list[Finding] = []
    for func, _tree in fa.func_trees():
        regs = [r for r in fa.regions.regions
                if r.kind in ("parallel", "parallel for")
                and func.lbrace <= r.start < func.rbrace]
        if not regs:
            continue
        syms = build_func_symbols(toks, func)
        for r in regs:
            if r.clauses.default == "none":
                continue
            listed = r.clauses.listed()
            unlisted: set[str] = set()
            for acc in scan_accesses(toks, r.start, r.end):
                cls = classify_access(acc, syms, fa.regions)
                if cls in ("param", "escaping-shared") \
                        and acc.name not in listed:
                    unlisted.add(acc.name)
            if r.clauses.default is None and not unlisted:
                continue   # every escaping variable has an explicit clause
            names = ", ".join(f"`{v}`" for v in sorted(unlisted)[:4])
            if len(unlisted) > 4:
                names += ", ..."
            if r.clauses.default is None:
                msg = (f"`omp {r.kind}` has no `default(none)` and leaves "
                       f"{names} implicitly shared; spell the data-sharing "
                       f"contract (default(none) plus explicit clauses) so "
                       f"the compiler and gcol-sa can check every capture")
            else:
                msg = (f"`omp {r.kind}` spells "
                       f"`default({r.clauses.default})`; engine regions "
                       f"must use default(none) so every escaping variable "
                       f"is an explicit, reviewable decision")
            out.append(fa.finding("R014", r.line, msg))
    return out


_LAMBDA_TAIL = {"(", "{", "mutable", "noexcept", "->", "constexpr"}


def _check_ref_captures(fa) -> list[Finding]:
    """R016: by-reference capture of enclosing-scope state escaping into
    a parallel-region lambda."""
    toks = fa.lexed.tokens
    n = len(toks)
    regions = fa.regions
    out: list[Finding] = []
    flagged: set[int] = set()
    for func, _tree in fa.func_trees():
        lo, hi = func.lbrace + 1, min(func.rbrace - 1, n)
        if not any(regions.parallel[i] for i in range(lo, hi)):
            continue
        syms = None
        i = lo
        while i < hi:
            t = toks[i]
            if t.val != "[" or not regions.parallel[i]:
                i += 1
                continue
            prev = toks[i - 1]
            if prev.kind in ("id", "num", "str") or prev.val in (")", "]"):
                i += 1
                continue             # subscript, not a lambda-intro
            if i + 1 < n and toks[i + 1].val == "[":
                i = skip_balanced(toks, i)
                continue             # [[attribute]]
            close = skip_balanced(toks, i)       # one past ']'
            if close >= n or toks[close].val not in _LAMBDA_TAIL:
                i += 1
                continue
            if syms is None:
                syms = build_func_symbols(toks, func)
            culprit = _lambda_escape(fa, toks, syms, i, close, n)
            if culprit and t.line not in flagged:
                flagged.add(t.line)
                out.append(fa.finding(
                    "R016", t.line,
                    f"lambda inside an OpenMP parallel region captures "
                    f"`{culprit}` by reference, aliasing state declared "
                    f"outside the region invisibly to the data-sharing "
                    f"clauses; capture by value, or route the shared "
                    f"write through a blessed seam"))
            i = close
    return out


def _lambda_escape(fa, toks, syms, intro: int, close: int, n: int):
    """Name of an escaping by-ref capture of the lambda at `intro`,
    or None if the capture list is benign."""
    from .symbols import Access

    def escapes(name: str, at: int):
        acc = Access(name=name, tok=at, line=toks[at].line,
                     write=False, chained=False, is_call=False)
        return classify_access(acc, syms, fa.regions) in (
            "param", "escaping-shared")

    default_ref = False
    k = intro + 1
    while k < close - 1:
        v = toks[k].val
        if v == "&":
            if k + 1 < close - 1 and toks[k + 1].kind == "id":
                if escapes(toks[k + 1].val, intro):
                    return toks[k + 1].val
                k += 2
            else:
                default_ref = True
                k += 1
        else:
            k += 1
    if not default_ref:
        return None
    # [&] aliases the entire enclosing frame: find the body and check
    # whether any identifier it uses lives outside the region.
    j = close
    if j < n and toks[j].val == "(":
        j = skip_balanced(toks, j)
    while j < n and toks[j].val not in ("{", ";"):
        j += 1
    if j >= n or toks[j].val != "{":
        return None
    body_end = skip_balanced(toks, j)
    for k in range(j + 1, min(body_end - 1, n)):
        t = toks[k]
        if t.kind != "id" or _MACRO_ID.fullmatch(t.val):
            continue
        p = toks[k - 1].val
        if p in (".", "->", "::"):
            continue
        if t.val in syms.params or t.val in syms.decls:
            if escapes(t.val, intro):
                return t.val
    return None


# ---------------------------------------------------------------------------
# Program rules (R009, R010, R012) over the call graph.


def _mk_finding(facts, frel, line, rule, message) -> Finding:
    ctx = ""
    lines = facts.source_lines.get(frel)
    if lines and 1 <= line <= len(lines):
        ctx = lines[line - 1].strip()
    return Finding(path=facts.abs_paths.get(frel, frel), line=line,
                   rule=rule, message=message, context=ctx)


def check_interproc_alloc(facts) -> list[Finding]:
    """R009: any function reachable (call depth >= 1) from an OpenMP
    region body that allocates, throws, or calls `.at()`."""
    out, seen = [], set()
    reached = facts.reachable_from_regions(require_parallel=False)
    for (frel, func), chain in sorted(reached.items(),
                                      key=lambda kv: (kv[0][0],
                                                      kv[0][1].line)):
        for site in func.allocs:
            key = (frel, site["line"])
            if key in seen:
                continue
            seen.add(key)
            what = site["what"]
            verb = "throws" if what == "throw" else f"calls `{what}`"
            out.append(_mk_finding(
                facts, frel, site["line"], "R009",
                f"`{func.qual}` {verb} and is reachable from an OpenMP "
                f"region body ({chain}); allocation and unwinding inside "
                f"a parallel region serialize threads on the heap lock — "
                f"hoist it to the driver or pre-size the workspace"))
            break  # one finding per reached function keeps the gate readable
    return out


def check_seam_escape(facts) -> list[Finding]:
    """R012: raw color-array accesses in functions reachable from a
    parallel region, outside the kernels_common.hpp accessor seam."""
    out, seen = [], set()
    reached = facts.reachable_from_regions(require_parallel=True)
    for (frel, func), chain in sorted(reached.items(),
                                      key=lambda kv: (kv[0][0],
                                                      kv[0][1].line)):
        if frel.replace("\\", "/").endswith(ATOMIC_SEAM_SUFFIX):
            continue  # the accessor seam IS the sanctioned implementation
        for line in func.color_sites:
            key = (frel, line)
            if key in seen:
                continue
            seen.add(key)
            out.append(_mk_finding(
                facts, frel, line, "R012",
                f"raw color-array access in `{func.qual}`, which is "
                f"reachable from a parallel region ({chain}) outside the "
                f"kernels_common.hpp accessor seam; route it through "
                f"load_color/store_color/exchange_uncolor so the audit "
                f"ledgers and gcol-mc schedule points see it"))
    return out


def check_error_propagation(facts) -> list[Finding]:
    """R010: every ErrorCode enumerator constructed in src/ must be
    reachable from the to_string / is_input_error / exit-code mapping
    layer somewhere in the program."""
    out = []
    mapped = set()
    for ef in facts.error_facts:
        mapped.update(ef["mapped"])
    reported = set()
    for ef in facts.error_facts:
        if not ef["in_scope"]:
            continue
        for code, line in ef["constructed"]:
            if code in mapped or code in reported:
                continue
            reported.add(code)
            out.append(_mk_finding(
                facts, ef["rel"], line, "R010",
                f"gcol::Error constructed with ErrorCode::{code}, but no "
                f"to_string / is_input_error / exit-code mapping anywhere "
                f"in the program handles that enumerator — the error kind "
                f"would be silently swallowed at the 4xx-vs-5xx boundary"))
    return out

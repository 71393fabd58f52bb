"""Per-file analysis: lex, parse, mark OpenMP regions, run the
file-scope rules, and extract the whole-program facts (call sites,
allocation sites, color-array sites, ErrorCode construction/mapping,
includes) that the program rules consume.

Everything a file contributes is a JSON-serializable payload keyed by
the file's content hash, which is what makes `--changed-only` and warm
repo-gate runs sub-second: an unchanged file never gets re-parsed.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import re
import sys

from . import ENGINE_VERSION
from .callgraph import FuncFact, ProgramFacts
from .lexer import lex
from .omp import mark_file
from .parser import find_functions, parse_function_body
from .rules import (ALLOC_FREE_FUNCS, Finding, KEYWORDS_NOT_CALLS,
                    R009_METHODS, check_pragma_rules, check_race_rules,
                    check_region_rules, check_token_rules,
                    check_trace_balance, sharing_model)
from .symbols import ALIASING_KINDS, param_table, scan_accesses

REPO_MARKERS = ("CMakeLists.txt", "CMakePresets.json")

ALL_ROLES = frozenset({"core", "dist_guard", "marker_guard",
                       "timing_guard", "trace_scope", "race"})

# All-caps identifiers are macro invocations by repo convention
# (GCOL_TRACE_*, GCOL_CONTRACT, TEST, EXPECT_EQ...); they are not call
# edges.
_MACRO_ID = re.compile(r"[A-Z][A-Z0-9_]*\Z")

_ERROR_MAPPERS = ("to_string", "is_input_error")

# SIMD intrinsics that touch memory through one argument: name ->
# (index of the address argument, writes?). The facts treat such a call
# as an access to that argument's base identifier, so a scatter through
# an aliasing parameter is a write site and a gather of the color array
# is a color-array site (R012), exactly as `p[i] = x` and `c[i]` are.
SIMD_MEMORY_ARGS = {
    "_mm512_loadu_si512": (0, False),
    "_mm512_mask_i32gather_epi32": (3, False),
    "_mm512_i32scatter_epi32": (0, True),
}

_CASTS = ("static_cast", "reinterpret_cast", "const_cast")


def _call_arg_base(toks, lparen: int, index: int) -> str | None:
    """Base identifier of the `index`-th top-level argument of the call
    whose `(` is at `lparen` (casts skipped), or None."""
    from .parser import skip_balanced
    close = skip_balanced(toks, lparen)
    arg = 0
    k = lparen + 1
    while k < close - 1:
        v = toks[k].val
        if v in ("(", "[", "{"):
            if arg == index:
                k += 1   # look inside a parenthesized/cast operand
                continue
            k = skip_balanced(toks, k)
            continue
        if v == ",":
            arg += 1
        elif arg == index and toks[k].kind == "id":
            if v in _CASTS and k + 1 < close and toks[k + 1].val == "<":
                depth = 0
                while k < close:   # skip the template argument list
                    if toks[k].val == "<":
                        depth += 1
                    elif toks[k].val == ">":
                        depth -= 1
                        if depth == 0:
                            break
                    k += 1
            else:
                return v
        elif arg > index:
            return None
        k += 1
    return None


class GateError(Exception):
    """The gate itself cannot do its job (exit 2, never exit 1)."""


def find_root(start: str) -> str:
    d = os.path.abspath(start)
    while True:
        if all(os.path.exists(os.path.join(d, m)) for m in REPO_MARKERS):
            return d
        parent = os.path.dirname(d)
        if parent == d:
            return os.path.abspath(start)
        d = parent


def collect_files(root: str, compile_commands: str | None) -> list[str]:
    """Same file set as the old gate: compile-database TUs (or the
    source globs) plus every header under src/, minus build/_deps."""
    files: set[str] = set()
    if compile_commands:
        try:
            with open(compile_commands, encoding="utf-8") as fh:
                for entry in json.load(fh):
                    path = entry.get("file", "")
                    if not os.path.isabs(path):
                        path = os.path.join(entry.get("directory", ""), path)
                    path = os.path.realpath(path)
                    if path.startswith(os.path.realpath(root) + os.sep):
                        files.add(path)
        except (OSError, ValueError) as exc:
            raise GateError(
                f"cannot read {compile_commands}: {exc}") from exc
    else:
        for pat in ("src/**/*.cpp", "bench/**/*.cpp", "examples/**/*.cpp",
                    "tests/**/*.cpp"):
            files.update(
                os.path.realpath(p)
                for p in glob.glob(os.path.join(root, pat), recursive=True))
    files.update(
        os.path.realpath(p)
        for p in glob.glob(os.path.join(root, "src/**/*.hpp"),
                           recursive=True))
    files = {f for f in files
             if f"{os.sep}build" not in f
             and f"{os.sep}_deps{os.sep}" not in f}
    return sorted(files)


def roles_for(rel: str, explicit: bool) -> frozenset:
    rel = rel.replace(os.sep, "/")
    if explicit:
        # R014's scope is architectural (src/core + src/dist), so the
        # fixture corpus opts in by name — keeping the pre-existing
        # R001-R012 fixtures (and their golden verdicts) byte-stable.
        roles = set(ALL_ROLES)
        if "r014" in os.path.basename(rel):
            roles.add("sharing")
        return frozenset(roles)
    roles = set()
    if rel.startswith("src/core/") or rel.startswith("src/dist/"):
        roles.add("sharing")
    if rel.startswith("src/"):
        roles.add("race")
    if rel.startswith("src/core/"):
        roles.add("core")
    if rel.startswith("src/") and not rel.startswith("src/dist/"):
        roles.add("dist_guard")
    base = os.path.basename(rel)
    if rel.startswith("src/core/") and ("bgpc" in base or "d2gc" in base):
        roles.add("marker_guard")
    if rel.startswith("src/core/") or rel.startswith("src/dist/"):
        roles.add("timing_guard")
    if rel.startswith("src/"):
        roles.add("trace_scope")
    return frozenset(roles)


# ---------------------------------------------------------------------------


class FileAnalysis:
    """One file's lexed/parsed view plus the helpers the rules use."""

    def __init__(self, path: str, rel: str, text: str):
        import time
        self.path = path
        self.rel = rel
        self.timings: dict[str, float] = {}
        self.lines = text.split("\n")
        t0 = time.perf_counter()
        self.lexed = lex(text)
        t1 = time.perf_counter()
        self.funcs = find_functions(self.lexed.tokens)
        self._trees = None
        self.atomic_ref_lines = {
            t.line for t in self.lexed.tokens
            if t.kind == "id" and t.val == "atomic_ref"}
        self.func_trees()
        t2 = time.perf_counter()
        self.regions = mark_file(self.func_trees(), self.lexed.tokens,
                                 len(self.lexed.tokens))
        # Token extents inside GCOL_COUNT(...) — the CounterSlots seam's
        # access macro; increments it wraps target per-thread slots (and
        # compile out with counters off), so the race rules bless them.
        toks = self.lexed.tokens
        self.counted = bytearray(len(toks))
        for i, t in enumerate(toks):
            if t.kind == "id" and t.val == "GCOL_COUNT" \
                    and i + 1 < len(toks) and toks[i + 1].val == "(":
                from .parser import skip_balanced
                for j in range(i + 1, skip_balanced(toks, i + 1)):
                    self.counted[j] = 1
        t3 = time.perf_counter()
        self.timings["lex"] = t1 - t0
        self.timings["parse"] = t2 - t1
        self.timings["regions"] = t3 - t2

    def func_trees(self):
        if self._trees is None:
            self._trees = [
                (f, parse_function_body(self.lexed.tokens, f,
                                        self.lexed.directives))
                for f in self.funcs]
        return self._trees

    def finding(self, rule: str, line: int, message: str) -> Finding:
        ctx = ""
        if 1 <= line <= len(self.lines):
            ctx = self.lines[line - 1].strip()
        return Finding(path=self.path, line=line, rule=rule,
                       message=message, context=ctx)


def _function_facts(fa: FileAnalysis) -> list[FuncFact]:
    toks = fa.lexed.tokens
    n = len(toks)
    out = []
    for func, _tree in fa.func_trees():
        calls, allocs, colors, simd_accesses = [], [], [], []
        for i in range(func.lbrace + 1, min(func.rbrace - 1, n)):
            t = toks[i]
            if t.kind != "id":
                continue
            nxt = toks[i + 1].val if i + 1 < n else ""
            prev = toks[i - 1].val if i > 0 else ""
            if nxt == "(" and t.val not in KEYWORDS_NOT_CALLS \
                    and not _MACRO_ID.fullmatch(t.val):
                prev_kind = toks[i - 1].kind if i > 0 else ""
                calls.append({"name": t.val, "line": t.line,
                              "parallel": bool(fa.regions.parallel[i]),
                              "hot": bool(fa.regions.hot[i]),
                              "dotted": prev in (".", "->"),
                              # `std::fill`, `steady_clock::now`, ... —
                              # a library call spelled with its home
                              # namespace is a deliberate, reviewable
                              # choice; it must not widen a summary to
                              # calls_unknown
                              "qualified": prev == "::",
                              # `Type name(args)` — a paren-init
                              # declaration, not a call edge worth
                              # widening an effect summary over
                              "decl_like": prev == ">" or (
                                  prev_kind == "id"
                                  and prev not in KEYWORDS_NOT_CALLS)})
            what = None
            if t.val == "new":
                what = "new"
            elif t.val in ALLOC_FREE_FUNCS and nxt == "(":
                what = t.val
            elif t.val in R009_METHODS and prev in (".", "->") \
                    and nxt == "(":
                what = t.val
            elif t.val == "throw":
                what = "throw"
            if what:
                allocs.append({"line": t.line, "what": what})
            if t.val in ("c", "colors") and nxt == "[" \
                    and t.line not in fa.atomic_ref_lines:
                colors.append(t.line)
            if t.val in SIMD_MEMORY_ARGS and nxt == "(":
                at, writes_mem = SIMD_MEMORY_ARGS[t.val]
                base = _call_arg_base(toks, i + 1, at)
                if base is not None:
                    simd_accesses.append((t.line, base, writes_mem))
                    if base in ("c", "colors"):
                        colors.append(t.line)
        params = param_table(toks, func)
        writes, reads_shared, seen_writes = [], False, set()
        for line, base, writes_mem in simd_accesses:
            if params.get(base) not in ALIASING_KINDS:
                continue
            if not writes_mem:
                reads_shared = True
            elif (line, base) not in seen_writes:
                seen_writes.add((line, base))
                writes.append({"line": line, "base": base, "idx": [],
                               "counted": False})
        for acc in scan_accesses(toks, func.lbrace + 1,
                                 min(func.rbrace - 1, n)):
            kind = params.get(acc.name)
            if kind not in ALIASING_KINDS:
                continue
            # A ref touches caller memory on any access; ptr/view only
            # through a deref/subscript/member chain (a direct store
            # just rebinds the thread-local copy).
            if not (kind == "ref" or acc.chained):
                continue
            if acc.write:
                key = (acc.line, acc.name)
                if key not in seen_writes:
                    seen_writes.add(key)
                    writes.append({"line": acc.line, "base": acc.name,
                                   "idx": sorted(acc.subscript_ids),
                                   "counted": bool(fa.counted[acc.tok])})
            else:
                reads_shared = True
        out.append(FuncFact(func.name, func.qual, func.line,
                            calls, allocs, colors, params=params,
                            writes=writes, reads_shared=reads_shared))
    return out


def _error_facts(fa: FileAnalysis, in_scope: bool) -> dict:
    toks = fa.lexed.tokens
    n = len(toks)
    mapper_ranges = [(f.lbrace, f.rbrace) for f in fa.funcs
                     if f.name in _ERROR_MAPPERS]
    constructed, mapped = [], set()
    for i, t in enumerate(toks):
        if t.kind != "id" or t.val != "ErrorCode":
            continue
        if i + 2 >= n or toks[i + 1].val != "::" or toks[i + 2].kind != "id":
            continue
        code = toks[i + 2].val
        line = toks[i + 2].line
        prev = toks[i - 1].val if i > 0 else ""
        nxt = toks[i + 3].val if i + 3 < n else ""
        if prev == "case" or nxt in ("==", "!=") or prev in ("==", "!=") \
                or any(lo < i < hi for lo, hi in mapper_ranges):
            mapped.add(code)
            continue
        for j in range(max(0, i - 6), i):
            if toks[j].kind == "id" and toks[j].val in ("Error", "raise") \
                    and j + 1 < n and toks[j + 1].val in ("(", "{"):
                constructed.append([code, line])
                break
        # A bare mention (default argument, using-declaration) is
        # neither constructed nor mapped.
    return {"rel": fa.rel, "in_scope": in_scope,
            "constructed": constructed, "mapped": sorted(mapped)}


def analyze_text(path: str, rel: str, text: str, explicit: bool) -> dict:
    """Full per-file analysis -> JSON-serializable payload."""
    import time
    fa = FileAnalysis(path, rel, text)
    roles = roles_for(rel, explicit)
    t0 = time.perf_counter()
    sites = sharing_model(fa)
    findings: list[Finding] = []
    findings += check_pragma_rules(fa, roles)
    findings += check_region_rules(fa, roles)
    findings += check_token_rules(fa, roles)
    findings += check_trace_balance(fa, roles)
    findings += check_race_rules(fa, roles, sites)
    t1 = time.perf_counter()
    includes = []
    for d in fa.lexed.directives:
        p = d.include_path()
        if p:
            includes.append(p)
    payload = {
        "findings": [{"line": f.line, "rule": f.rule,
                      "message": f.message, "context": f.context}
                     for f in findings],
        "functions": [f.to_dict() for f in _function_facts(fa)],
        "errors": _error_facts(fa, explicit
                               or rel.replace(os.sep, "/")
                                     .startswith("src/")),
        "includes": includes,
        "race_sites": sites,
    }
    t2 = time.perf_counter()
    fa.timings["rules"] = t1 - t0
    fa.timings["facts"] = t2 - t1
    payload["timings"] = dict(fa.timings)
    return payload


# ---------------------------------------------------------------------------
# Content-hash cache


def _cache_key(rel: str, text: str, explicit: bool) -> str:
    h = hashlib.sha256()
    h.update(ENGINE_VERSION.encode())
    h.update(b"\x00x" if explicit else b"\x00r")
    h.update(rel.encode("utf-8", "replace"))
    h.update(b"\x00")
    h.update(text.encode("utf-8", "replace"))
    return h.hexdigest()[:32]


class AnalyzedFile:
    __slots__ = ("path", "rel", "lines", "payload", "cached")

    def __init__(self, path, rel, lines, payload, cached):
        self.path = path
        self.rel = rel
        self.lines = lines
        self.payload = payload
        self.cached = cached


def _analyze_one(task) -> AnalyzedFile:
    """Worker for one file: read, cache-probe, compute, cache-store.
    Module-level so multiprocessing can pickle it."""
    root, path, explicit, cache_dir = task
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError as exc:
        raise GateError(f"cannot read {path}: {exc}") from exc
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    payload = None
    cached = False
    key = _cache_key(rel, text, explicit)
    cpath = os.path.join(cache_dir, key + ".json") if cache_dir else None
    if cpath and os.path.exists(cpath):
        try:
            with open(cpath, encoding="utf-8") as fh:
                payload = json.load(fh)
            cached = True
        except (OSError, ValueError):
            payload = None  # corrupt cache entry: recompute
    if payload is None:
        payload = analyze_text(path, rel, text, explicit)
        if cpath:
            try:
                os.makedirs(cache_dir, exist_ok=True)
                tmp = cpath + f".tmp{os.getpid()}"
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh)
                os.replace(tmp, cpath)
            except OSError:
                pass  # cache is best-effort
    return AnalyzedFile(path, rel, text.split("\n"), payload, cached)


def run_analysis(root: str, paths: list[str], explicit: bool,
                 cache_dir: str | None,
                 jobs: int = 1) -> list[AnalyzedFile]:
    tasks = [(root, path, explicit, cache_dir) for path in paths]
    if jobs > 1 and len(tasks) > 1:
        import multiprocessing
        with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
            chunk = max(1, len(tasks) // (4 * jobs))
            return pool.map(_analyze_one, tasks, chunksize=chunk)
    return [_analyze_one(t) for t in tasks]


def build_program(analyzed: list[AnalyzedFile],
                  explicit: bool) -> tuple[ProgramFacts, dict]:
    facts = ProgramFacts()
    includes: dict[str, list[str]] = {}
    for af in analyzed:
        rel = af.rel
        funcs = [FuncFact.from_dict(d) for d in af.payload["functions"]]
        in_graph = explicit or rel.startswith("src/")
        facts.add_file(rel, af.path, af.lines, funcs,
                       af.payload["errors"],
                       in_graph=in_graph,
                       r009_entry=in_graph,
                       r012_entry=explicit or rel.startswith("src/core/"))
        includes[rel] = af.payload["includes"]
    return facts, includes


def file_findings(analyzed: list[AnalyzedFile]) -> list[Finding]:
    out = []
    for af in analyzed:
        for d in af.payload["findings"]:
            out.append(Finding(path=af.path, line=d["line"],
                               rule=d["rule"], message=d["message"],
                               context=d.get("context", "")))
    return out


def changed_rels(root: str, diff_base: str | None) -> set[str]:
    """Files touched per git (working tree + optional diff base)."""
    import subprocess
    cmds = [["git", "-C", root, "diff", "--name-only", "HEAD"],
            ["git", "-C", root, "ls-files", "--others",
             "--exclude-standard"]]
    if diff_base:
        cmds.append(["git", "-C", root, "diff", "--name-only",
                     diff_base, "HEAD"])
    rels: set[str] = set()
    for cmd in cmds:
        try:
            res = subprocess.run(cmd, capture_output=True, text=True,
                                 check=False)
        except OSError as exc:
            raise GateError(f"git unavailable for --changed-only: "
                            f"{exc}") from exc
        if res.returncode != 0:
            raise GateError(f"`{' '.join(cmd)}` failed: "
                            f"{res.stderr.strip()}")
        rels.update(line.strip().replace(os.sep, "/")
                    for line in res.stdout.splitlines() if line.strip())
    return rels

"""Per-function effect summaries propagated to a fixpoint over the
name-based call graph, the program half of the race rules (R013's
interprocedural write chains, R015's hot-call effect check), and the
machine-readable race-surface report (`gcol-sa-race-v1`).

An effect summary is six bits per function:

  writes_shared      stores through an aliasing (pointer/reference/array)
                     parameter — memory the caller shares
  reads_shared       loads through an aliasing parameter
  allocates          heap traffic or unwinding (R009's fact set)
  blocks_io          a call that can block: stdio, file I/O, sleeps
  touches_color_seam raw color-array sites or calls into the accessor seam
  calls_unknown      a call that resolves to no repo definition and is on
                     no known-benign list — the summary must widen

Local bits come straight from the indexed FuncFacts; the fixpoint unions
every repo-resolved callee's bits into the caller until nothing changes,
so cycles converge and an unknown leaf widens everything that can reach
it. Over-approximation is the gate's bias, same as the call graph."""

from __future__ import annotations

from .baseline import fingerprint
from .rules import Finding, SEAM_FILES, _mk_finding, seam_of

# Calls that can block the calling thread (and with it, the whole team
# at the next barrier). Matched on non-dotted, unresolved call names.
BLOCKING_FUNCS = {
    "printf", "fprintf", "vfprintf", "puts", "fputs", "fputc", "putchar",
    "fopen", "fclose", "fread", "fwrite", "fflush", "fgets", "getline",
    "fscanf", "scanf", "getchar", "system", "popen", "sleep", "usleep",
    "nanosleep", "sleep_for", "sleep_until", "wait", "recv", "send",
    "accept", "connect", "poll", "select", "flush",
}

# Unresolved, non-dotted call names that are known effect-free (or
# thread-local) — they must not widen a summary to calls_unknown.
KNOWN_BENIGN = {
    # OpenMP runtime queries
    "omp_get_thread_num", "omp_get_num_threads", "omp_get_max_threads",
    "omp_in_parallel", "omp_get_wtime",
    # math / bit twiddling / cheap libc
    "min", "max", "abs", "labs", "fabs", "sqrt", "log", "log2", "exp",
    "pow", "floor", "ceil", "round", "popcount", "countr_zero",
    "countr_one", "countl_zero", "countl_one", "bit_ceil", "bit_width",
    "memcpy", "memset", "memmove", "memcmp", "strlen", "strcmp",
    "strncmp", "snprintf", "isdigit", "isspace", "tolower", "toupper",
    "strtol", "strtoul", "strtod", "atoi",
    # std helpers the tokenizer sees as bare ids
    "move", "forward", "swap", "get", "make_pair", "make_tuple", "tie",
    "distance", "exchange", "as_bytes", "assume_aligned", "launder",
    "to_string", "from_chars", "to_chars", "clamp", "midpoint",
    "declval", "addressof", "hash", "invoke", "apply",
    # assertion / termination (they end the program, not block it)
    "assert", "abort", "exit", "terminate", "unreachable",
}

# AVX-512 intrinsics of the distance-2 color-access seam
# (kernels_common.hpp: forbid_colors_vector / first_lower_clash_vector).
# Each compiles to one instruction — a register op, a plain vector load,
# a gather (loads of the color array), or a scatter (stores into the
# calling thread's own MarkerSet) — with no allocation, no blocking and
# no hidden callee. Listed by exact name: any other intrinsic is still
# an unknown call and still widens the summary.
SEAM_SIMD_INTRINSICS = {
    "_mm512_set1_epi32", "_mm512_setzero_si512", "_mm512_loadu_si512",
    "_mm512_mask_mov_epi32", "_mm512_cmpeq_epi32_mask",
    "_mm512_cmplt_epi32_mask", "_mm512_mask_cmpeq_epi32_mask",
    "_mm512_mask_cmpneq_epi32_mask", "_mm512_mask_cmpge_epu32_mask",
    "_mm512_mask_i32gather_epi32", "_mm512_i32scatter_epi32",
}

COLOR_SEAM_FUNCS = {"load_color", "store_color", "exchange_uncolor"}

EFFECT_BITS = ("writes_shared", "reads_shared", "allocates", "blocks_io",
               "touches_color_seam", "calls_unknown")


class EffectSummary:
    __slots__ = EFFECT_BITS + ("evidence",)

    def __init__(self):
        for bit in EFFECT_BITS:
            setattr(self, bit, False)
        self.evidence: dict[str, str] = {}   # bit -> human-readable why

    def set(self, bit: str, why: str) -> bool:
        if getattr(self, bit):
            return False
        setattr(self, bit, True)
        self.evidence.setdefault(bit, why)
        return True

    def bits(self) -> tuple:
        return tuple(bit for bit in EFFECT_BITS if getattr(self, bit))

    def to_dict(self) -> dict:
        return {"bits": list(self.bits()), "evidence": dict(self.evidence)}


def _local_summary(rel: str, func) -> EffectSummary:
    s = EffectSummary()
    if func.writes:
        w = func.writes[0]
        s.set("writes_shared",
              f"writes `{w['base']}` (aliasing parameter) at "
              f"{rel}:{w['line']}")
    if func.reads_shared:
        s.set("reads_shared", f"reads through an aliasing parameter in "
                              f"`{func.qual}`")
    if func.allocs:
        a = func.allocs[0]
        what = "throws" if a["what"] == "throw" else f"calls `{a['what']}`"
        s.set("allocates", f"{what} at {rel}:{a['line']}")
    if func.color_sites or seam_of(rel):
        s.set("touches_color_seam", f"color-array site in `{func.qual}`")
    return s


def compute_summaries(facts) -> dict:
    """{(rel, FuncFact): EffectSummary} for every function in the call
    graph, propagated to a fixpoint over repo-resolved call edges."""
    defs = facts.defs_by_name()
    summaries: dict = {}
    callers_of: dict = {}   # (rel, func) -> [(rel, func) callers]
    order: list = []
    for rel in sorted(facts.graph_rels):
        for func in facts.files.get(rel, ()):
            key = (rel, func)
            summaries[key] = _local_summary(rel, func)
            order.append(key)
    # Call-derived local bits + reverse edges for the worklist.
    for key in order:
        rel, func = key
        s = summaries[key]
        for call in func.calls:
            name = call["name"]
            targets = defs.get(name, ())
            if targets:
                if name in COLOR_SEAM_FUNCS:
                    s.set("touches_color_seam",
                          f"calls `{name}` at {rel}:{call['line']}")
                for tkey in targets:
                    if tkey != key:
                        callers_of.setdefault(tkey, []).append(key)
                continue
            if name in BLOCKING_FUNCS and not call.get("decl_like"):
                s.set("blocks_io", f"calls `{name}` at {rel}:{call['line']}")
                continue
            if call.get("dotted") or call.get("qualified"):
                continue   # method / namespace-qualified library call:
                #            a concrete, reviewable target — not widening
            if call.get("decl_like"):
                continue   # `Type name(args)` — a declaration, not a call
            if name in COLOR_SEAM_FUNCS:
                s.set("touches_color_seam",
                      f"calls `{name}` at {rel}:{call['line']}")
            elif name not in KNOWN_BENIGN \
                    and name not in SEAM_SIMD_INTRINSICS \
                    and not name.startswith("GCOL") \
                    and not name.startswith("__builtin"):
                s.set("calls_unknown",
                      f"calls `{name}` (no definition in the program, not "
                      f"on a known-benign list) at {rel}:{call['line']}")
    # Fixpoint: union callee bits into callers until stable. Cycles
    # converge because bits only ever turn on.
    work = list(order)
    while work:
        key = work.pop()
        s = summaries[key]
        for ckey in callers_of.get(key, ()):  # propagate to callers
            cs = summaries[ckey]
            changed = False
            for bit in EFFECT_BITS:
                if getattr(s, bit) and not getattr(cs, bit):
                    cs.set(bit, f"via `{key[1].name}`: "
                                f"{s.evidence.get(bit, bit)}")
                    changed = True
            if changed:
                work.append(ckey)
    return summaries


# ---------------------------------------------------------------------------
# R013 (interprocedural half): shared-write chains reachable from
# parallel regions, outside the seam files.


def _index_delegated(func, site) -> bool:
    """True for `out[v] = ...` where every subscript id is one of the
    callee's by-value parameters: the callee writes only where the call
    site tells it to, so ownership of the slot is the caller's decision
    — and the intraprocedural rule already judges each call site's
    index. Flagging here would re-litigate it one frame down."""
    idx = site.get("idx") or []
    return bool(idx) and all(
        func.params.get(name) == "value" for name in idx)


def check_shared_write_chains(facts) -> list[Finding]:
    out: list[Finding] = []
    seen: set = set()
    reached = facts.reachable_from_regions(require_parallel=True)
    for (frel, func), chain in sorted(reached.items(),
                                      key=lambda kv: (kv[0][0],
                                                      kv[0][1].line)):
        if seam_of(frel):
            continue   # seam implementations are the sanctioned writers
        for site in func.writes:
            if site["base"] in ("c", "colors"):
                continue   # R012's domain: the color-array seam escape
            if site.get("counted"):
                continue   # GCOL_COUNT(...): the CounterSlots seam macro
            if _index_delegated(func, site):
                continue   # caller-chosen index; judged at the call site
            key = (frel, site["line"])
            if key in seen:
                continue
            seen.add(key)
            out.append(_mk_finding(
                facts, frel, site["line"], "R013",
                f"`{func.qual}` writes through its aliasing parameter "
                f"`{site['base']}` and is reachable from an OpenMP "
                f"parallel region ({chain}); every thread of the team can "
                f"race on the pointed-to memory outside the blessed seams "
                f"— route the store through a seam or make the callee "
                f"operate on thread-owned state"))
            break   # one finding per reached function, like R009/R012
    return out


# ---------------------------------------------------------------------------
# R015: hot-loop call sites checked against callee effect summaries.

# Effects that disqualify a callee from an omp-for body. `allocates`
# stays R009's finding so one defect maps to one rule.
_HOT_BAD_BITS = ("blocks_io", "calls_unknown")


def check_hot_call_effects(facts, summaries) -> list[Finding]:
    defs = facts.defs_by_name()
    out: list[Finding] = []
    seen: set = set()
    for rel in sorted(facts.entry_r009):
        for func in facts.files.get(rel, ()):
            for call in func.calls:
                if not call["hot"]:
                    continue
                key = (rel, call["line"])
                if key in seen:
                    continue
                name = call["name"]
                targets = defs.get(name, ())
                if targets:
                    for tkey in targets:
                        s = summaries.get(tkey)
                        if s is None:
                            continue
                        bad = [b for b in _HOT_BAD_BITS if getattr(s, b)]
                        if not bad:
                            continue
                        why = "; ".join(s.evidence.get(b, b) for b in bad)
                        seen.add(key)
                        out.append(_mk_finding(
                            facts, rel, call["line"], "R015",
                            f"call to `{name}` from an omp-for body, but "
                            f"its effect summary is "
                            f"[{', '.join(bad)}] ({why}); a blocking or "
                            f"unknown-effect callee stalls the whole team "
                            f"at the next barrier — hoist the call out of "
                            f"the hot loop or give the callee a clean, "
                            f"analyzable body"))
                        break
                elif not call.get("dotted") and not call.get("decl_like") \
                        and name in BLOCKING_FUNCS:
                    seen.add(key)
                    out.append(_mk_finding(
                        facts, rel, call["line"], "R015",
                        f"direct call to blocking `{name}` from an omp-for "
                        f"body; I/O from a hot kernel loop serializes the "
                        f"team — buffer per thread and emit from the "
                        f"driver"))
    return out


# ---------------------------------------------------------------------------
# The race-surface report: every shared-write site and its justification.

RACE_SCHEMA = "gcol-sa-race-v1"


def build_race_surface(analyzed, facts) -> dict:
    """Machine-readable enumeration of the program's shared-write
    surface: the seam inventory, every in-region shared-write site with
    its justification, and every parallel-reachable aliasing-parameter
    write. `justification: ""` means R013 flags the site."""
    seams: list = []
    for name, path in SEAM_FILES:
        entry = next((s for s in seams if s["id"] == name), None)
        if entry is None:
            entry = {"id": name, "files": []}
            seams.append(entry)
        entry["files"].append(path)
    sites = []
    for af in analyzed:
        rel = af.rel
        for s in af.payload.get("race_sites", ()):
            ctx = ""
            if 1 <= s["line"] <= len(af.lines):
                ctx = af.lines[s["line"] - 1].strip()
            sites.append({
                "file": rel, "line": s["line"], "function": s["func"],
                "var": s["var"], "classification": s["cls"],
                "kind": "in-region write",
                "justification": s["just"],
                "fingerprint": fingerprint("R013", rel, ctx),
            })
    reached = facts.reachable_from_regions(require_parallel=True)
    for (frel, func), chain in sorted(reached.items(),
                                      key=lambda kv: (kv[0][0],
                                                      kv[0][1].line)):
        for site in func.writes:
            just = ""
            seam = seam_of(frel)
            if seam:
                just = f"seam:{seam}"
            elif site.get("counted"):
                just = "counter-macro"
            elif site["base"] in ("c", "colors"):
                just = "color-accessor-rule"
            elif _index_delegated(func, site):
                just = "index-delegated"
            lines = facts.source_lines.get(frel, [])
            ctx = ""
            if 1 <= site["line"] <= len(lines):
                ctx = lines[site["line"] - 1].strip()
            sites.append({
                "file": frel, "line": site["line"], "function": func.qual,
                "var": site["base"], "classification": "param",
                "kind": "reachable write", "chain": chain,
                "justification": just,
                "fingerprint": fingerprint("R013", frel, ctx),
            })
    sites.sort(key=lambda s: (s["file"], s["line"], s["var"]))
    by_just: dict[str, int] = {}
    for s in sites:
        label = s["justification"] or "UNJUSTIFIED"
        by_just[label] = by_just.get(label, 0) + 1
    return {
        "schema": RACE_SCHEMA,
        "seams": seams,
        "sites": sites,
        "summary": {
            "sites": len(sites),
            "justified": sum(1 for s in sites if s["justification"]),
            "flagged": sum(1 for s in sites if not s["justification"]),
            "by_justification": dict(sorted(by_just.items())),
        },
    }


def verify_race_surface(report: dict, committed_path: str,
                        analysis_md: str) -> list[str]:
    """Cross-check a freshly built report against the committed copy and
    the seam table in docs/ANALYSIS.md. Returns a list of human-readable
    mismatch descriptions (empty = in sync)."""
    import json
    import os
    problems: list[str] = []
    if not os.path.exists(committed_path):
        problems.append(f"{committed_path} does not exist — regenerate it "
                        f"with --race-surface")
        committed = None
    else:
        with open(committed_path, encoding="utf-8") as fh:
            committed = json.load(fh)
    if committed is not None:
        if committed.get("schema") != report["schema"]:
            problems.append(f"schema drift: committed "
                            f"{committed.get('schema')!r} vs "
                            f"{report['schema']!r}")
        def surface(rep):
            return {(s["file"], s["justification"], s["fingerprint"])
                    for s in rep.get("sites", ())}
        missing = surface(committed) - surface(report)
        added = surface(report) - surface(committed)
        for f, j, fp in sorted(missing):
            problems.append(f"committed site no longer produced: "
                            f"{f} [{j or 'UNJUSTIFIED'}] {fp}")
        for f, j, fp in sorted(added):
            problems.append(f"new shared-write site not in the committed "
                            f"surface: {f} [{j or 'UNJUSTIFIED'}] {fp}")
    # The docs seam table: every `| seam-id | path |` row in the
    # benign-race section must match SEAM_FILES exactly.
    doc_seams = set()
    if os.path.exists(analysis_md):
        with open(analysis_md, encoding="utf-8") as fh:
            for line in fh:
                parts = [p.strip().strip("`") for p in line.split("|")]
                if len(parts) >= 3 and parts[1] in {s[0] for s in SEAM_FILES}:
                    doc_seams.add((parts[1], parts[2]))
    else:
        problems.append(f"{analysis_md} does not exist")
    want = set(SEAM_FILES)
    for seam in sorted(want - doc_seams):
        problems.append(f"seam missing from the docs table: {seam[0]} "
                        f"{seam[1]}")
    for seam in sorted(doc_seams - want):
        problems.append(f"docs table lists an unknown seam: {seam[0]} "
                        f"{seam[1]}")
    return problems

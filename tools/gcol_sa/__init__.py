"""gcol-sa: the greedcolor interprocedural static analyzer.

Supersedes the retired regex-based gcol_lint.py with a real engine:

  lexer.py      a C++ tokenizer (comments, raw strings, char/string
                literals, line continuations, preprocessor directives)
  parser.py     function-definition indexing and a statement-tree
                sketch parser (blocks, if/else, loops, switch, try)
  omp.py        OpenMP region dataflow: parallel / omp-for extents
                through braced, braceless, and nested bodies, plus the
                data-sharing clause model (gcol-sa/race)
  symbols.py    scope/symbol resolver: parameters, local declarations,
                access classification, write-site detection
  effects.py    per-function effect summaries at fixpoint over the call
                graph; R013/R015 program rules; race-surface report
  index.py      per-file analysis over compile_commands.json TUs with
                a content-hash result cache (optionally multiprocess)
  callgraph.py  whole-program call graph + interprocedural reachability
  rules.py      the rule catalog R001-R016 (R007 retired) and the
                program-level rules
  baseline.py   checked-in suppression file with justifications
  sarif.py      SARIF 2.1.0 export
  selftest.py   engine unit tests + fixture matrix + exit-code contract
  cli.py        the command-line front end (exit 0 clean / 1 findings /
                2 broken gate)

Run it as `python3 tools/gcol_sa` (or `python3 -m gcol_sa` from tools/).
"""

# Bump to invalidate every cached per-file analysis result.
ENGINE_VERSION = "gcol-sa-5"

__version__ = "1.1.0"

#!/usr/bin/env bash
# check_all.sh — the full local verification matrix, mirroring
# .github/workflows/ci.yml:
#
#   1. default preset: build everything, run the whole test suite
#   2. lint gate: gcol-sa self-test (engine + fixtures + exit codes),
#      the `lint` build target (tier1's gate) and the repo scan over
#      compile_commands inside the wall-time budget, plus the
#      race-surface drift check
#   3. e2e smoke: the end-to-end benchmark's smoke run
#      (bench/e2e/run.py --smoke)
#   4. analysis preset: GCOL_AUDIT + -Werror (+ clang-tidy if present),
#      full suite with contracts and audit ledgers live
#   5. modelcheck preset: GCOL_MC build, gcol-mc schedule exploration
#      (exhaustive/DPOR tiny-graph corpus + fixed-seed fuzz budget)
#   6. sanitizer presets: asan / ubsan (full suite), tsan (robust label)
#
# Usage: tools/check_all.sh [--quick]   (--quick = steps 1-4 only)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

step() { printf '\n=== %s ===\n' "$*"; }

step "default: configure + build + full test suite"
cmake --preset default
cmake --build --preset default -j"$JOBS"
ctest --preset default -j"$JOBS"

step "lint gate"
python3 tools/gcol_sa --self-test
# tier1's lint step: the same engine through the `lint` build target.
cmake --build build --target lint
# Budgeted: the repo gate exits 2 if it stops being fast enough to run
# on every build (cold < 30s; warm cache runs are sub-second). The
# exit contract is tri-state — keep 1 (findings) and 2 (broken gate /
# blown budget) distinguishable instead of letting set -e flatten them.
lint_rc=0
python3 tools/gcol_sa --compile-commands build/compile_commands.json \
  --sarif build/gcol_sa.sarif --budget-seconds 30 --stats \
  --jobs "$JOBS" || lint_rc=$?
case "$lint_rc" in
  0) ;;
  1)
    echo "check_all: gcol-sa reported findings (exit 1) — fix them or" \
         "add a justified entry to tools/gcol_sa_baseline.txt" >&2
    exit 1
    ;;
  *)
    echo "check_all: the gcol-sa gate itself failed (exit $lint_rc):" \
         "either the gate is broken (bad inputs, internal error) or it" \
         "blew the --budget-seconds 30 wall-time budget — the breach" \
         "reason is printed above by gcol-sa" >&2
    exit 2
    ;;
esac
# The committed benign-race surface must match the tree (see
# docs/ANALYSIS.md); exit 2 on drift points at the regen command.
python3 tools/gcol_sa --compile-commands build/compile_commands.json \
  --verify-race-surface --jobs "$JOBS"

# perf job: binary load -> verified coloring -> report on every workload.
step "e2e smoke"
python3 bench/e2e/run.py --smoke

step "analysis: GCOL_AUDIT + -Werror, full suite"
cmake --preset analysis
cmake --build --preset analysis -j"$JOBS"
ctest --preset analysis-full -j"$JOBS"

step "modelcheck: GCOL_MC, schedule exploration"
cmake --preset modelcheck
cmake --build --preset modelcheck -j"$JOBS"
ctest --preset modelcheck -j"$JOBS" --timeout 600

if [[ "$QUICK" == "1" ]]; then
  step "quick mode: skipping sanitizers"
  exit 0
fi

for san in asan ubsan; do
  step "$san: full suite"
  cmake --preset "$san"
  cmake --build --preset "$san" -j"$JOBS"
  ctest --preset "$san" -j"$JOBS"
done

step "tsan: robust label"
cmake --preset tsan
cmake --build --preset tsan -j"$JOBS"
ctest --preset tsan -j"$JOBS"

step "all checks passed"

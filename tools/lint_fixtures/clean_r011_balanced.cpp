// Lint fixture: the R011-clean counterpart — every control-flow path
// (loop iteration, early break, fallthrough) closes exactly the span it
// opened, matching the round-loop instrumentation in src/core/src/engine.cpp.
#define GCOL_TRACE_BEGIN(tr, name) (void)0
#define GCOL_TRACE_END(tr, name) (void)0

void fixture_clean_r011(int rounds) {
  for (int r = 0; r < rounds; ++r) {
    GCOL_TRACE_BEGIN(tr, "round");
    if (r + 1 == rounds) {
      GCOL_TRACE_END(tr, "round");
      break;
    }
    GCOL_TRACE_END(tr, "round");
  }
}

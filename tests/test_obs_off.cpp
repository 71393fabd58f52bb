// The GCOL_TRACE=OFF contract, tested from inside a normal ON build:
// defining GCOL_TRACE_FORCE_OFF before including the header selects
// the same macro branch an OFF build compiles, so this TU proves the
// macros reduce to an unevaluated sizeof — no recording, no argument
// evaluation, no reference to any obs symbol from the macro expansion.
#define GCOL_TRACE_FORCE_OFF 1
#include "greedcolor/obs/trace.hpp"

#include <gtest/gtest.h>

namespace gcol::obs {
namespace {

static_assert(!kTraceEnabled,
              "GCOL_TRACE_FORCE_OFF must compile the disabled branch");

int g_evaluations = 0;

Tracer* counted_tracer(Tracer* t) {
  ++g_evaluations;
  return t;
}

[[maybe_unused]] const char* counted_name() {
  ++g_evaluations;
  return "never.recorded";
}

TEST(TraceOff, MacrosRecordNothingEvenWhenAttached) {
  Tracer tracer;  // the class itself still exists; only the macros gate
  tracer.attach(2);
  {
    GCOL_TRACE_SPAN(&tracer, "off.span", 1);
    GCOL_TRACE_BEGIN(&tracer, "off.begin", 2);
    GCOL_TRACE_EVENT(&tracer, "off.event", 3);
    GCOL_TRACE_END(&tracer, "off.begin");
  }
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

// The disabled macros must not evaluate ANY operand — the tracer
// expression sits under sizeof and the rest vanishes entirely. A call
// that sneaks an evaluation in would show up as g_evaluations != 0.
TEST(TraceOff, MacroOperandsAreNotEvaluated) {
  Tracer tracer;
  g_evaluations = 0;
  GCOL_TRACE_SPAN(counted_tracer(&tracer), counted_name(), 1);
  GCOL_TRACE_BEGIN(counted_tracer(&tracer), counted_name());
  GCOL_TRACE_END(counted_tracer(&tracer), counted_name());
  GCOL_TRACE_EVENT(counted_tracer(&tracer), counted_name());
  EXPECT_EQ(g_evaluations, 0);
  EXPECT_EQ(tracer.recorded(), 0u);
}

}  // namespace
}  // namespace gcol::obs

// Lint fixture: must trigger exactly one R013 finding. Models the
// FaultPlan stale-color fault as a real bug: an iteration writes its
// *partner's* slot in the shared color table directly instead of
// going through the accessor seam — exactly the cross-owner store a
// delayed thread's stale write amounts to. The subscript is not the
// iteration index, so ownership cannot justify it.
void fixture_r013_faultplan(int* slots, const int* stale, int n) {
#pragma omp parallel for schedule(static)
  for (int s = 0; s < n; ++s) {
    const int partner = (s + 1) % n;
    slots[partner] = stale[s];  // R013: stale write to a peer slot
  }
}

// The engine's round-hook seam. Whatever watches or perturbs the
// speculative loop from outside (fault injection, the speculative-race
// auditor, the gcol-mc model checker) is a RoundHook in
// ColoringOptions::hooks. The engine calls the hooks in list order, on
// its calling thread, between parallel regions:
//
//   begin_run(threads)                    once, before round 1
//   begin_round(round, colors)            at the top of every round
//   end_round(view, colors, next_queue)   after conflict removal
//   end_run()                             once, on every exit path
//
// end_round returns how many colors the hook overwrote; the engine sums
// it into ColoringResult::faults_injected. Every method is a no-op by
// default.
#pragma once

#include <span>
#include <vector>

#include "greedcolor/graph/net_view.hpp"
#include "greedcolor/util/types.hpp"

namespace gcol {

class RoundHook {
 public:
  virtual void begin_run(int /*threads*/) {}
  virtual void end_run() {}
  virtual void begin_round(int /*round*/, std::span<const color_t>) {}
  virtual vid_t end_round(const BipartiteView&, std::span<color_t>,
                          const std::vector<vid_t>& /*next_queue*/) {
    return 0;
  }
  virtual vid_t end_round(const ClosedView&, std::span<color_t>,
                          const std::vector<vid_t>& /*next_queue*/) {
    return 0;
  }
  virtual vid_t end_round(const Distance1View&, std::span<color_t>,
                          const std::vector<vid_t>& /*next_queue*/) {
    return 0;
  }

 protected:
  // Hooks are attached, never owned, through this interface.
  ~RoundHook() = default;
};

}  // namespace gcol

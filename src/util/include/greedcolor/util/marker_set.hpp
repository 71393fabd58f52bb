// The forbidden-color set.
//
// The paper's "Implementation details" paragraph is explicit: the
// forbidden sets F are allocated once per thread as plain arrays and are
// *never reset*; a per-use stamp distinguishes live entries. MarkerSet
// implements exactly that idiom; the kernels' distance-2 walk stamps it
// through the vectorized seam in src/core/src/kernels_common.hpp.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "greedcolor/util/types.hpp"

namespace gcol {

/// A set over a dense integer universe [0, capacity) supporting O(1)
/// insert/contains and O(1) clear (stamp bump). Not thread-safe: each
/// worker thread owns one instance for its forbidden-color bookkeeping.
///
/// The stamp array carries one extra slot in front of key 0: the sink
/// the vectorized distance-2 walk (kernels_common.hpp) scatters its
/// don't-care lanes into. Key k lives at slots()[k], the sink at
/// slots()[-1], so a kNoColor lane needs no remapping. The sink is
/// never read back.
class MarkerSet {
 public:
  MarkerSet() = default;

  explicit MarkerSet(std::size_t capacity) : marks_(capacity + 1, 0) {}

  /// Grow the universe; existing membership survives (marks keep stamps).
  void ensure_capacity(std::size_t capacity) {
    if (marks_.size() < capacity + 1) marks_.resize(capacity + 1, 0);
  }

  [[nodiscard]] std::size_t capacity() const { return marks_.size() - 1; }

  /// Empty the set in O(1) by invalidating all current stamps.
  void clear() {
    if (++stamp_ == 0) {  // stamp wrapped: lazily reset the whole array
      std::fill(marks_.begin(), marks_.end(), 0);
      stamp_ = 1;
    }
  }

  /// Insert, growing the universe if needed. The drivers pre-size every
  /// workspace from the structural color bound, so growth never fires
  /// mid-phase; it remains as a guard (geometric, not per-key) so a
  /// speculative race can never write out of bounds.
  void insert(std::int64_t key) {
    assert(key >= 0);
    if (static_cast<std::size_t>(key) >= capacity()) grow(key);
    slots()[key] = stamp_;
  }

  [[nodiscard]] bool contains(std::int64_t key) const {
    assert(key >= 0);
    if (static_cast<std::size_t>(key) >= capacity()) return false;
    return marks_[static_cast<std::size_t>(key) + 1] == stamp_;
  }

  /// Insert; returns true iff the key was already present (fused
  /// contains+insert, the duplicate test of the net-based kernels).
  bool test_and_set(std::int64_t key) {
    assert(key >= 0);
    if (static_cast<std::size_t>(key) >= capacity()) grow(key);
    std::uint32_t& mark = slots()[key];
    const bool present = mark == stamp_;
    mark = stamp_;
    return present;
  }

  /// Raw stamp slots for the vectorized walk: writing stamp() to
  /// slots()[k] for k < capacity() inserts k; slots()[-1] is the sink.
  /// Invalidated by any growth.
  [[nodiscard]] std::uint32_t* slots() { return marks_.data() + 1; }
  [[nodiscard]] std::uint32_t stamp() const { return stamp_; }

  /// Test-only hook: force the stamp near its wraparound point so the
  /// lazy-reset path in clear() is exercised without 2^32 rounds.
  void debug_set_stamp(std::uint32_t stamp) { stamp_ = stamp; }

 private:
  void grow(std::int64_t key) {
    marks_.resize(std::max(static_cast<std::size_t>(key) + 1,
                           capacity() * 2) +
                      1,
                  0);
  }

  std::vector<std::uint32_t> marks_ = std::vector<std::uint32_t>(1, 0);
  std::uint32_t stamp_ = 1;  // marks_ filled with 0 => initially empty
};

/// Thread-private scratch space for one coloring worker: its forbidden
/// set, the local vertex queue of Algorithm 8 (emptied by resetting a
/// cursor, never deallocated) and the bitmap Algorithm 4 ORs the large
/// nets' color summaries into. Cache-line aligned: the kernels bump the
/// set's stamp once per vertex or net, and the workspaces sit side by
/// side in one vector, so unaligned neighbors would share a line.
struct alignas(64) ThreadWorkspace {
  MarkerSet forbidden;
  std::vector<vid_t> local_queue;
  std::vector<std::uint64_t> summary_bits;

  void prepare(std::size_t color_capacity, std::size_t queue_capacity,
               std::size_t summary_words = 0) {
    forbidden.ensure_capacity(color_capacity);
    if (local_queue.capacity() < queue_capacity)
      local_queue.reserve(queue_capacity);
    if (summary_bits.size() < summary_words)
      summary_bits.resize(summary_words);
  }
};

}  // namespace gcol

// Forbidden-color set representations.
//
// The paper's "Implementation details" paragraph is explicit: the
// forbidden sets F are allocated once per thread as plain arrays and are
// *never reset*; a per-use stamp distinguishes live entries. MarkerSet
// implements exactly that idiom and stays selectable for the
// paper-faithful reproduction benches.
//
// BitMarkerSet is the word-parallel alternative: colors are packed 64
// per machine word and first-fit / reverse-first-fit become single-word
// bit scans (countr_one / countl_one) instead of one probe per color.
// O(1) clear() is preserved through lazy *per-word* stamps: a word whose
// stamp is stale is treated as all-free and only rewritten when next
// touched. See DESIGN.md "Word-parallel forbidden sets".
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "greedcolor/util/counters.hpp"
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

/// Word-parallel marker set: the same dense-universe set contract as
/// MarkerSet (O(1) insert/contains/clear, grow-on-demand, contains()
/// false beyond capacity) plus whole-word first-free scans, so a
/// first-fit that would probe up to 64 colors costs one countr_one.
/// Not thread-safe; one instance per worker thread.
class BitMarkerSet {
 public:
  BitMarkerSet() = default;

  explicit BitMarkerSet(std::size_t capacity) { ensure_capacity(capacity); }

  void ensure_capacity(std::size_t capacity) {
    const std::size_t words = (capacity + 63) / 64;
    if (words_.size() < words) words_.resize(words);
  }

  [[nodiscard]] std::size_t capacity() const { return words_.size() * 64; }

  /// O(1): invalidate every word's stamp. On the (rare) wraparound every
  /// slot is reset so a stale stamp can never alias the new epoch.
  void clear() {
    if (++stamp_ == 0) {
      std::fill(words_.begin(), words_.end(), Slot{});
      stamp_ = 1;
    }
  }

  void insert(std::int64_t key) {
    assert(key >= 0);
    const auto k = static_cast<std::size_t>(key);
    const std::size_t wi = k >> 6;
    if (wi >= words_.size()) grow(wi);
    Slot& s = words_[wi];
    if (s.stamp != stamp_) {
      s.stamp = stamp_;
      s.bits = 0;
    }
    s.bits |= std::uint64_t{1} << (k & 63);
  }

  [[nodiscard]] bool contains(std::int64_t key) const {
    assert(key >= 0);
    const auto k = static_cast<std::size_t>(key);
    const std::size_t wi = k >> 6;
    if (wi >= words_.size()) return false;
    const Slot& s = words_[wi];
    if (s.stamp != stamp_) return false;
    return (s.bits >> (k & 63)) & 1u;
  }

  /// Insert; returns true iff the key was already present.
  bool test_and_set(std::int64_t key) {
    assert(key >= 0);
    const auto k = static_cast<std::size_t>(key);
    const std::size_t wi = k >> 6;
    if (wi >= words_.size()) grow(wi);
    Slot& s = words_[wi];
    if (s.stamp != stamp_) {
      s.stamp = stamp_;
      s.bits = 0;
    }
    const std::uint64_t bit = std::uint64_t{1} << (k & 63);
    const bool present = (s.bits & bit) != 0;
    s.bits |= bit;
    return present;
  }

  /// Smallest key >= start not in the set (plain first-fit). Everything
  /// beyond capacity is free by definition. `probes` counts one unit per
  /// *word* examined — the bitmap analogue of MarkerSet's per-color
  /// probe, and what BENCH_kernels.json compares across modes.
  ///
  /// The body of the scan runs in aligned kScanStride-word strides: the
  /// per-word stamp select compiles to a cmov and the stride conjunction
  /// has no cross-iteration dependence, so the compiler can vectorize
  /// the dense "all words full" fast path instead of bouncing through
  /// the per-word early-exit branch.
  [[nodiscard]] color_t first_free_at_or_above(color_t start,
                                               std::uint64_t& probes) const {
    assert(start >= 0);
    const auto k = static_cast<std::size_t>(start);
    std::size_t wi = k >> 6;
    const unsigned bit = static_cast<unsigned>(k & 63);
    if (wi < words_.size()) {  // unaligned head word: mask below `bit`
      GCOL_COUNT(++probes);
      const std::uint64_t live = live_bits(words_[wi]);
      const unsigned free_at =
          bit + static_cast<unsigned>(std::countr_one(live >> bit));
      if (free_at < 64)
        return static_cast<color_t>(wi * 64 + free_at);
      ++wi;
    }
    while (wi + kScanStride <= words_.size()) {
      std::uint64_t live[kScanStride];
      if (load_stride<kScanStride>(&words_[wi], stamp_, live) ==
          ~std::uint64_t{0}) {
        GCOL_COUNT(probes += kScanStride);
        wi += kScanStride;
        continue;
      }
      for (unsigned j = 0;; ++j) {
        GCOL_COUNT(++probes);
        if (live[j] != ~std::uint64_t{0})
          return static_cast<color_t>(
              (wi + j) * 64 +
              static_cast<unsigned>(std::countr_one(live[j])));
      }
    }
    for (; wi < words_.size(); ++wi) {
      GCOL_COUNT(++probes);
      const std::uint64_t live = live_bits(words_[wi]);
      if (live != ~std::uint64_t{0})
        return static_cast<color_t>(
            wi * 64 + static_cast<unsigned>(std::countr_one(live)));
    }
    GCOL_COUNT(++probes);
    const std::size_t past_end = words_.size() * 64;
    return static_cast<color_t>(std::max(k, past_end));
  }

  /// Largest key <= start not in the set, or kNoColor when the scan
  /// passes 0 (Alg. 8's reverse first-fit as a high-bit scan).
  [[nodiscard]] color_t first_free_at_or_below(color_t start,
                                               std::uint64_t& probes) const {
    if (start < 0) {
      GCOL_COUNT(++probes);
      return kNoColor;
    }
    const auto k = static_cast<std::size_t>(start);
    std::size_t wi = k >> 6;
    if (wi >= words_.size()) {
      GCOL_COUNT(++probes);
      return start;  // beyond capacity: free
    }
    unsigned bit = static_cast<unsigned>(k & 63);
    while (true) {
      GCOL_COUNT(++probes);
      const Slot& s = words_[wi];
      const std::uint64_t live = s.stamp == stamp_ ? s.bits : 0;
      // Shift `bit` to the MSB; countl_one then counts the occupied run
      // downward from `bit` (shifted-in low bits are zero, so the count
      // never exceeds bit + 1).
      const auto ones = static_cast<unsigned>(
          std::countl_one(live << (63 - bit)));
      if (ones <= bit)
        return static_cast<color_t>(wi * 64 + bit - ones);
      if (wi == 0) return kNoColor;
      --wi;
      bit = 63;
    }
  }

  /// Test-only hook (see MarkerSet::debug_set_stamp).
  void debug_set_stamp(std::uint32_t stamp) { stamp_ = stamp; }

 private:
  // The word and its lazy-clear epoch share one slot so the hot-path
  // insert touches a single cache line, like MarkerSet's plain store; a
  // split words/stamps pair costs two random lines per insert, which
  // measurably dominates insert-bound kernels.
  struct Slot {
    std::uint64_t bits = 0;
    std::uint32_t stamp = 0;  // slot stamp 0 never matches stamp_ >= 1
  };

  // Width of the aligned scan body. Four words (256 colors) per stride
  // keeps the working set inside two cache lines of Slots while giving
  // the vectorizer a fixed-trip inner loop.
  static constexpr unsigned kScanStride = 4;

  [[nodiscard]] std::uint64_t live_bits(const Slot& s) const {
    return s.stamp == stamp_ ? s.bits : 0;
  }

  /// Load kWidth consecutive slots' live bits into `live` and return
  /// their conjunction (all-ones iff every word in the stride is full).
  template <unsigned kWidth>
  [[nodiscard]] static std::uint64_t load_stride(const Slot* slots,
                                                 std::uint32_t stamp,
                                                 std::uint64_t* live) {
    std::uint64_t all = ~std::uint64_t{0};
    for (unsigned j = 0; j < kWidth; ++j) {
      live[j] = slots[j].stamp == stamp ? slots[j].bits : 0;
      all &= live[j];
    }
    return all;
  }

  void grow(std::size_t wi) {
    words_.resize(std::max(wi + 1, words_.size() * 2));
  }

  std::vector<Slot> words_;
  std::uint32_t stamp_ = 1;
};

/// Two-level word-parallel marker set: the BitMarkerSet contract plus a
/// summary word per 64-word *block* (4096 colors) whose bit j, when its
/// block stamp is current, means word j of the block is completely
/// full. insert/contains still touch at most two cache lines (the word
/// slot, plus the block header only on a word's empty→full transition),
/// while first-fit skips a run of full words with a single countr_one
/// over the summary instead of reading 64 word slots. This is the
/// representation for huge color bounds (L in the thousands), where the
/// flat bitmap's dense-prefix scan walks hundreds of slots per pick.
class TwoLevelBitMarkerSet {
 public:
  static constexpr std::size_t kWordsPerBlock = 64;
  static constexpr std::size_t kColorsPerBlock = kWordsPerBlock * 64;

  TwoLevelBitMarkerSet() = default;

  explicit TwoLevelBitMarkerSet(std::size_t capacity) {
    ensure_capacity(capacity);
  }

  void ensure_capacity(std::size_t capacity) {
    const std::size_t words = (capacity + 63) / 64;
    if (words_.size() < words) {
      words_.resize(words);
      blocks_.resize((words_.size() + kWordsPerBlock - 1) / kWordsPerBlock);
    }
  }

  [[nodiscard]] std::size_t capacity() const { return words_.size() * 64; }

  /// O(1): invalidate every word's and block's stamp; full reset only on
  /// the rare stamp wraparound (see BitMarkerSet::clear).
  void clear() {
    if (++stamp_ == 0) {
      std::fill(words_.begin(), words_.end(), Slot{});
      std::fill(blocks_.begin(), blocks_.end(), Block{});
      stamp_ = 1;
    }
  }

  void insert(std::int64_t key) {
    assert(key >= 0);
    const auto k = static_cast<std::size_t>(key);
    const std::size_t wi = k >> 6;
    if (wi >= words_.size()) grow(wi);
    Slot& s = words_[wi];
    if (s.stamp != stamp_) {
      s.stamp = stamp_;
      s.bits = 0;
    }
    const std::uint64_t before = s.bits;
    s.bits = before | (std::uint64_t{1} << (k & 63));
    // Publish to the summary only on the empty→full transition, so a
    // stream of inserts into an already-full word stays one cache line.
    if (s.bits == ~std::uint64_t{0} && before != ~std::uint64_t{0})
      mark_full(wi);
  }

  [[nodiscard]] bool contains(std::int64_t key) const {
    assert(key >= 0);
    const auto k = static_cast<std::size_t>(key);
    const std::size_t wi = k >> 6;
    if (wi >= words_.size()) return false;
    const Slot& s = words_[wi];
    if (s.stamp != stamp_) return false;
    return (s.bits >> (k & 63)) & 1u;
  }

  /// Insert; returns true iff the key was already present.
  bool test_and_set(std::int64_t key) {
    assert(key >= 0);
    const auto k = static_cast<std::size_t>(key);
    const std::size_t wi = k >> 6;
    if (wi >= words_.size()) grow(wi);
    Slot& s = words_[wi];
    if (s.stamp != stamp_) {
      s.stamp = stamp_;
      s.bits = 0;
    }
    const std::uint64_t bit = std::uint64_t{1} << (k & 63);
    const bool present = (s.bits & bit) != 0;
    if (!present) {
      s.bits |= bit;
      if (s.bits == ~std::uint64_t{0}) mark_full(wi);
    }
    return present;
  }

  /// Smallest key >= start not in the set. A summary read that skips a
  /// run of full words counts as one probe (it costs one cache line);
  /// each word slot examined counts one probe, as in BitMarkerSet.
  [[nodiscard]] color_t first_free_at_or_above(color_t start,
                                               std::uint64_t& probes) const {
    assert(start >= 0);
    const auto k = static_cast<std::size_t>(start);
    std::size_t wi = k >> 6;
    unsigned bit = static_cast<unsigned>(k & 63);
    while (wi < words_.size()) {
      const std::size_t bi = wi >> 6;
      const unsigned wib = static_cast<unsigned>(wi & 63);
      const Block& b = blocks_[bi];
      const std::uint64_t full = b.stamp == stamp_ ? b.full : 0;
      // Known-full words [wib, wib+skip) of this block are skipped
      // without touching their cache lines.
      const auto skip =
          static_cast<unsigned>(std::countr_one(full >> wib));
      if (skip > 0) {
        GCOL_COUNT(++probes);
        wi += skip;
        bit = 0;
        if ((wi & 63) == 0) continue;  // crossed into the next block
        if (wi >= words_.size()) break;
      }
      GCOL_COUNT(++probes);
      const Slot& s = words_[wi];
      const std::uint64_t live = s.stamp == stamp_ ? s.bits : 0;
      const unsigned free_at =
          bit + static_cast<unsigned>(std::countr_one(live >> bit));
      if (free_at < 64)
        return static_cast<color_t>(wi * 64 + free_at);
      ++wi;
      bit = 0;
    }
    GCOL_COUNT(++probes);
    const std::size_t past_end = words_.size() * 64;
    return static_cast<color_t>(std::max(k, past_end));
  }

  /// Largest key <= start not in the set, or kNoColor when the scan
  /// passes 0 (reverse first-fit; the mirror of the forward scan).
  [[nodiscard]] color_t first_free_at_or_below(color_t start,
                                               std::uint64_t& probes) const {
    if (start < 0) {
      GCOL_COUNT(++probes);
      return kNoColor;
    }
    const auto k = static_cast<std::size_t>(start);
    std::size_t wi = k >> 6;
    if (wi >= words_.size()) {
      GCOL_COUNT(++probes);
      return start;  // beyond capacity: free
    }
    unsigned bit = static_cast<unsigned>(k & 63);
    while (true) {
      const std::size_t bi = wi >> 6;
      const unsigned wib = static_cast<unsigned>(wi & 63);
      const Block& b = blocks_[bi];
      const std::uint64_t full = b.stamp == stamp_ ? b.full : 0;
      // Occupied run downward from word wib of this block.
      const auto skip =
          static_cast<unsigned>(std::countl_one(full << (63 - wib)));
      if (skip > wib) {  // every word at or below wib in this block is full
        GCOL_COUNT(++probes);
        if (bi == 0) return kNoColor;
        wi = bi * kWordsPerBlock - 1;
        bit = 63;
        continue;
      }
      if (skip > 0) {
        GCOL_COUNT(++probes);
        wi -= skip;
        bit = 63;
      }
      GCOL_COUNT(++probes);
      const Slot& s = words_[wi];
      const std::uint64_t live = s.stamp == stamp_ ? s.bits : 0;
      const auto ones = static_cast<unsigned>(
          std::countl_one(live << (63 - bit)));
      if (ones <= bit)
        return static_cast<color_t>(wi * 64 + bit - ones);
      if (wi == 0) return kNoColor;
      --wi;
      bit = 63;
    }
  }

  /// Test-only hook (see MarkerSet::debug_set_stamp).
  void debug_set_stamp(std::uint32_t stamp) { stamp_ = stamp; }

 private:
  struct Slot {
    std::uint64_t bits = 0;
    std::uint32_t stamp = 0;
  };
  // Summary for one 64-word block. Bit j of `full` (under a current
  // stamp) asserts words_[block*64 + j] is all-ones in this epoch; the
  // implication only ever goes this direction, so a stale summary is
  // safe (the scan just reads the word slot it could have skipped).
  struct Block {
    std::uint64_t full = 0;
    std::uint32_t stamp = 0;
  };

  void mark_full(std::size_t wi) {
    Block& b = blocks_[wi >> 6];
    if (b.stamp != stamp_) {
      b.stamp = stamp_;
      b.full = 0;
    }
    b.full |= std::uint64_t{1} << (wi & 63);
  }

  void grow(std::size_t wi) {
    words_.resize(std::max(wi + 1, words_.size() * 2));
    blocks_.resize((words_.size() + kWordsPerBlock - 1) / kWordsPerBlock);
  }

  std::vector<Slot> words_;
  std::vector<Block> blocks_;
  std::uint32_t stamp_ = 1;
};

/// Thread-private scratch space for one coloring worker: all three
/// forbidden-set representations (the kernels pick one through the
/// ForbiddenSet policy; unused ones stay empty and cost only their
/// headers), the visited sets that deduplicate distance-2 neighbors in
/// the dedup-enabled kernels, and the local vertex queue of Algorithm 8
/// (emptied by resetting a cursor, never deallocated).
///
/// visited_bits replaces the old 4-byte-per-vertex MarkerSet dedup set:
/// at one bit per vertex (12 bytes per 64 vertices with stamps) it
/// stays L1-resident on graphs whose stamp array spilled to L2, which
/// is where the bitmap kernels were losing their random test_and_set.
struct ThreadWorkspace {
  MarkerSet forbidden;
  BitMarkerSet forbidden_bits;
  TwoLevelBitMarkerSet forbidden_two;
  BitMarkerSet visited_bits;  // vertex-id dedup set of the policy kernels
  std::vector<vid_t> local_queue;

  void prepare(std::size_t color_capacity, std::size_t queue_capacity,
               std::size_t visited_capacity = 0) {
    forbidden.ensure_capacity(color_capacity);
    forbidden_bits.ensure_capacity(color_capacity);
    forbidden_two.ensure_capacity(color_capacity);
    if (visited_capacity > 0) visited_bits.ensure_capacity(visited_capacity);
    if (local_queue.capacity() < queue_capacity)
      local_queue.reserve(queue_capacity);
  }
};

}  // namespace gcol

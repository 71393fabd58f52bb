// The structural gate both graph constructors run, and the parallel
// transpose BipartiteGraph derives its net side with.
//
// One block/cursor scheme serves both. The rows split into contiguous
// blocks; each block counts how often it names every opposite id; a
// prefix over the blocks gives each block its own cursor into every
// opposite list; and a third pass either scatters the rows into those
// lists (the build) or checks that each entry sits where its cursor
// says (the symmetric check). A fault is reported by its row: each
// block stops at its first bad row, the team keeps the smallest, and
// reject_row() names what is wrong there.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "greedcolor/robust/error.hpp"
#include "greedcolor/util/parallel.hpp"
#include "greedcolor/util/types.hpp"

namespace gcol::detail {

/// How the gate's messages name a side: "BipartiteGraph: [kind] at
/// vertex 3: net id 7 outside [0, 5)".
struct CsrNames {
  const char* who;  ///< the constructor
  const char* ptr;  ///< the ptr array
  const char* row;  ///< a row of it
  const char* id;   ///< an id in its lists
};

/// Throws Error(code) as "who: [kind] at row r: why" (no row when r < 0).
[[noreturn]] inline void reject(const CsrNames& names, ErrorCode code,
                                const char* kind, std::int64_t r,
                                const std::string& why) {
  std::string what = std::string("[") + kind + "] ";
  if (r >= 0)
    what += "at " + std::string(names.row) + " " + std::to_string(r) + ": ";
  raise(code, names.who, what + why);
}

/// `rows` and `opp_ids` are non-negative and `ptr` has rows + 1
/// entries, starts at 0, never decreases and ends at `adj_size`; throws
/// the first fault.
inline void check_ptr(const CsrNames& names, const std::vector<eid_t>& ptr,
                      vid_t rows, vid_t opp_ids, std::size_t adj_size) {
  if (rows < 0 || opp_ids < 0)
    raise(ErrorCode::kOutOfRange, names.who, "negative dimensions");
  const char* const kind = "bad-pointer-array";
  if (ptr.size() != static_cast<std::size_t>(rows) + 1)
    reject(names, ErrorCode::kBadInput, kind, -1,
           std::string(names.ptr) + " has " + std::to_string(ptr.size()) +
               " entries, expected " + std::to_string(rows + 1));
  if (ptr.front() != 0)
    reject(names, ErrorCode::kBadInput, kind, 0,
           std::string(names.ptr) + " starts at " +
               std::to_string(ptr.front()) + ", not 0");
  const auto down =
      std::adjacent_find(ptr.begin(), ptr.end(), std::greater<>{});
  if (down != ptr.end())
    reject(names, ErrorCode::kBadInput, kind, down - ptr.begin(),
           std::string(names.ptr) + " decreases from " +
               std::to_string(*down) + " to " + std::to_string(*(down + 1)));
  if (ptr.back() != static_cast<eid_t>(adj_size))
    reject(names, ErrorCode::kBadInput, kind, -1,
           std::string(names.ptr) + " ends at " + std::to_string(ptr.back()) +
               " but the adjacency holds " + std::to_string(adj_size) +
               " entries");
}

/// Throws what is wrong with row r, the first row the gate refused: the
/// first entry of its list that is out of [0, opp_ids), repeats or
/// undercuts its predecessor, or (`no_self_loops`) is r itself. A list
/// with none of these failed the symmetric check: some neighbour does
/// not list r back where the merge expected it.
[[noreturn]] inline void reject_row(const CsrNames& names,
                                    const std::vector<eid_t>& ptr,
                                    const std::vector<vid_t>& adj,
                                    std::size_t r, vid_t opp_ids,
                                    bool no_self_loops) {
  const auto row = static_cast<vid_t>(r);
  const auto lo = static_cast<std::size_t>(ptr[r]);
  const auto hi = static_cast<std::size_t>(ptr[r + 1]);
  const std::string id = names.id;
  for (std::size_t e = lo; e < hi; ++e) {
    const vid_t v = adj[e];
    if (v < 0 || v >= opp_ids)
      reject(names, ErrorCode::kOutOfRange, "index-out-of-range", row,
             id + " id " + std::to_string(v) + " outside [0, " +
                 std::to_string(opp_ids) + ")");
    if (e > lo && v == adj[e - 1])
      reject(names, ErrorCode::kBadInput, "duplicate-adjacency", row,
             "lists " + id + " " + std::to_string(v) + " twice");
    if (e > lo && v < adj[e - 1])
      reject(names, ErrorCode::kBadInput, "unsorted-adjacency", row,
             "lists " + id + " " + std::to_string(v) + " after " +
                 std::to_string(adj[e - 1]));
    if (no_self_loops && v == row)
      reject(names, ErrorCode::kBadInput, "self-loop", row, "lists itself");
  }
  for (std::size_t e = lo; e < hi; ++e) {
    const auto v = static_cast<std::size_t>(adj[e]);
    const auto back = adj.begin() + static_cast<std::ptrdiff_t>(ptr[v]);
    const auto end = adj.begin() + static_cast<std::ptrdiff_t>(ptr[v + 1]);
    if (std::find(back, end, row) == end)
      reject(names, ErrorCode::kBadInput, "asymmetric-adjacency", row,
             id + " " + std::to_string(adj[e]) + " does not list it back");
  }
  reject(names, ErrorCode::kBadInput, "asymmetric-adjacency", row,
         "its entries do not mirror the lists that name it");
}

/// Edges per block below which the rows stay one block: a smaller block
/// would not repay the fork of the team. On a 4-vCPU Xeon, 64 patterns of
/// 5k-60k edges (the small-mem workload's shapes) build in 22.6 ms at
/// this value, 26.0 ms at 8192 and 22.8 ms with a sequential transpose
/// (medians of 5); every registry graph (287k edges and up) still gets
/// four blocks.
inline constexpr std::size_t kMinEdgesPerBlock = 32768;

/// Counts row r's entries into `counts`, one per id, while its list is
/// strictly ascending with ids in [0, opp_ids); false at the first entry
/// that is not. Ids must exceed `prev`, which starts at -1: that one test
/// rejects negatives, repeats and disorder.
inline bool count_clean_list(const std::vector<eid_t>& ptr,
                             const std::vector<vid_t>& adj, std::size_t r,
                             vid_t opp_ids, eid_t* counts) {
  vid_t prev = -1;
  const auto end = static_cast<std::size_t>(ptr[r + 1]);
  for (auto e = static_cast<std::size_t>(ptr[r]); e < end; ++e) {
    const vid_t v = adj[e];
    if (v <= prev || v >= opp_ids) return false;
    ++counts[static_cast<std::size_t>(v)];
    prev = v;
  }
  return true;
}

/// The rows of one CSR side in contiguous blocks, one per thread of the
/// team at most, and one cursor per block and opposite list. Each block
/// gets at least kMinEdgesPerBlock edges, and more edges than there are
/// opposite lists, since it fills and prefix-sums its cursors: split,
/// the cursors never outgrow the adjacency. The blocks split the edges,
/// not the rows, evenly: on uk2002_s, whose rows are skewed, an even
/// row split left the transpose at 6.6 ms on four threads of the Xeon
/// above against 8.9 ms on one (4.9 ms with the edges split).
///
/// Block b's cursor into list v starts where the blocks before it leave
/// off, which is where one sequential sweep of the rows would be on
/// reaching b's first row. So each block sees what that sweep would see,
/// and the smallest bad row any block finds is the sweep's first one, at
/// every team size.
class RowBlocks {
 public:
  RowBlocks(const std::vector<eid_t>& ptr, vid_t opp_ids)
      : rows_(ptr.size() - 1),
        opp_rows_(static_cast<std::size_t>(opp_ids)),
        first_(static_cast<std::size_t>(std::clamp<std::size_t>(
                   static_cast<std::size_t>(ptr.back()) /
                       std::max(kMinEdgesPerBlock, opp_rows_),
                   1, static_cast<std::size_t>(max_threads()))) +
               1),
        // Left uninitialized: each block zeroes its own slice, so the
        // thread that sweeps a block first-touches its pages.
        cursor_(new eid_t[static_cast<std::size_t>(count()) * opp_rows_]) {
    const auto blocks = static_cast<std::size_t>(count());
    for (std::size_t b = 0; b <= blocks; ++b)
      first_[b] = static_cast<std::size_t>(
          std::lower_bound(ptr.begin(), ptr.end() - 1,
                           static_cast<eid_t>(
                               static_cast<std::size_t>(ptr.back()) * b /
                               blocks)) -
          ptr.begin());
    first_[blocks] = rows_;
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t opp_rows() const { return opp_rows_; }
  [[nodiscard]] std::int64_t count() const {
    return static_cast<std::int64_t>(first_.size()) - 1;
  }
  [[nodiscard]] std::size_t first_row(std::int64_t b) const {
    return first_[static_cast<std::size_t>(b)];
  }
  /// cursors()[b * opp_rows() + v]: block b's count of id v, then its
  /// cursor into list v.
  [[nodiscard]] eid_t* cursors() const { return cursor_.get(); }

 private:
  std::size_t rows_;
  std::size_t opp_rows_;
  std::vector<std::size_t> first_;  ///< first_[b]: block b's first row
  std::unique_ptr<eid_t[]> cursor_;
};

// The passes below are one OpenMP region each, not one region with
// barriers, so each hand-off between threads is a TeamFold edge
// ThreadSanitizer can see. A thread's get() may already hold a row
// another block folded, so only a find in its own block ends a block's
// sweep: the smaller rows of a late block must still be looked at.

/// Pass 1: every block counts how often it names each opposite id.
/// `check`: every block counts, and checks each list as it reads it
/// (count_clean_list()); returns the first bad row, or rows() when there
/// is none. Otherwise the last block, whose counts no cursor needs, is
/// skipped, ids out of range are not counted, and rows() is returned.
inline std::size_t count_ids(const RowBlocks& blocks,
                             const std::vector<eid_t>& ptr,
                             const std::vector<vid_t>& adj, vid_t opp_ids,
                             bool check) {
  eid_t* const cursors = blocks.cursors();
  const std::size_t opp_rows = blocks.opp_rows();
  const std::int64_t count = blocks.count();
  TeamFold<std::size_t> first_bad(blocks.rows());
#pragma omp parallel num_threads(count) default(none) \
    shared(blocks, ptr, adj, first_bad)                \
    firstprivate(cursors, opp_rows, opp_ids, count, check)
  {
    std::size_t bad = first_bad.get();
#pragma omp for schedule(static, 1) nowait
    for (std::int64_t b = 0; b < count; ++b) {
      eid_t* const counts = cursors + static_cast<std::size_t>(b) * opp_rows;
      std::fill(counts, counts + opp_rows, eid_t{0});
      if (!check && b + 1 == count) continue;
      const std::size_t hi = blocks.first_row(b + 1);
      if (check) {
        for (std::size_t r = blocks.first_row(b); r < hi; ++r)
          if (!count_clean_list(ptr, adj, r, opp_ids, counts)) {
            bad = std::min(bad, r);
            break;
          }
        continue;
      }
      const auto end = static_cast<std::size_t>(ptr[hi]);
      for (auto e = static_cast<std::size_t>(ptr[blocks.first_row(b)]);
           e < end; ++e) {
        const vid_t v = adj[e];
        if (v >= 0 && v < opp_ids) ++counts[static_cast<std::size_t>(v)];
      }
    }
    first_bad.fold(bad, [](std::size_t a, std::size_t b) {
      return std::min(a, b);
    });
  }
  return first_bad.get();
}

/// Pass 2: block b's cursor into list v becomes start[v] plus the counts
/// of the blocks before b. With `start` null the lists start at 0, and
/// each list's total count goes to length[v].
inline void start_cursors(const RowBlocks& blocks, const eid_t* start,
                          eid_t* length) {
  eid_t* const cursors = blocks.cursors();
  const std::size_t opp_rows = blocks.opp_rows();
  const std::int64_t count = blocks.count();
  const auto slots = static_cast<std::size_t>(count) * opp_rows;
  TeamFold<bool> done(true);
#pragma omp parallel num_threads(count) default(none) \
    shared(done) firstprivate(cursors, opp_rows, slots, start, length)
  {
    const bool ok = done.get();
#pragma omp for schedule(static) nowait
    for (std::size_t v = 0; v < opp_rows; ++v) {
      eid_t at = start == nullptr ? 0 : start[v];
      for (std::size_t i = v; i < slots; i += opp_rows) {
        const eid_t count = cursors[i];
        cursors[i] = at;
        at += count;
      }
      if (length != nullptr) length[v] = at;
    }
    done.fold(ok, std::logical_and<>{});
  }
  (void)done.get();
}

/// The transpose of the side (ptr, adj), whose ids range over
/// [0, opp_ids): opp_ptr and opp_adj get one ascending list per id.
/// Returns ptr's row count, or the first row whose list is not strictly
/// ascending in range, in which case the opposite side is left unbuilt.
/// `ptr` must have passed check_ptr().
inline std::size_t transpose_side(const std::vector<eid_t>& ptr,
                                  const std::vector<vid_t>& adj,
                                  vid_t opp_ids, std::vector<eid_t>& opp_ptr,
                                  std::vector<vid_t>& opp_adj) {
  const RowBlocks blocks(ptr, opp_ids);
  const std::size_t bad = count_ids(blocks, ptr, adj, opp_ids, true);
  if (bad < blocks.rows()) return bad;
  opp_ptr.assign(blocks.opp_rows() + 1, 0);
  start_cursors(blocks, nullptr, opp_ptr.data() + 1);
  std::partial_sum(opp_ptr.begin(), opp_ptr.end(), opp_ptr.begin());
  opp_adj.resize(adj.size());
  eid_t* const cursors = blocks.cursors();
  const std::size_t opp_rows = blocks.opp_rows();
  const std::int64_t count = blocks.count();
  // Scatter: row r goes to the cursor's slot of every list it names.
  // Block b's cursor into list v runs over [start_b(v), start_b+1(v)),
  // so the blocks write disjoint slots, as they bump disjoint cursors.
  vid_t* const out = opp_adj.data();
  TeamFold<bool> done(true);
#pragma omp parallel num_threads(count) default(none) \
    shared(blocks, ptr, adj, opp_ptr, done)            \
    firstprivate(cursors, out, opp_rows, count)
  {
    const bool ok = done.get();
#pragma omp for schedule(static, 1) nowait
    for (std::int64_t b = 0; b < count; ++b) {
      eid_t* const next = cursors + static_cast<std::size_t>(b) * opp_rows;
      for (std::size_t v = 0; v < opp_rows; ++v) next[v] += opp_ptr[v];
      const std::size_t hi = blocks.first_row(b + 1);
      for (std::size_t r = blocks.first_row(b); r < hi; ++r) {
        const auto end = static_cast<std::size_t>(ptr[r + 1]);
        for (auto e = static_cast<std::size_t>(ptr[r]); e < end; ++e)
          out[next[static_cast<std::size_t>(adj[e])]++] =
              static_cast<vid_t>(r);
      }
    }
    done.fold(ok, std::logical_and<>{});
  }
  (void)done.get();
  return blocks.rows();
}

/// Row r of a square side passes count_clean_list()'s test, does not
/// list r when `no_self_loops`, and has each entry (r, v) at the slot of
/// list v that `next[v]` holds, which it then bumps.
inline bool list_is_mirrored(const std::vector<eid_t>& ptr,
                             const std::vector<vid_t>& adj, std::size_t r,
                             eid_t* next, bool no_self_loops) {
  const auto row = static_cast<vid_t>(r);
  const auto n = static_cast<vid_t>(ptr.size() - 1);
  vid_t prev = -1;
  const auto end = static_cast<std::size_t>(ptr[r + 1]);
  for (auto e = static_cast<std::size_t>(ptr[r]); e < end; ++e) {
    const vid_t v = adj[e];
    if (v <= prev || v >= n || (no_self_loops && v == row)) return false;
    const eid_t slot = next[static_cast<std::size_t>(v)]++;
    if (slot >= ptr[static_cast<std::size_t>(v) + 1] ||
        adj[static_cast<std::size_t>(slot)] != row)
      return false;
    prev = v;
  }
  return true;
}

/// The first row of (ptr, adj) whose list is not strictly ascending with
/// ids in [0, rows), lists itself (when `no_self_loops`), or is not
/// mirrored, or the row count when there is none: then the adjacency is
/// symmetric. `ptr` must have passed check_ptr().
///
/// One merge instead of a binary search per edge: the rows are swept in
/// ascending order, so edge (r, v) must be the next unmatched entry of
/// list v, i.e. sit at v's cursor. Every edge takes its own slot inside
/// its list, and both sides hold the same edges, so every list is used
/// up exactly when the sweep finds no bad row.
inline std::size_t first_asymmetric_row(const std::vector<eid_t>& ptr,
                                        const std::vector<vid_t>& adj,
                                        bool no_self_loops) {
  const auto n = static_cast<vid_t>(ptr.size() - 1);
  const RowBlocks blocks(ptr, n);
  (void)count_ids(blocks, ptr, adj, n, false);
  start_cursors(blocks, ptr.data(), nullptr);
  eid_t* const cursors = blocks.cursors();
  const std::size_t opp_rows = blocks.opp_rows();
  const std::int64_t count = blocks.count();
  TeamFold<std::size_t> first_bad(blocks.rows());
  // Compare: each entry must sit at its cursor's slot of the list it names.
#pragma omp parallel num_threads(count) default(none) \
    shared(blocks, ptr, adj, first_bad)                \
    firstprivate(cursors, opp_rows, count, no_self_loops)
  {
    std::size_t bad = first_bad.get();
#pragma omp for schedule(static, 1) nowait
    for (std::int64_t b = 0; b < count; ++b) {
      eid_t* const next = cursors + static_cast<std::size_t>(b) * opp_rows;
      const std::size_t hi = blocks.first_row(b + 1);
      for (std::size_t r = blocks.first_row(b); r < hi; ++r) {
        if (!list_is_mirrored(ptr, adj, r, next, no_self_loops)) {
          bad = std::min(bad, r);
          break;
        }
      }
    }
    first_bad.fold(bad, [](std::size_t a, std::size_t b) {
      return std::min(a, b);
    });
  }
  return first_bad.get();
}

}  // namespace gcol::detail

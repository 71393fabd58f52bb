#include "greedcolor/graph/binary_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <vector>

#include "greedcolor/robust/error.hpp"

namespace gcol {

namespace {

constexpr char kMagicBipartite[8] = {'G', 'C', 'O', 'L', 'B', 'P', '0', '2'};
/// Format v1 stored both CSR sides; it is recognized only to be refused.
constexpr char kMagicBipartiteV1[8] = {'G', 'C', 'O', 'L', 'B', 'P', '0', '1'};
constexpr char kMagicGraph[8] = {'G', 'C', 'O', 'L', 'G', 'R', '0', '1'};

[[noreturn]] void fail(ErrorCode code, const std::string& why) {
  raise(code, "binary_io", why);
}

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void write_vec(std::ostream& out, const std::vector<T>& v) {
  const std::uint64_t n = v.size();
  write_pod(out, n);
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
}

template <typename T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) fail(ErrorCode::kTruncatedInput, "truncated stream");
  return v;
}

constexpr std::uint64_t kUnknownSize = std::numeric_limits<std::uint64_t>::max();

/// Bytes left between the read cursor and end-of-stream, or kUnknownSize
/// when the stream is not seekable. Restores the cursor.
std::uint64_t remaining_bytes(std::istream& in) {
  const auto pos = in.tellg();
  if (pos == std::istream::pos_type(-1)) return kUnknownSize;
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(pos);
  if (end == std::istream::pos_type(-1) || end < pos) return kUnknownSize;
  return static_cast<std::uint64_t>(end - pos);
}

/// Read a length-prefixed array. The declared length is validated both
/// against the structural cap AND against the bytes actually left in
/// the stream, so a corrupted header can never trigger a multi-GB
/// allocation: we allocate only after proving the data could exist. A
/// length that matches `expected`, which the data already read vouches
/// for, makes a shortfall a truncated stream rather than a bad header.
template <typename T>
std::vector<T> read_vec(std::istream& in, std::uint64_t max_len,
                        std::uint64_t expected = kUnknownSize) {
  const auto n = read_pod<std::uint64_t>(in);
  if (n > max_len)
    fail(ErrorCode::kCorruptHeader,
         "implausible array length (corrupt header?)");
  const std::uint64_t avail = remaining_bytes(in);
  if (avail != kUnknownSize && n > avail / sizeof(T))
    fail(n == expected ? ErrorCode::kTruncatedInput : ErrorCode::kCorruptHeader,
         "declared array length exceeds the bytes left in the stream");
  std::vector<T> v(static_cast<std::size_t>(n));
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  if (!in) fail(ErrorCode::kTruncatedInput, "truncated array");
  return v;
}

/// The adjacency length a ptr array ends at (kUnknownSize when empty).
std::uint64_t edges_of(const std::vector<eid_t>& ptr) {
  return ptr.empty() ? kUnknownSize : static_cast<std::uint64_t>(ptr.back());
}

void check_magic(std::istream& in, const char (&magic)[8]) {
  char got[8];
  in.read(got, 8);
  if (!in) fail(ErrorCode::kTruncatedInput, "stream shorter than the magic");
  if (&magic == &kMagicBipartite &&
      std::memcmp(got, kMagicBipartiteV1, 8) == 0)
    fail(ErrorCode::kCorruptHeader,
         "bipartite format v1 (GCOLBP01, both CSR sides) is no longer "
         "read; regenerate the file as format v2 (GCOLBP02, vertex side "
         "only)");
  if (std::memcmp(got, magic, 8) != 0)
    fail(ErrorCode::kCorruptHeader,
         "bad magic (not a greedcolor binary of the expected kind)");
}

}  // namespace

void write_binary(std::ostream& out, const BipartiteGraph& g) {
  out.write(kMagicBipartite, 8);
  write_pod(out, static_cast<std::int64_t>(g.num_vertices()));
  write_pod(out, static_cast<std::int64_t>(g.num_nets()));
  write_vec(out, g.vptr());
  write_vec(out, g.vadj());
  if (!out) fail(ErrorCode::kIoError, "write failed");
}

void write_binary(std::ostream& out, const Graph& g) {
  out.write(kMagicGraph, 8);
  write_pod(out, static_cast<std::int64_t>(g.num_vertices()));
  write_vec(out, g.ptr());
  write_vec(out, g.adj());
  if (!out) fail(ErrorCode::kIoError, "write failed");
}

BipartiteGraph read_binary_bipartite(std::istream& in) {
  check_magic(in, kMagicBipartite);
  const auto nv = read_pod<std::int64_t>(in);
  const auto nn = read_pod<std::int64_t>(in);
  if (nv < 0 || nn < 0 || nv > kMaxVertices || nn > kMaxVertices)
    fail(ErrorCode::kOutOfRange, "bad dimensions");
  // No array in the file has a length of |V_B|, yet the constructor
  // derives a net side of 8 bytes a net (and 8 more of cursors). So past
  // the first 2^20 nets a file must hold at least one byte per net it
  // declares, which keeps that side within a small multiple of the file.
  constexpr std::uint64_t kNetsWithoutBytes = 1ULL << 20;
  const std::uint64_t avail = remaining_bytes(in);
  if (avail != kUnknownSize &&
      static_cast<std::uint64_t>(nn) > std::max(avail, kNetsWithoutBytes))
    fail(ErrorCode::kCorruptHeader,
         "declared net count exceeds the bytes left in the stream");
  constexpr std::uint64_t kMaxEdges = 1ULL << 40;
  auto vptr = read_vec<eid_t>(in, static_cast<std::uint64_t>(nv) + 1);
  auto vadj = read_vec<vid_t>(in, kMaxEdges, edges_of(vptr));
  return {static_cast<vid_t>(nv), static_cast<vid_t>(nn), std::move(vptr),
          std::move(vadj)};
}

Graph read_binary_graph(std::istream& in) {
  check_magic(in, kMagicGraph);
  const auto nv = read_pod<std::int64_t>(in);
  if (nv < 0 || nv > kMaxVertices)
    fail(ErrorCode::kOutOfRange, "bad dimensions");
  constexpr std::uint64_t kMaxEdges = 1ULL << 40;
  auto ptr = read_vec<eid_t>(in, static_cast<std::uint64_t>(nv) + 1);
  auto adj = read_vec<vid_t>(in, kMaxEdges, edges_of(ptr));
  return {static_cast<vid_t>(nv), std::move(ptr), std::move(adj)};
}

std::string binary_kind(std::istream& in) {
  char got[8];
  const auto pos = in.tellg();
  in.read(got, 8);
  in.clear();
  in.seekg(pos);
  if (in.gcount() != 8) return "";
  if (std::memcmp(got, kMagicBipartite, 8) == 0) return "bipartite";
  if (std::memcmp(got, kMagicGraph, 8) == 0) return "graph";
  return "";
}

void write_binary_file(const std::string& path, const BipartiteGraph& g) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail(ErrorCode::kIoError, "cannot open " + path);
  write_binary(out, g);
}

void write_binary_file(const std::string& path, const Graph& g) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail(ErrorCode::kIoError, "cannot open " + path);
  write_binary(out, g);
}

BipartiteGraph read_binary_bipartite_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(ErrorCode::kIoError, "cannot open " + path);
  return read_binary_bipartite(in);
}

Graph read_binary_graph_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(ErrorCode::kIoError, "cannot open " + path);
  return read_binary_graph(in);
}

}  // namespace gcol

#include "greedcolor/graph/binary_io.hpp"

#include <cstring>
#include <fstream>
#include <limits>
#include <vector>

#include "greedcolor/robust/error.hpp"

namespace gcol {

namespace {

constexpr char kMagicBipartite[8] = {'G', 'C', 'O', 'L', 'B', 'P', '0', '1'};
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
/// allocation: we allocate only after proving the data could exist.
template <typename T>
std::vector<T> read_vec(std::istream& in, std::uint64_t max_len) {
  const auto n = read_pod<std::uint64_t>(in);
  if (n > max_len)
    fail(ErrorCode::kCorruptHeader,
         "implausible array length (corrupt header?)");
  const std::uint64_t avail = remaining_bytes(in);
  if (avail != kUnknownSize && n > avail / sizeof(T))
    fail(ErrorCode::kCorruptHeader,
         "declared array length exceeds the bytes left in the stream");
  std::vector<T> v(static_cast<std::size_t>(n));
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  if (!in) fail(ErrorCode::kTruncatedInput, "truncated array");
  return v;
}

/// Pre-check of one CSR half: the length and endpoint invariants the
/// graph constructors would otherwise reject with an untyped exception.
/// Monotonicity and everything else is validate()'s job.
void check_csr_half(const std::vector<eid_t>& ptr, std::size_t expected_len,
                    std::size_t adj_size) {
  if (ptr.size() != expected_len)
    fail(ErrorCode::kCorruptHeader, "ptr array length mismatch");
  if (ptr.front() != 0 || ptr.back() != static_cast<eid_t>(adj_size))
    fail(ErrorCode::kBadInput, "ptr endpoints inconsistent with adjacency");
}

void check_magic(std::istream& in, const char (&magic)[8]) {
  char got[8];
  in.read(got, 8);
  if (!in) fail(ErrorCode::kTruncatedInput, "stream shorter than the magic");
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
  write_vec(out, g.nptr());
  write_vec(out, g.nadj());
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
  constexpr std::uint64_t kMaxEdges = 1ULL << 40;
  auto vptr = read_vec<eid_t>(in, static_cast<std::uint64_t>(nv) + 1);
  auto vadj = read_vec<vid_t>(in, kMaxEdges);
  auto nptr = read_vec<eid_t>(in, static_cast<std::uint64_t>(nn) + 1);
  auto nadj = read_vec<vid_t>(in, kMaxEdges);
  check_csr_half(vptr, static_cast<std::size_t>(nv) + 1, vadj.size());
  check_csr_half(nptr, static_cast<std::size_t>(nn) + 1, nadj.size());
  if (vadj.size() != nadj.size())
    fail(ErrorCode::kBadInput, "halves disagree on |E|");
  BipartiteGraph g(static_cast<vid_t>(nv), static_cast<vid_t>(nn),
                   std::move(vptr), std::move(vadj), std::move(nptr),
                   std::move(nadj));
  if (!g.validate()) fail(ErrorCode::kBadInput, "structural validation failed");
  return g;
}

Graph read_binary_graph(std::istream& in) {
  check_magic(in, kMagicGraph);
  const auto nv = read_pod<std::int64_t>(in);
  if (nv < 0 || nv > kMaxVertices)
    fail(ErrorCode::kOutOfRange, "bad dimensions");
  constexpr std::uint64_t kMaxEdges = 1ULL << 40;
  auto ptr = read_vec<eid_t>(in, static_cast<std::uint64_t>(nv) + 1);
  auto adj = read_vec<vid_t>(in, kMaxEdges);
  check_csr_half(ptr, static_cast<std::size_t>(nv) + 1, adj.size());
  Graph g(static_cast<vid_t>(nv), std::move(ptr), std::move(adj));
  if (!g.validate()) fail(ErrorCode::kBadInput, "structural validation failed");
  return g;
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

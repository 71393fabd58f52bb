#include "greedcolor/graph/binary_io.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "greedcolor/graph/builder.hpp"
#include "greedcolor/graph/generators.hpp"
#include "greedcolor/robust/error.hpp"
#include "test_util.hpp"
#include "validate_oracle.hpp"

namespace gcol {
namespace {

TEST(BinaryIo, BipartiteRoundTrip) {
  PowerLawBipartiteParams p;
  p.rows = 80;
  p.cols = 300;
  p.min_deg = 2;
  p.max_deg = 40;
  p.seed = 9;
  const BipartiteGraph g = build_bipartite(gen_powerlaw_bipartite(p));
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buf, g);
  const BipartiteGraph back = read_binary_bipartite(buf);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.num_nets(), g.num_nets());
  EXPECT_EQ(back.vptr(), g.vptr());
  EXPECT_EQ(back.vadj(), g.vadj());
  EXPECT_EQ(back.nptr(), g.nptr());
  EXPECT_EQ(back.nadj(), g.nadj());
}

TEST(BinaryIo, GraphRoundTrip) {
  const Graph g = build_graph(gen_mesh2d(12, 9, 1));
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buf, g);
  const Graph back = read_binary_graph(buf);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.ptr(), g.ptr());
  EXPECT_EQ(back.adj(), g.adj());
}

TEST(BinaryIo, KindDetection) {
  const BipartiteGraph bg = testing::single_net(4);
  const Graph g = build_graph(testing::path_coo(4));
  std::stringstream b1(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(b1, bg);
  EXPECT_EQ(binary_kind(b1), "bipartite");
  // Peeking must not consume: a full read must still succeed.
  EXPECT_EQ(read_binary_bipartite(b1).num_vertices(), 4);

  std::stringstream b2(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(b2, g);
  EXPECT_EQ(binary_kind(b2), "graph");

  std::stringstream junk("not a greedcolor file");
  EXPECT_EQ(binary_kind(junk), "");
}

TEST(BinaryIo, RejectsWrongKind) {
  const Graph g = build_graph(testing::path_coo(4));
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buf, g);
  EXPECT_THROW(read_binary_bipartite(buf), std::runtime_error);
}

TEST(BinaryIo, RejectsTruncation) {
  const BipartiteGraph g = testing::disjoint_nets(3, 3);
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buf, g);
  const std::string full = buf.str();
  std::stringstream cut(full.substr(0, full.size() / 2),
                        std::ios::in | std::ios::binary);
  EXPECT_THROW(read_binary_bipartite(cut), std::runtime_error);
}

TEST(BinaryIo, RejectsGarbage) {
  std::stringstream junk("GARBAGEGARBAGEGARBAGE");
  EXPECT_THROW(read_binary_graph(junk), std::runtime_error);
}

/// Serialized bytes of a small valid bipartite graph.
std::string valid_bipartite_bytes() {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buf, testing::disjoint_nets(3, 3));
  return buf.str();
}

/// Overwrite sizeof(T) bytes at `offset` with `value`.
template <typename T>
std::string patched(std::string bytes, std::size_t offset, T value) {
  std::memcpy(&bytes[offset], &value, sizeof(T));
  return bytes;
}

ErrorCode code_of(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  try {
    (void)read_binary_bipartite(in);
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "tampered bytes accepted";
  return ErrorCode::kInternalInvariant;
}

// Layout: magic[8] | nv int64 | nn int64 | vptr len u64 | vptr data...
constexpr std::size_t kNvOffset = 8;
constexpr std::size_t kVptrLenOffset = 24;

TEST(BinaryIoHardening, HeaderLengthCheckedAgainstStreamSize) {
  // Declare a 2^36-element vptr: structurally plausible only if nv were
  // huge, and far beyond the bytes present. Must be rejected before any
  // allocation happens (a naive reader would try ~512 GiB here).
  const auto bytes = patched<std::uint64_t>(valid_bipartite_bytes(),
                                            kVptrLenOffset, 1ULL << 36);
  EXPECT_EQ(code_of(bytes), ErrorCode::kCorruptHeader);
}

TEST(BinaryIoHardening, LengthBeyondStreamRejectedEvenWhenPlausible) {
  // nv+1 = 5 elements would be plausible for nv=4, but the stream holds
  // the original 4 vertices' data; the byte-budget check must fire.
  auto bytes = valid_bipartite_bytes();
  bytes = patched<std::int64_t>(bytes, kNvOffset, 1LL << 30);
  bytes = patched<std::uint64_t>(bytes, kVptrLenOffset, (1ULL << 30) + 1);
  EXPECT_EQ(code_of(bytes), ErrorCode::kCorruptHeader);
}

TEST(BinaryIoHardening, NegativeDimensionsRejected) {
  const auto bytes =
      patched<std::int64_t>(valid_bipartite_bytes(), kNvOffset, -5);
  EXPECT_EQ(code_of(bytes), ErrorCode::kOutOfRange);
}

TEST(BinaryIoHardening, CorruptPtrContentsRejectedBeforeConstruction) {
  // Poison the first vptr entry (must be 0): building spans from it
  // would be undefined behavior, so the constructor's gate has to catch
  // it structurally first.
  const auto bytes = patched<eid_t>(valid_bipartite_bytes(),
                                    kVptrLenOffset + 8, eid_t{999});
  const auto code = code_of(bytes);
  EXPECT_TRUE(code == ErrorCode::kBadInput || code == ErrorCode::kCorruptHeader)
      << to_string(code);
}

TEST(BinaryIoHardening, TypedCodesForTruncationAndBadMagic) {
  const auto full = valid_bipartite_bytes();
  EXPECT_EQ(code_of(full.substr(0, 4)), ErrorCode::kTruncatedInput);
  EXPECT_EQ(code_of(full.substr(0, 20)), ErrorCode::kTruncatedInput);
  std::string wrong = full;
  wrong[0] = 'X';
  EXPECT_EQ(code_of(wrong), ErrorCode::kCorruptHeader);
}

TEST(BinaryIoHardening, EveryPrefixFailsTypedNotFatally) {
  const auto full = valid_bipartite_bytes();
  for (std::size_t len = 0; len < full.size(); len += 7) {
    std::istringstream in(full.substr(0, len), std::ios::binary);
    EXPECT_THROW((void)read_binary_bipartite(in), Error) << "len=" << len;
  }
}

/// Overwrite each entry of the adjacency array whose length prefix sits
/// at `len_offset` in turn with an out-of-range, a negative and a
/// different in-range id (ids range over [0, universe)). `read` must give
/// the verdict `oracle(adj)` gives the patched adjacency, and refuse both
/// ids out of range with a typed input error.
template <typename Read, typename Oracle>
void expect_every_adjacency_patch_typed(const std::string& bytes,
                                        std::size_t len_offset,
                                        vid_t universe, Read read,
                                        Oracle oracle) {
  std::uint64_t len = 0;
  std::memcpy(&len, &bytes[len_offset], sizeof(len));
  ASSERT_GT(len, 0u);
  std::vector<vid_t> adj(len);
  std::memcpy(adj.data(), &bytes[len_offset + sizeof(len)],
              len * sizeof(vid_t));
  for (std::size_t i = 0; i < len; ++i) {
    const std::size_t at = len_offset + sizeof(len) + i * sizeof(vid_t);
    for (const vid_t id : {universe, vid_t{-1}, (adj[i] + 1) % universe}) {
      std::vector<vid_t> want_adj = adj;
      want_adj[i] = id;
      const std::string want = oracle(want_adj);
      if (id < 0 || id >= universe) {
        EXPECT_NE(want, "ok");
      }
      EXPECT_EQ(testing::gate_verdict([&] {
                  std::istringstream in(patched<vid_t>(bytes, at, id),
                                        std::ios::binary);
                  return read(in);
                }),
                want)
          << "entry " << i << " = " << id;
    }
  }
}

// disjoint_nets(3, 3): 9 vertices, 3 nets, 9 edges. Format v2 layout:
// magic | nv | nn | vptr len + 10 x i64 | vadj len + 9 x i32.
constexpr std::size_t kVadjLenOffset = kVptrLenOffset + 8 + 10 * 8;

TEST(BinaryIoHardening, PatchedAdjacencyIsTypedBadInput) {
  const std::string bytes = valid_bipartite_bytes();
  ASSERT_EQ(bytes.size(), kVadjLenOffset + 8 + 9 * 4);
  // One net per vertex: any other in-range net is a valid graph too.
  const BipartiteGraph g = testing::disjoint_nets(3, 3);
  expect_every_adjacency_patch_typed(
      bytes, kVadjLenOffset, 3,
      [](std::istream& in) { return read_binary_bipartite(in); },
      [&](const std::vector<vid_t>& vadj) {
        return testing::oracle_bipartite_verdict(9, 3, g.vptr(), vadj);
      });
}

TEST(BinaryIoHardening, PatchedGraphAdjacencyIsTypedBadInput) {
  const Graph g = build_graph(testing::cycle_coo(6));
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buf, g);
  // Layout: magic | n | ptr len + 7 x i64 | adj len + 12 x i32.
  constexpr std::size_t kAdjLenOffset = 16 + 8 + 7 * 8;
  const std::string bytes = buf.str();
  ASSERT_EQ(bytes.size(), kAdjLenOffset + 8 + 12 * 4);
  expect_every_adjacency_patch_typed(
      bytes, kAdjLenOffset, 6,
      [](std::istream& in) { return read_binary_graph(in); },
      [&](const std::vector<vid_t>& adj) {
        // Any other neighbour breaks the symmetry (or the order).
        const std::string want = testing::oracle_graph_verdict(6, g.ptr(), adj);
        EXPECT_NE(want, "ok");
        return want;
      });
}

TEST(BinaryIoV2, StoresTheVertexSideOnly) {
  PowerLawBipartiteParams p;
  p.rows = 50;
  p.cols = 120;
  p.min_deg = 1;
  p.max_deg = 30;
  p.seed = 4;
  const BipartiteGraph g = build_bipartite(gen_powerlaw_bipartite(p));
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(buf, g);
  const std::string bytes = buf.str();
  // magic, two dimensions, vptr and vadj with their lengths: no net side.
  const auto nv = static_cast<std::size_t>(g.num_vertices());
  const auto nnz = static_cast<std::size_t>(g.num_edges());
  EXPECT_EQ(bytes.size(), 8 + 2 * 8 + 8 + 8 * (nv + 1) + 8 + 4 * nnz);
  EXPECT_EQ(bytes.substr(0, 8), "GCOLBP02");
  const BipartiteGraph back = read_binary_bipartite(buf);
  EXPECT_EQ(back.vptr(), g.vptr());
  EXPECT_EQ(back.vadj(), g.vadj());
  EXPECT_EQ(back.nptr(), g.nptr());
  EXPECT_EQ(back.nadj(), g.nadj());
}

TEST(BinaryIoV2, FormatV1IsRefusedByName) {
  // A v1 file: the same header and vertex side, then the net side.
  std::string v1 = valid_bipartite_bytes();
  v1.replace(0, 8, "GCOLBP01");
  std::istringstream in(v1, std::ios::binary);
  try {
    (void)read_binary_bipartite(in);
    FAIL() << "v1 accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptHeader);
    EXPECT_NE(std::string(e.what()).find("format v1"), std::string::npos)
        << e.what();
  }
}

TEST(BinaryIoV2, TruncationInsideVadjIsTruncatedInput) {
  const std::string full = valid_bipartite_bytes();
  // Cut inside the vadj data: vptr ends at 9 and vadj says 9, so the
  // stream, not the header, is short.
  for (const std::size_t keep : {kVadjLenOffset + 8, kVadjLenOffset + 8 + 5,
                                 full.size() - 1})
    EXPECT_EQ(code_of(full.substr(0, keep)), ErrorCode::kTruncatedInput)
        << "keep " << keep;
}

TEST(BinaryIoV2, NetCountBeyondTheFileIsCorruptHeader) {
  // Nothing on disk has |V_B| entries, so past 2^20 nets the net count
  // is held to the bytes left: 2^31 - 1 nets would be a 16 GiB net side.
  constexpr std::size_t kNnOffset = 16;
  const auto bytes = patched<std::int64_t>(valid_bipartite_bytes(),
                                           kNnOffset, kMaxVertices);
  EXPECT_EQ(code_of(bytes), ErrorCode::kCorruptHeader);
}

TEST(BinaryIoV2, OutOfRangeNetIdIsOutOfRange) {
  const std::string bytes = patched<vid_t>(
      valid_bipartite_bytes(), kVadjLenOffset + 8 + 4 * 4, vid_t{7});
  std::istringstream in(bytes, std::ios::binary);
  try {
    (void)read_binary_bipartite(in);
    FAIL() << "accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kOutOfRange);
    EXPECT_NE(std::string(e.what()).find("at vertex 4: net id 7"),
              std::string::npos)
        << e.what();
  }
}

TEST(BinaryIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "gcol_binary_test.bin";
  const BipartiteGraph g = testing::disjoint_nets(5, 4);
  write_binary_file(path, g);
  const BipartiteGraph back = read_binary_bipartite_file(path);
  EXPECT_EQ(back.num_edges(), g.num_edges());
  std::remove(path.c_str());
  EXPECT_THROW(read_binary_bipartite_file("/no/such/file.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace gcol

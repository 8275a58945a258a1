// The v2.2 paged container and its zero-copy mmap loader: round trips
// (with and without host names), heap loading of paged files, migration
// from the v1/v2 formats, solver equivalence between the mmap and heap
// load paths, and — the part the trust model rests on — the failure paths.
// Every corruption test byte-patches a real file and demands a clean
// error Status: truncation, a misaligned section table entry, a flipped
// payload byte (sample checksum), and a header that claims more data than
// the file holds must all be caught during validation, never surface as a
// SIGBUS from a later array access.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/web_graph.h"
#include "pagerank/solver.h"
#include "pipeline/graph_source.h"
#include "pipeline/pipeline.h"
#include "util/checksum.h"
#include "util/debug.h"
#include "util/random.h"
#include "util/status.h"

namespace spammass {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::WebGraph;

// v2.2 geometry constants, mirrored from graph_io.cc so the corruption
// tests can patch real files. A layout change that breaks these breaks
// the format compatibility promise, so the duplication is the point.
constexpr uint64_t kPageSize = 4096;
constexpr uint64_t kHeaderChecksumOffset = kPageSize - 8;
constexpr uint64_t kSectionTableOffset = 40;
constexpr uint64_t kSectionEntryBytes = 40;
// Bytes the bounded sample checksum covers at each end of a section.
constexpr uint64_t kSampleWindowBytes = 64 * 1024;

class GraphMmapTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  /// A graph big enough that every section exists and dangling nodes are
  /// plentiful: edges originate from the lower half only, so the upper
  /// half is dangling unless targeted by chance.
  static WebGraph SampleGraph(uint32_t n = 600, uint32_t edges = 4000,
                              bool with_names = false) {
    util::Rng rng(/*seed=*/29);
    GraphBuilder b(n);
    for (uint32_t e = 0; e < edges; ++e) {
      auto u = static_cast<NodeId>(rng.UniformIndex(n / 2));
      auto v = static_cast<NodeId>(rng.UniformIndex(n));
      if (u != v) b.AddEdge(u, v);
    }
    WebGraph g = b.Build();
    if (with_names) {
      std::vector<std::string> names(n);
      for (NodeId x = 0; x < n; ++x) {
        names[x] = "host-" + std::to_string(x) + ".example";
      }
      g.set_host_names(std::move(names));
    }
    return g;
  }

  static void ExpectSameGraph(const WebGraph& a, const WebGraph& b) {
    ASSERT_EQ(a.num_nodes(), b.num_nodes());
    ASSERT_EQ(a.num_edges(), b.num_edges());
    for (NodeId x = 0; x < a.num_nodes(); ++x) {
      auto ao = a.OutNeighbors(x);
      auto bo = b.OutNeighbors(x);
      ASSERT_TRUE(std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()))
          << "out-neighbors differ at node " << x;
      auto ai = a.InNeighbors(x);
      auto bi = b.InNeighbors(x);
      ASSERT_TRUE(std::equal(ai.begin(), ai.end(), bi.begin(), bi.end()))
          << "in-neighbors differ at node " << x;
      EXPECT_EQ(a.InvOutDegree(x), b.InvOutDegree(x)) << "node " << x;
    }
    auto ad = a.DanglingNodes();
    auto bd = b.DanglingNodes();
    EXPECT_TRUE(std::equal(ad.begin(), ad.end(), bd.begin(), bd.end()));
  }

  static std::vector<uint8_t> ReadFileBytes(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.is_open()) << path;
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                               std::istreambuf_iterator<char>());
    return bytes;
  }

  static void WriteFileBytes(const std::string& path,
                             const std::vector<uint8_t>& bytes) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(f.is_open()) << path;
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }

  /// Recomputes the header-page checksum after a deliberate header patch,
  /// so the test reaches the validation step it targets instead of
  /// tripping the header-checksum gate first.
  static void RepairHeaderChecksum(std::vector<uint8_t>* bytes) {
    util::Fnv1a64x8 hasher;
    hasher.Update(bytes->data(), kHeaderChecksumOffset);
    const uint64_t digest = hasher.digest();
    std::memcpy(bytes->data() + kHeaderChecksumOffset, &digest, 8);
  }

  /// Reads section-table entry `i`'s (offset, length) out of raw bytes.
  static std::pair<uint64_t, uint64_t> SectionGeometry(
      const std::vector<uint8_t>& bytes, uint32_t i) {
    uint64_t offset = 0, length = 0;
    const uint8_t* entry =
        bytes.data() + kSectionTableOffset + i * kSectionEntryBytes;
    std::memcpy(&offset, entry + 8, 8);
    std::memcpy(&length, entry + 16, 8);
    return {offset, length};
  }
};

TEST_F(GraphMmapTest, PagedRoundTripZeroCopy) {
  WebGraph g = SampleGraph();
  const std::string path = TempPath("paged_roundtrip.smwg");
  auto status = graph::WriteBinaryV22(g, path);
  ASSERT_TRUE(status.ok()) << status.ToString();

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().is_mapped());
  EXPECT_GT(loaded.value().mapped_bytes(), 0u);
  ExpectSameGraph(g, loaded.value());
}

TEST_F(GraphMmapTest, PagedRoundTripCarriesHostNames) {
  WebGraph g = SampleGraph(300, 1500, /*with_names=*/true);
  const std::string path = TempPath("paged_names.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameGraph(g, loaded.value());
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    EXPECT_EQ(loaded.value().HostName(x), g.HostName(x)) << "node " << x;
  }
}

TEST_F(GraphMmapTest, HeapReaderLoadsPagedFiles) {
  // ReadBinary accepts v2.2 too (full validation, arrays copied out), so
  // a paged file is still consumable where mmap is unwanted.
  WebGraph g = SampleGraph();
  const std::string path = TempPath("paged_heap.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());

  auto loaded = graph::ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded.value().is_mapped());
  EXPECT_EQ(loaded.value().mapped_bytes(), 0u);
  ExpectSameGraph(g, loaded.value());
}

TEST_F(GraphMmapTest, MigratesV2FilesToPaged) {
  // The documented migration path: heap-load the old container, rewrite
  // paged, mmap the result.
  WebGraph g = SampleGraph(250, 1200, /*with_names=*/true);
  const std::string v2_path = TempPath("migrate_src.smwg");
  const std::string v22_path = TempPath("migrate_dst.smwg");
  ASSERT_TRUE(graph::WriteBinary(g, v2_path).ok());

  auto v2 = graph::ReadBinary(v2_path);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  ASSERT_TRUE(graph::WriteBinaryV22(v2.value(), v22_path).ok());

  auto mapped = graph::ReadBinaryMmap(v22_path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectSameGraph(g, mapped.value());
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    EXPECT_EQ(mapped.value().HostName(x), g.HostName(x));
  }
}

TEST_F(GraphMmapTest, MigratesV1FilesToPaged) {
  WebGraph g = SampleGraph(120, 500);
  const std::string v1_path = TempPath("migrate_v1.smwg");
  const std::string v22_path = TempPath("migrate_v1_dst.smwg");
  ASSERT_TRUE(graph::WriteBinaryV1(g, v1_path).ok());

  auto v1 = graph::ReadBinary(v1_path);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  ASSERT_TRUE(graph::WriteBinaryV22(v1.value(), v22_path).ok());

  auto mapped = graph::ReadBinaryMmap(v22_path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectSameGraph(g, mapped.value());
}

TEST_F(GraphMmapTest, SolverScoresBitIdenticalToHeapLoad) {
  // The whole point of the mapped representation: the solver cannot tell.
  WebGraph g = SampleGraph();
  const std::string path = TempPath("paged_solver.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());
  auto mapped = graph::ReadBinaryMmap(path);
  ASSERT_TRUE(mapped.ok());
  auto heap = graph::ReadBinary(path);
  ASSERT_TRUE(heap.ok());

  pagerank::SolverOptions opt;
  opt.method = pagerank::Method::kJacobi;
  opt.tolerance = 1e-12;
  auto from_mapped = pagerank::ComputeUniformPageRank(mapped.value(), opt);
  auto from_heap = pagerank::ComputeUniformPageRank(heap.value(), opt);
  ASSERT_TRUE(from_mapped.ok());
  ASSERT_TRUE(from_heap.ok());
  EXPECT_EQ(from_mapped.value().iterations, from_heap.value().iterations);
  ASSERT_EQ(from_mapped.value().scores.size(), from_heap.value().scores.size());
  for (size_t i = 0; i < from_heap.value().scores.size(); ++i) {
    EXPECT_EQ(from_mapped.value().scores[i], from_heap.value().scores[i])
        << "node " << i;
  }
}

TEST_F(GraphMmapTest, MmapRejectsNonPagedFiles) {
  WebGraph g = SampleGraph(100, 400);
  const std::string path = TempPath("plain_v2.smwg");
  ASSERT_TRUE(graph::WriteBinary(g, path).ok());

  // A v2.0 file has no header page, so whatever CSR bytes sit at the
  // header-checksum offset fail the very first gate — the point is only
  // that the rejection is a clean InvalidArgument, never a misparse.
  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
      << loaded.status().ToString();
}

TEST_F(GraphMmapTest, RejectsFileTruncatedBelowHeader) {
  WebGraph g = SampleGraph(100, 400);
  const std::string path = TempPath("trunc_header.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());
  std::filesystem::resize_file(path, 100);

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("truncated"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(GraphMmapTest, RejectsFileTruncatedMidSection) {
  // Header page intact, payload gone: the geometry pass must notice that
  // the advertised sections run past EOF before any array is touched.
  WebGraph g = SampleGraph();
  const std::string path = TempPath("trunc_body.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());
  ASSERT_GT(std::filesystem::file_size(path), 2 * kPageSize);
  std::filesystem::resize_file(path, 2 * kPageSize);

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("shorter than header claims"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(GraphMmapTest, RejectsMisalignedSection) {
  WebGraph g = SampleGraph();
  const std::string path = TempPath("misaligned.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());

  std::vector<uint8_t> bytes = ReadFileBytes(path);
  // Knock the targets section (entry 1) off its page boundary.
  auto [offset, length] = SectionGeometry(bytes, 1);
  ASSERT_EQ(offset % kPageSize, 0u);
  const uint64_t skewed = offset + 8;
  std::memcpy(bytes.data() + kSectionTableOffset + 1 * kSectionEntryBytes + 8,
              &skewed, 8);
  RepairHeaderChecksum(&bytes);
  WriteFileBytes(path, bytes);

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("misaligned section"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(GraphMmapTest, RejectsCorruptSectionPayload) {
  WebGraph g = SampleGraph();
  const std::string path = TempPath("bitflip.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());

  std::vector<uint8_t> bytes = ReadFileBytes(path);
  // Flip one payload byte in the middle of the targets section. Test
  // sections are smaller than the 64 KiB sample window, so the bounded
  // sample checksum — the one release mmap loads always verify — covers
  // every byte and must catch it.
  auto [offset, length] = SectionGeometry(bytes, 1);
  ASSERT_GT(length, 0u);
  bytes[offset + length / 2] ^= 0x40;
  WriteFileBytes(path, bytes);

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(GraphMmapTest, RejectsCorruptHeaderPage) {
  WebGraph g = SampleGraph();
  const std::string path = TempPath("bad_header.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());

  std::vector<uint8_t> bytes = ReadFileBytes(path);
  bytes[16] ^= 0x01;  // num_nodes field, checksum left stale
  WriteFileBytes(path, bytes);

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("header page checksum"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(GraphMmapTest, RejectsHeaderClaimingMoreDataThanFileHolds) {
  WebGraph g = SampleGraph();
  const std::string path = TempPath("oversize_claim.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());

  std::vector<uint8_t> bytes = ReadFileBytes(path);
  // Claim an edge count no section in this file could hold; with the
  // header checksum repaired, the size sanity gate is the one that fires.
  const uint64_t absurd_edges = bytes.size();
  std::memcpy(bytes.data() + 24, &absurd_edges, 8);
  RepairHeaderChecksum(&bytes);
  WriteFileBytes(path, bytes);

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("shorter than header claims"),
            std::string::npos)
      << loaded.status().ToString();
}

// Interior CSR damage the sample checksums cannot see: the sections are
// larger than both 64 KiB sample windows and the patch lands between
// them. The sweeps gather without a bounds check through the in-CSR and
// through the transpose of the out-CSR, so the release load itself must
// refuse the file. Debug builds verify the full-section checksum first;
// both are InvalidArgument.
class GraphMmapInteriorDamageTest : public GraphMmapTest {
 protected:
  static constexpr uint32_t kNodes = 20000;

  /// Writes a sample graph, lets `patch` damage the body of section
  /// `section` (a pointer to its first byte and its length), and returns
  /// the file's path.
  std::string WritePatched(
      const std::string& name, uint32_t section,
      const std::function<void(uint8_t* body, uint64_t length)>& patch) {
    const std::string path = TempPath(name);
    EXPECT_TRUE(
        graph::WriteBinaryV22(SampleGraph(kNodes, 4 * kNodes), path).ok());
    std::vector<uint8_t> bytes = ReadFileBytes(path);
    auto [offset, length] = SectionGeometry(bytes, section);
    EXPECT_GT(length, 2 * kSampleWindowBytes);
    patch(bytes.data() + offset, length);
    WriteFileBytes(path, bytes);
    return path;
  }

  /// WritePatched, then the mmap load.
  util::Result<WebGraph> LoadPatched(
      const std::string& name, uint32_t section,
      const std::function<void(uint8_t* body, uint64_t length)>& patch) {
    return graph::ReadBinaryMmap(WritePatched(name, section, patch));
  }

  /// Overwrites the middle id of an id section with 0x7FFFFFFF.
  static void PatchHostileId(uint8_t* body, uint64_t length) {
    const NodeId hostile = 0x7FFFFFFF;
    std::memcpy(body + length / 2 / 4 * 4, &hostile, sizeof(hostile));
  }

  static void ExpectRejected(const util::Result<WebGraph>& loaded,
                             const std::string& release_message) {
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
    const std::string want =
        util::kDebugBuild ? "checksum mismatch" : release_message;
    EXPECT_NE(loaded.status().ToString().find(want), std::string::npos)
        << loaded.status().ToString();
  }
};

TEST_F(GraphMmapInteriorDamageTest, RejectsOutOfRangeSourceId) {
  auto loaded =
      LoadPatched("hostile_source.smwg", /*section=*/3, PatchHostileId);
  ExpectRejected(loaded, "neighbor 2147483647 out of range");
}

TEST_F(GraphMmapInteriorDamageTest, RejectsOutOfRangeTargetId) {
  auto loaded =
      LoadPatched("hostile_target.smwg", /*section=*/1, PatchHostileId);
  ExpectRejected(loaded, "neighbor 2147483647 out of range");
}

TEST_F(GraphMmapInteriorDamageTest, HostileTargetIdFailsTrustRankCleanly) {
  // The out-CSR reaches a sweep too: WebGraph::Transposed() copies it into
  // the in-CSR that TrustRank's seed solve gathers through unchecked. The
  // whole detector run over the mapped file must end in a clean error.
  pipeline::GraphSource source = pipeline::GraphSource::FromFile(
      WritePatched("hostile_target_run.smwg", /*section=*/1,
                   PatchHostileId));
  source.WithMmap();
  auto run = pipeline::RunDetectors(source, pipeline::PipelineConfig{},
                                    {"trustrank"});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), util::StatusCode::kInvalidArgument)
      << run.status().ToString();
}

TEST_F(GraphMmapInteriorDamageTest, RejectsDecreasingInOffsets) {
  auto loaded = LoadPatched(
      "decreasing_in_offsets.smwg", /*section=*/2,
      [](uint8_t* body, uint64_t) {
        // in_offsets[n/2] = in_offsets[n] = m: the next offset is smaller.
        std::memcpy(body + kNodes / 2 * sizeof(uint64_t),
                    body + kNodes * sizeof(uint64_t), sizeof(uint64_t));
      });
  ExpectRejected(loaded, "offsets decrease");
}

TEST_F(GraphMmapTest, HeapReaderAlsoRejectsCorruptPagedFiles) {
  // The heap path runs full validation; it must reject the same damage.
  WebGraph g = SampleGraph();
  const std::string path = TempPath("bitflip_heap.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());

  std::vector<uint8_t> bytes = ReadFileBytes(path);
  auto [offset, length] = SectionGeometry(bytes, 3);  // sources
  ASSERT_GT(length, 0u);
  bytes[offset + length / 3] ^= 0x10;
  WriteFileBytes(path, bytes);

  auto loaded = graph::ReadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().ToString();
}

}  // namespace
}  // namespace spammass

// The v2.2 paged container and its one reader, the zero-copy mmap load:
// round trips (with and without host names), solver equivalence with a
// heap graph built from the same edges, and — the part the trust model
// rests on — the failure paths. Every corruption test byte-patches a real
// file and demands a clean error Status in every build: truncation, a
// misaligned section table entry, a flipped payload byte (sample or full
// checksum), a wrong derived array, and a header that claims more data
// than the file holds must all be caught during validation, never surface
// as a SIGBUS or a wrong score later. The rejection table at the end
// reaches every validation gate, and files of the removed v1/v2.0/v2.1
// containers must be rejected by name.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/web_graph.h"
#include "pagerank/solver.h"
#include "pipeline/graph_source.h"
#include "pipeline/pipeline.h"
#include "util/checksum.h"
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

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << path;
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                             std::istreambuf_iterator<char>());
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f.is_open()) << path;
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

/// Little-endian field access into raw file bytes.
template <typename T>
T Get(const std::vector<uint8_t>& bytes, uint64_t offset) {
  T v{};
  std::memcpy(&v, bytes.data() + offset, sizeof(T));
  return v;
}

template <typename T>
void Put(std::vector<uint8_t>* bytes, uint64_t offset, T v) {
  std::memcpy(bytes->data() + offset, &v, sizeof(T));
}

/// Byte offset of section-table entry `i`; its fields sit at +0 kind,
/// +4 reserved, +8 offset, +16 length, +24 full and +32 sample checksum.
uint64_t EntryAt(uint32_t i) {
  return kSectionTableOffset + i * kSectionEntryBytes;
}

/// Recomputes the header-page checksum after a deliberate header patch,
/// so the test reaches the validation step it targets instead of
/// tripping the header-checksum gate first.
void RepairHeaderChecksum(std::vector<uint8_t>* bytes) {
  util::Fnv1a64x8 hasher;
  hasher.Update(bytes->data(), kHeaderChecksumOffset);
  Put(bytes, kHeaderChecksumOffset, hasher.digest());
}

/// Reads section-table entry `i`'s (offset, length) out of raw bytes.
std::pair<uint64_t, uint64_t> SectionGeometry(
    const std::vector<uint8_t>& bytes, uint32_t i) {
  return {Get<uint64_t>(bytes, EntryAt(i) + 8),
          Get<uint64_t>(bytes, EntryAt(i) + 16)};
}

/// Recomputes section `i`'s full and sample checksums (the sample covers
/// the first and, past one window, the last kSampleWindowBytes) and then
/// the header page's, so a patched body reaches the structural gates.
void RepairSectionChecksums(std::vector<uint8_t>* bytes, uint32_t i) {
  auto [offset, length] = SectionGeometry(*bytes, i);
  const uint8_t* body = bytes->data() + offset;
  util::Fnv1a64x8 full;
  if (length > 0) full.Update(body, length);
  util::Fnv1a64x8 sample;
  const uint64_t head = std::min(length, kSampleWindowBytes);
  if (head > 0) sample.Update(body, head);
  if (length > kSampleWindowBytes) {
    sample.Update(body + (length - kSampleWindowBytes), kSampleWindowBytes);
  }
  Put(bytes, EntryAt(i) + 24, full.digest());
  Put(bytes, EntryAt(i) + 32, sample.digest());
  RepairHeaderChecksum(bytes);
}

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
  // The one reader maps every v2.2 file, the whole file, and a heap graph
  // written out reads back as the same graph.
  WebGraph g = SampleGraph();
  const std::string path = TempPath("paged_heap.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().is_mapped());
  EXPECT_EQ(loaded.value().mapped_bytes(), std::filesystem::file_size(path));
  ExpectSameGraph(g, loaded.value());
}

TEST_F(GraphMmapTest, SolverScoresBitIdenticalToHeapLoad) {
  // The whole point of the mapped representation: the solver cannot tell
  // it from the heap graph the text reader builds from the same edges.
  WebGraph g = SampleGraph();
  const std::string text_path = TempPath("paged_solver.edges");
  const std::string path = TempPath("paged_solver.smwg");
  ASSERT_TRUE(graph::WriteEdgeListText(g, text_path).ok());
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());
  auto mapped = graph::ReadBinaryMmap(path);
  ASSERT_TRUE(mapped.ok());
  auto heap = graph::ReadEdgeListText(text_path);
  ASSERT_TRUE(heap.ok());
  ASSERT_FALSE(heap.value().is_mapped());
  ExpectSameGraph(heap.value(), mapped.value());

  pagerank::SolverOptions opt;
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

TEST_F(GraphMmapTest, TransposeOfAMappedGraphOutlivesIt) {
  // The view points into the mapping and keeps it alive: it copies no CSR
  // array, and stays readable after the loaded graph is destroyed.
  WebGraph g = SampleGraph(300, 1500, /*with_names=*/true);
  const std::string path = TempPath("paged_transpose.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());
  WebGraph t;
  {
    auto loaded = graph::ReadBinaryMmap(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const WebGraph& mapped = loaded.value();
    t = mapped.Transposed();
    EXPECT_EQ(t.OutOffsets().data(), mapped.InOffsets().data());
    EXPECT_EQ(t.Targets().data(), mapped.Sources().data());
    EXPECT_EQ(t.InOffsets().data(), mapped.OutOffsets().data());
    EXPECT_EQ(t.Sources().data(), mapped.Targets().data());
    EXPECT_EQ(t.host_names().data(), mapped.host_names().data());
  }
  // A view reports not mapped, as a heap transpose would.
  EXPECT_FALSE(t.is_mapped());
  EXPECT_EQ(t.mapped_bytes(), 0u);
  EXPECT_TRUE(t.MappedSectionResidency().empty());
  ExpectSameGraph(g.Transposed(), t);
  for (NodeId x = 0; x < g.num_nodes(); ++x) {
    EXPECT_EQ(t.HostName(x), g.HostName(x)) << "node " << x;
  }
}

TEST_F(GraphMmapTest, RejectsRemovedContainersByName) {
  // Files of the removed containers, spelled out as header bytes since no
  // writer of them is left: magic, version, then (v2.0/v2.1) flags and
  // minor version. Their bodies are never read, so they are zeros here.
  // A v1 file of an empty graph is 24 bytes; a v2.0 file has no header
  // page, so below 4 KiB it used to fail as truncated and above it as a
  // header checksum mismatch.
  struct Removed {
    const char* file;
    uint32_t version, flags, minor;
    uint64_t size;
    const char* name;
  };
  const Removed cases[] = {
      {"removed_v1.smwg", 1, 0, 0, 24, "SMWG v1"},
      {"removed_v20_small.smwg", 2, 0, 0, 56, "SMWG v2.0/v2.1"},
      {"removed_v20_large.smwg", 2, 1, 0, 3 * kPageSize, "SMWG v2.0/v2.1"},
      {"removed_v21.smwg", 2, 2, 1, 3 * kPageSize, "SMWG v2.0/v2.1"},
  };
  for (const Removed& c : cases) {
    SCOPED_TRACE(c.file);
    std::vector<uint8_t> bytes(c.size, 0);
    std::memcpy(bytes.data(), "SMWG", 4);
    Put(&bytes, 4, c.version);
    if (c.version == 2) {
      Put(&bytes, 8, c.flags);
      Put(&bytes, 12, c.minor);
    }
    const std::string path = TempPath(c.file);
    WriteFileBytes(path, bytes);

    auto loaded = graph::ReadBinaryMmap(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
    const std::string message = loaded.status().message();
    EXPECT_NE(message.find(c.name), std::string::npos) << message;
    EXPECT_NE(message.find("convert --edges"), std::string::npos) << message;
  }
}

TEST_F(GraphMmapTest, MissingFileIsIoErrorFromBothReaders) {
  // The binary and the text reader.
  const std::string path = TempPath("no_such_graph.smwg");
  std::filesystem::remove(path);
  auto mapped = graph::ReadBinaryMmap(path);
  auto text = graph::ReadEdgeListText(path);
  ASSERT_FALSE(mapped.ok());
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(mapped.status().code(), util::StatusCode::kIoError);
  EXPECT_EQ(text.status().code(), util::StatusCode::kIoError);
  EXPECT_NE(mapped.status().message().find(path), std::string::npos)
      << mapped.status().ToString();
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

// Interior damage the sample checksums cannot see: the sections are larger
// than both 64 KiB sample windows and the patch lands between them. Every
// build verifies every section's full checksum, which catches a flipped
// byte there. With the checksums recomputed over the damage (a file a
// faulty writer produced), the structural validators must still refuse
// it: the sweeps gather without a bounds check through the in-CSR and
// through the transpose of the out-CSR. Both are InvalidArgument.
class GraphMmapInteriorDamageTest : public GraphMmapTest {
 protected:
  static constexpr uint32_t kNodes = 20000;

  /// Writes a sample graph, lets `patch` damage the body of section
  /// `section` (a pointer to its first byte and its length), recomputes
  /// that section's checksums when `repair_checksums`, and returns the
  /// file's path.
  std::string WritePatched(
      const std::string& name, uint32_t section,
      const std::function<void(uint8_t* body, uint64_t length)>& patch,
      bool repair_checksums, bool with_names = false) {
    const std::string path = TempPath(name);
    EXPECT_TRUE(graph::WriteBinaryV22(
                    SampleGraph(kNodes, 4 * kNodes, with_names), path)
                    .ok());
    std::vector<uint8_t> bytes = ReadFileBytes(path);
    auto [offset, length] = SectionGeometry(bytes, section);
    EXPECT_GT(length, 2 * kSampleWindowBytes);
    patch(bytes.data() + offset, length);
    if (repair_checksums) RepairSectionChecksums(&bytes, section);
    WriteFileBytes(path, bytes);
    return path;
  }

  /// WritePatched with the checksums repaired, then the load.
  util::Result<WebGraph> LoadPatched(
      const std::string& name, uint32_t section,
      const std::function<void(uint8_t* body, uint64_t length)>& patch) {
    return graph::ReadBinaryMmap(
        WritePatched(name, section, patch, /*repair_checksums=*/true));
  }

  /// Overwrites the middle id of an id section with 0x7FFFFFFF.
  static void PatchHostileId(uint8_t* body, uint64_t length) {
    const NodeId hostile = 0x7FFFFFFF;
    std::memcpy(body + length / 2 / 4 * 4, &hostile, sizeof(hostile));
  }

  /// Flips the low bit of a section's middle byte.
  static void FlipMiddleByte(uint8_t* body, uint64_t length) {
    body[length / 2] ^= 0x01;
  }

  static void ExpectRejected(const util::Result<WebGraph>& loaded,
                             const std::string& message) {
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().ToString().find(message), std::string::npos)
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
  // The out-CSR reaches a sweep too: WebGraph::Transposed() makes it the
  // in-CSR that TrustRank's seed solve gathers through unchecked, straight
  // in the mapping. The whole detector run over the mapped file, checksums
  // repaired, must end in a clean error.
  pipeline::GraphSource source = pipeline::GraphSource::FromFile(
      WritePatched("hostile_target_run.smwg", /*section=*/1, PatchHostileId,
                   /*repair_checksums=*/true));
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

TEST_F(GraphMmapInteriorDamageTest, RejectsInteriorHostNameDamage) {
  auto loaded = graph::ReadBinaryMmap(
      WritePatched("interior_names.smwg", /*section=*/6, FlipMiddleByte,
                   /*repair_checksums=*/false, /*with_names=*/true));
  ExpectRejected(loaded, "section 7 checksum mismatch");
}

TEST_F(GraphMmapInteriorDamageTest, HeapReaderCatchesDamageBetweenSamples) {
  // A flipped byte of the inverse out-degrees between the sample windows
  // is refused by the section's full checksum, in every build, before the
  // derived-array check (HeapReaderValidatesDerivedArrays) runs.
  const std::string path =
      WritePatched("interior_inv_out.smwg", /*section=*/4, FlipMiddleByte,
                   /*repair_checksums=*/false);
  ExpectRejected(graph::ReadBinaryMmap(path), "section 5 checksum mismatch");
}

TEST_F(GraphMmapTest, HeapReaderValidatesDerivedArrays) {
  // With every checksum repaired, a wrong inverse out-degree passes the
  // byte-level gates. The derived-array validator still rejects it.
  WebGraph g = SampleGraph();
  ASSERT_GT(g.OutDegree(0), 0u);
  const std::string path = TempPath("bad_inv_out.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  Put(&bytes, SectionGeometry(bytes, 4).first, 0.125);
  RepairSectionChecksums(&bytes, 4);
  WriteFileBytes(path, bytes);

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_NE(loaded.status().message().find("inverse out-degree"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(GraphMmapTest, HeapReaderAlsoRejectsCorruptPagedFiles) {
  // A flipped byte in the sources section, caught by its checksums.
  WebGraph g = SampleGraph();
  const std::string path = TempPath("bitflip_heap.smwg");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());

  std::vector<uint8_t> bytes = ReadFileBytes(path);
  auto [offset, length] = SectionGeometry(bytes, 3);  // sources
  ASSERT_GT(length, 0u);
  bytes[offset + length / 3] ^= 0x10;
  WriteFileBytes(path, bytes);

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("section 4 checksum mismatch"),
            std::string::npos)
      << loaded.status().ToString();
}

// ---- Every validation gate --------------------------------------------------

/// One damaged v2.2 file: `patch` edits the bytes of a freshly written
/// sample graph (with host names when `with_names`), repairing the header
/// or section checksums where the gate it aims at sits behind them. The
/// load must then fail with `code` and a message holding `message`.
struct RejectionCase {
  const char* name;
  bool with_names;
  void (*patch)(std::vector<uint8_t>* bytes);
  util::StatusCode code;
  const char* message;
};

// Without it gtest prints a case as raw bytes, pointers included, and the
// ctest names would change from run to run.
void PrintTo(const RejectionCase& c, std::ostream* os) { *os << c.name; }

/// Header field offsets (docs/graph_format.md).
constexpr uint64_t kVersionAt = 4, kFlagsAt = 8, kMinorAt = 12;
constexpr uint64_t kNodesAt = 16, kEdgesAt = 24, kSectionCountAt = 32;
constexpr uint64_t kPageSizeAt = 36;
/// Section indices in the canonical order.
constexpr uint32_t kTargets = 1, kSources = 3, kDangling = 5;
constexpr uint32_t kNameOffsets = 6;

/// Swaps two 4-byte ids of section `section`, then repairs its checksums.
void SwapIds(std::vector<uint8_t>* b, uint32_t section, uint64_t i,
             uint64_t j) {
  const uint64_t base = SectionGeometry(*b, section).first;
  const auto a = Get<NodeId>(*b, base + 4 * i);
  Put(b, base + 4 * i, Get<NodeId>(*b, base + 4 * j));
  Put(b, base + 4 * j, a);
  RepairSectionChecksums(b, section);
}

/// Writes `value` as the index-th element of section `section`, then
/// repairs its checksums.
template <typename T>
void SetElement(std::vector<uint8_t>* b, uint32_t section, uint64_t index,
                T value) {
  Put(b, SectionGeometry(*b, section).first + index * sizeof(T), value);
  RepairSectionChecksums(b, section);
}

using util::StatusCode;
using Bytes = std::vector<uint8_t>;

const RejectionCase kRejectionCases[] = {
    {"BadMagicNumber", false, [](Bytes* b) { (*b)[0] = 'X'; },
     StatusCode::kInvalidArgument, "not a spammass binary graph"},
    {"ShorterThanMagic", false, [](Bytes* b) { b->resize(3); },
     StatusCode::kInvalidArgument, "not a spammass binary graph"},
    {"TruncatedHeaderPage", false, [](Bytes* b) { b->resize(40); },
     StatusCode::kIoError, "truncated (no v2.2 header page)"},
    {"StaleHeaderChecksum", false, [](Bytes* b) { (*b)[kNodesAt] ^= 0x01; },
     StatusCode::kInvalidArgument, "header page checksum mismatch"},
    {"UnsupportedVersion", false,
     [](Bytes* b) {
       Put<uint32_t>(b, kVersionAt, 99);
       RepairHeaderChecksum(b);
     },
     StatusCode::kInvalidArgument, "unsupported version 99"},
    {"UnsupportedMinorVersion", false,
     [](Bytes* b) {
       Put<uint32_t>(b, kMinorAt, 3);
       RepairHeaderChecksum(b);
     },
     StatusCode::kInvalidArgument, "unsupported minor version 3"},
    {"UnknownHeaderFlag", false,
     [](Bytes* b) {
       // Bit 1 flagged the removed v2.1 compressed section.
       Put(b, kFlagsAt, Get<uint32_t>(*b, kFlagsAt) | 2u);
       RepairHeaderChecksum(b);
     },
     StatusCode::kInvalidArgument, "unknown header flags"},
    {"PagedFlagMissing", false,
     [](Bytes* b) {
       Put(b, kFlagsAt, Get<uint32_t>(*b, kFlagsAt) & ~4u);
       RepairHeaderChecksum(b);
     },
     StatusCode::kInvalidArgument, "unknown header flags"},
    {"UnsupportedPageSize", false,
     [](Bytes* b) {
       Put<uint32_t>(b, kPageSizeAt, 8192);
       RepairHeaderChecksum(b);
     },
     StatusCode::kInvalidArgument, "unsupported page size"},
    {"NodeCountBeyond32Bits", false,
     [](Bytes* b) {
       Put<uint64_t>(b, kNodesAt, 0xFFFFFFFFu);
       RepairHeaderChecksum(b);
     },
     StatusCode::kOutOfRange, "node count exceeds 32-bit range"},
    {"EdgeCountBeyondFile", false,
     [](Bytes* b) {
       Put<uint64_t>(b, kEdgesAt, b->size());
       RepairHeaderChecksum(b);
     },
     StatusCode::kIoError, "file shorter than header claims"},
    {"WrongSectionCount", false,
     [](Bytes* b) {
       Put<uint32_t>(b, kSectionCountAt, 7);
       RepairHeaderChecksum(b);
     },
     StatusCode::kInvalidArgument, "unexpected section count"},
    {"UnexpectedSectionKind", false,
     [](Bytes* b) {
       Put<uint32_t>(b, EntryAt(0), 2);
       RepairHeaderChecksum(b);
     },
     StatusCode::kInvalidArgument, "unexpected section table"},
    {"NonzeroSectionReserved", false,
     [](Bytes* b) {
       Put<uint32_t>(b, EntryAt(0) + 4, 1);
       RepairHeaderChecksum(b);
     },
     StatusCode::kInvalidArgument, "unexpected section table"},
    {"MisalignedSection", false,
     [](Bytes* b) {
       Put(b, EntryAt(kTargets) + 8, SectionGeometry(*b, kTargets).first + 8);
       RepairHeaderChecksum(b);
     },
     StatusCode::kInvalidArgument, "misaligned section 2"},
    {"NonCanonicalLayout", false,
     [](Bytes* b) {
       Put(b, EntryAt(kTargets) + 8,
           SectionGeometry(*b, kTargets).first + kPageSize);
       RepairHeaderChecksum(b);
     },
     StatusCode::kInvalidArgument, "non-canonical section layout"},
    {"SectionLengthMismatch", false,
     [](Bytes* b) {
       Put(b, EntryAt(0) + 16, SectionGeometry(*b, 0).second - 8);
       RepairHeaderChecksum(b);
     },
     StatusCode::kInvalidArgument, "section 1 length mismatch"},
    {"DanglingLengthNotWholeIds", false,
     [](Bytes* b) {
       Put<uint64_t>(b, EntryAt(kDangling) + 16, 6);
       RepairHeaderChecksum(b);
     },
     StatusCode::kInvalidArgument, "dangling section malformed"},
    {"DanglingLongerThanNodeCount", false,
     [](Bytes* b) {
       Put(b, EntryAt(kDangling) + 16, (Get<uint64_t>(*b, kNodesAt) + 1) * 4);
       RepairHeaderChecksum(b);
     },
     StatusCode::kInvalidArgument, "dangling section malformed"},
    {"SectionPastEndOfFile", false, [](Bytes* b) { b->resize(2 * kPageSize); },
     StatusCode::kIoError, "file shorter than header claims"},
    {"TruncatedInLastSectionPadding", false,
     [](Bytes* b) {
       // Cut right after the last section's payload, inside the zero
       // padding up to the next page boundary.
       const uint32_t last = Get<uint32_t>(*b, kSectionCountAt) - 1;
       auto [offset, length] = SectionGeometry(*b, last);
       b->resize(offset + length);
     },
     StatusCode::kIoError,
     "truncated (file ends inside the last section's page padding)"},
    {"TrailingBytes", false, [](Bytes* b) { b->resize(b->size() + kPageSize); },
     StatusCode::kInvalidArgument, "trailing bytes after payload"},
    {"SampleChecksum", false,
     [](Bytes* b) {
       auto [offset, length] = SectionGeometry(*b, kTargets);
       (*b)[offset + length / 2] ^= 0x40;
     },
     StatusCode::kInvalidArgument, "section 2 checksum mismatch"},
    {"DanglingIdOutOfRange", false,
     [](Bytes* b) {
       const auto n = static_cast<NodeId>(Get<uint64_t>(*b, kNodesAt));
       SetElement(b, kDangling, 0, n);
     },
     StatusCode::kInvalidArgument, "dangling section malformed"},
    {"DanglingNotAscending", false,
     [](Bytes* b) { SwapIds(b, kDangling, 0, 1); },
     StatusCode::kInvalidArgument, "dangling section malformed"},
    {"SourceOutOfRange", false,
     [](Bytes* b) { SetElement<NodeId>(b, kSources, 0, 0xFFFFFFF0u); },
     StatusCode::kInvalidArgument, "neighbor 4294967280 out of range"},
    {"TargetOutOfRange", false,
     [](Bytes* b) { SetElement<NodeId>(b, kTargets, 0, 0xFFFFFFF0u); },
     StatusCode::kInvalidArgument, "neighbor 4294967280 out of range"},
    {"UnsortedTargetRow", false,
     [](Bytes* b) { SwapIds(b, kTargets, 0, 1); },  // node 0's first two
     StatusCode::kInvalidArgument, "not strictly ascending"},
    {"NameOffsetsDoNotStartAtZero", true,
     [](Bytes* b) { SetElement<uint64_t>(b, kNameOffsets, 0, 1); },
     StatusCode::kInvalidArgument, "bad host-name offsets"},
    {"NameOffsetsPastBlob", true,
     [](Bytes* b) {
       const uint64_t n = Get<uint64_t>(*b, kNodesAt);
       const uint64_t base = SectionGeometry(*b, kNameOffsets).first;
       SetElement(b, kNameOffsets, n, Get<uint64_t>(*b, base + 8 * n) + 1);
     },
     StatusCode::kInvalidArgument, "bad host-name offsets"},
    {"NameOffsetsDecrease", true,
     [](Bytes* b) {
       const uint64_t n = Get<uint64_t>(*b, kNodesAt);
       const uint64_t base = SectionGeometry(*b, kNameOffsets).first;
       SetElement(b, kNameOffsets, 1, Get<uint64_t>(*b, base + 8 * n));
     },
     StatusCode::kInvalidArgument, "bad host-name offsets"},
};

class GraphRejectionTest
    : public GraphMmapTest,
      public ::testing::WithParamInterface<RejectionCase> {};

// The name dates from a second, heap reader that is gone; it is kept so
// the case ids stay stable.
TEST_P(GraphRejectionTest, BothReadersFailWithTheSameStatus) {
  const RejectionCase& c = GetParam();
  const std::string path = TempPath(std::string("reject_") + c.name);
  WebGraph g = c.with_names ? SampleGraph(300, 1500, /*with_names=*/true)
                            : SampleGraph();
  ASSERT_GE(g.OutDegree(0), 2u);  // UnsortedTargetRow swaps node 0's ids
  ASSERT_GE(g.DanglingNodes().size(), 2u);
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());
  std::vector<uint8_t> bytes = ReadFileBytes(path);
  c.patch(&bytes);
  WriteFileBytes(path, bytes);

  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), c.code) << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find(c.message), std::string::npos)
      << loaded.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    V22, GraphRejectionTest, ::testing::ValuesIn(kRejectionCases),
    [](const ::testing::TestParamInfo<RejectionCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace spammass

// mincore-backed residency probes: util::MmapFile::ResidentBytes[InRange]
// on a raw temp file (touched pages become resident, ranges clamp at EOF,
// section sums never exceed the whole), MmapFile::DropResidentPages
// (dropped pages leave RSS and read back unchanged),
// WebGraph::MappedSectionResidency on a real v2.2 mapped graph, and the
// clean zero/empty behaviour of the non-mapped (heap) path that
// `spammass_cli stats` and manifest v3 rely on to distinguish "absent"
// from "zero".
//
// Residency is advisory — pages can be reclaimed between a touch and the
// probe — so assertions are one-sided: touched data may exceed a floor,
// totals respect ceilings, but no test demands an exact page count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/web_graph.h"
#include "obs/resource.h"
#include "util/mmap_file.h"
#include "util/random.h"

namespace spammass {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::WebGraph;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

/// Writes a file of `bytes` incompressible-ish bytes and returns its path.
std::string WriteBlob(const std::string& name, uint64_t bytes) {
  const std::string path = TempPath(name);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  EXPECT_TRUE(f.is_open()) << path;
  std::string chunk(4096, '\0');
  for (size_t i = 0; i < chunk.size(); ++i) {
    chunk[i] = static_cast<char>(i * 131 + 17);
  }
  for (uint64_t written = 0; written < bytes; written += chunk.size()) {
    const uint64_t take = std::min<uint64_t>(chunk.size(), bytes - written);
    f.write(chunk.data(), static_cast<std::streamsize>(take));
  }
  return path;
}

WebGraph SampleGraph() {
  util::Rng rng(/*seed=*/41);
  constexpr uint32_t n = 800;
  GraphBuilder b(n);
  for (uint32_t e = 0; e < 6000; ++e) {
    auto u = static_cast<NodeId>(rng.UniformIndex(n / 2));
    auto v = static_cast<NodeId>(rng.UniformIndex(n));
    if (u != v) b.AddEdge(u, v);
  }
  return b.Build();
}

TEST(MmapResidencyTest, TouchedPagesAreResident) {
  const std::string path = WriteBlob("residency_blob.bin", 64 * 4096);
  auto mapped = util::MmapFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const util::MmapFile& file = mapped.value();
  ASSERT_EQ(file.size(), 64u * 4096);

  // Touch the first 16 pages; those bytes must show as resident (reclaim
  // of just-touched pages under no memory pressure would be bizarre, but
  // keep the assertion one-sided anyway: >= one page, not == 16 pages).
  uint64_t sink = 0;
  for (uint64_t i = 0; i < 16 * 4096; i += 512) sink += file.data()[i];
  ASSERT_NE(sink, uint64_t{0});  // also defeats dead-read elimination
  EXPECT_GE(file.ResidentBytesInRange(0, 16 * 4096), uint64_t{4096});
  EXPECT_GE(file.ResidentBytes(), file.ResidentBytesInRange(0, 16 * 4096));
  EXPECT_LE(file.ResidentBytes(), file.size());
}

TEST(MmapResidencyTest, RangeQueriesClampAndBound) {
  const std::string path = WriteBlob("residency_clamp.bin", 3 * 4096 + 100);
  auto mapped = util::MmapFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const util::MmapFile& file = mapped.value();

  uint64_t sink = 0;
  for (uint64_t i = 0; i < file.size(); i += 64) sink += file.data()[i];
  ASSERT_NE(sink, uint64_t{0});

  // A range can never report more resident bytes than its own length.
  EXPECT_LE(file.ResidentBytesInRange(100, 200), uint64_t{200});
  // Past-EOF ranges clamp instead of faulting; fully-out ranges are 0.
  EXPECT_LE(file.ResidentBytesInRange(3 * 4096, 4096), file.size() - 3 * 4096);
  EXPECT_EQ(file.ResidentBytesInRange(file.size(), 4096), uint64_t{0});
  EXPECT_EQ(file.ResidentBytesInRange(file.size() + 4096, 1), uint64_t{0});
  EXPECT_EQ(file.ResidentBytesInRange(0, 0), uint64_t{0});

  // Disjoint sub-ranges covering the file sum to at most the whole (the
  // overlap-counting contract: boundary pages are split, not duplicated).
  const uint64_t split = 4096 + 123;
  const uint64_t a = file.ResidentBytesInRange(0, split);
  const uint64_t b = file.ResidentBytesInRange(split, file.size() - split);
  EXPECT_LE(a + b, file.size());
  EXPECT_GE(a + b, file.ResidentBytes() == file.size() ? file.size() : 0u);
}

/// Sums one byte per 512 of the mapping, faulting every page in.
uint64_t TouchAll(const util::MmapFile& file) {
  uint64_t sum = 0;
  for (uint64_t i = 0; i < file.size(); i += 512) sum += file.data()[i];
  return sum;
}

TEST(MmapResidencyTest, DroppedPagesLeaveRssAndReadBackUnchanged) {
  constexpr uint64_t kBytes = uint64_t{16} << 20;
  const std::string path = WriteBlob("residency_drop.bin", kBytes);
  auto mapped = util::MmapFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  util::MmapFile& file = mapped.value();

  const uint64_t sum = TouchAll(file);
  ASSERT_NE(sum, uint64_t{0});
  const obs::ResourceUsage touched = obs::SampleResourceUsage();
  file.DropResidentPages(0, file.size());
  const obs::ResourceUsage dropped = obs::SampleResourceUsage();
  if (touched.has_memory && dropped.has_memory) {
    // One-sided, like every residency assertion here: at least half of
    // the 16 MiB must leave the process's RSS.
    EXPECT_LE(dropped.rss_bytes + kBytes / 2, touched.rss_bytes);
  }
  // The pages come back from the page cache with the same bytes.
  EXPECT_EQ(TouchAll(file), sum);

  // Partial, past-EOF and empty ranges are clamped, never a fault.
  file.DropResidentPages(100, 200);
  file.DropResidentPages(kBytes - 10, 4096);
  file.DropResidentPages(kBytes, 4096);
  file.DropResidentPages(0, 0);
  EXPECT_EQ(TouchAll(file), sum);
}

TEST(MmapResidencyTest, EmptyMappingReportsZero) {
  const std::string path = WriteBlob("residency_empty.bin", 0);
  auto mapped = util::MmapFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.value().ResidentBytes(), uint64_t{0});
  EXPECT_EQ(mapped.value().ResidentBytesInRange(0, 4096), uint64_t{0});
  mapped.value().DropResidentPages(0, 4096);  // a no-op, not a fault
}

TEST(MmapResidencyTest, MappedGraphSectionResidency) {
  WebGraph g = SampleGraph();
  const std::string path = TempPath("residency_graph.smwg");
  auto status = graph::WriteBinaryV22(g, path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const WebGraph& m = loaded.value();
  ASSERT_TRUE(m.is_mapped());

  // Walk every adjacency so the CSR sections are faulted in.
  uint64_t sink = 0;
  for (NodeId u = 0; u < m.num_nodes(); ++u) {
    for (NodeId v : m.OutNeighbors(u)) sink += v;
    for (NodeId v : m.InNeighbors(u)) sink += v;
  }
  ASSERT_NE(sink, uint64_t{0});

  const auto sections = m.MappedSectionResidency();
  ASSERT_EQ(sections.size(), 6u);
  const char* const kNames[] = {"out_offsets",    "targets", "in_offsets",
                                "sources",        "inv_out_degree",
                                "dangling"};
  uint64_t mapped_sum = 0, resident_sum = 0;
  for (size_t i = 0; i < sections.size(); ++i) {
    EXPECT_STREQ(sections[i].name, kNames[i]);
    EXPECT_LE(sections[i].resident_bytes, sections[i].mapped_bytes);
    mapped_sum += sections[i].mapped_bytes;
    resident_sum += sections[i].resident_bytes;
  }
  // Sections live inside the mapping (which also holds the header page),
  // so their sizes sum to strictly less than the whole file.
  EXPECT_LT(mapped_sum, m.mapped_bytes());
  EXPECT_LE(resident_sum, m.resident_bytes());
  // The CSR arrays were just walked: both directions must be resident.
  EXPECT_GT(sections[0].resident_bytes, uint64_t{0});  // out_offsets
  EXPECT_GT(sections[1].resident_bytes, uint64_t{0});  // targets
  EXPECT_GT(sections[3].resident_bytes, uint64_t{0});  // sources
}

TEST(MmapResidencyTest, HeapGraphHasNoSections) {
  // A heap-built graph is not mapped: the probe reports nothing (absent,
  // not six zero rows) and the publisher is a clean no-op.
  WebGraph g = SampleGraph();
  ASSERT_FALSE(g.is_mapped());
  EXPECT_TRUE(g.MappedSectionResidency().empty());
  graph::PublishMappedResidency(g);  // must not crash or publish gauges
}

}  // namespace
}  // namespace spammass

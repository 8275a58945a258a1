// Delta+varint successor-list codec: round trips over random and
// adversarial adjacency shapes (empty rows, singletons, maximum deltas),
// hostile-input rejection (truncation, trailing bytes, out-of-range ids,
// overlong varints), and the graph-built compressed in-adjacency checked
// against the plain CSR it encodes.

#include "graph/csr_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/web_graph.h"
#include "util/random.h"

namespace spammass {
namespace {

using graph::CompressedAdjacency;
using graph::GraphBuilder;
using graph::NodeId;
using graph::WebGraph;

/// Encodes `rows` (each strictly ascending) via offsets+flat arrays. The
/// encoder's row count is rows.size(); the id bound is the caller's
/// num_nodes at decode time.
CompressedAdjacency EncodeRows(const std::vector<std::vector<NodeId>>& rows) {
  std::vector<uint64_t> offsets{0};
  std::vector<NodeId> flat;
  for (const auto& row : rows) {
    flat.insert(flat.end(), row.begin(), row.end());
    offsets.push_back(flat.size());
  }
  return graph::EncodeAdjacency(static_cast<NodeId>(rows.size()), offsets,
                                flat);
}

void ExpectRowsDecode(const CompressedAdjacency& compressed, NodeId num_nodes,
                      const std::vector<std::vector<NodeId>>& rows) {
  std::vector<NodeId> decoded;
  for (NodeId x = 0; x < rows.size(); ++x) {
    auto status = graph::DecodeRow(
        compressed, x, static_cast<uint32_t>(rows[x].size()), num_nodes,
        &decoded);
    ASSERT_TRUE(status.ok()) << "row " << x << ": " << status.ToString();
    EXPECT_EQ(decoded, rows[x]) << "row " << x;
  }
}

TEST(CsrCodecTest, RoundTripsRandomAdjacency) {
  constexpr NodeId kNodes = 500;
  util::Rng rng(17);
  std::vector<std::vector<NodeId>> rows(kNodes);
  for (auto& row : rows) {
    const size_t degree = rng.UniformIndex(20);
    for (size_t i = 0; i < degree; ++i) {
      row.push_back(static_cast<NodeId>(rng.UniformIndex(kNodes)));
    }
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  CompressedAdjacency compressed = EncodeRows(rows);
  EXPECT_EQ(compressed.num_rows(), kNodes);
  ExpectRowsDecode(compressed, kNodes, rows);
}

TEST(CsrCodecTest, RoundTripsAdversarialShapes) {
  // All-empty rows, singletons at both extremes, a full row, and a
  // maximum-gap row all in one adjacency.
  constexpr NodeId kNodes = 1 << 20;
  std::vector<std::vector<NodeId>> rows;
  rows.push_back({});                       // empty
  rows.push_back({0});                      // smallest singleton
  rows.push_back({kNodes - 1});             // largest gap from prev=0
  rows.push_back({0, kNodes - 1});          // both extremes in one row
  rows.push_back({});                       // empty between non-empties
  rows.push_back({1, 2, 3, 4, 5});          // dense run (gaps of zero)
  CompressedAdjacency compressed = EncodeRows(rows);
  ExpectRowsDecode(compressed, kNodes, rows);

  // An empty adjacency is still a valid object.
  CompressedAdjacency empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.num_rows(), 0u);
}

TEST(CsrCodecTest, GraphBuiltCompressionValidates) {
  util::Rng rng(23);
  GraphBuilder b(300);
  for (int e = 0; e < 2000; ++e) {
    auto u = static_cast<NodeId>(rng.UniformIndex(300));
    auto v = static_cast<NodeId>(rng.UniformIndex(300));
    if (u != v) b.AddEdge(u, v);
  }
  WebGraph g = b.Build();
  ASSERT_FALSE(g.has_compressed_in());
  g.BuildCompressedInAdjacency();
  ASSERT_TRUE(g.has_compressed_in());

  auto status = graph::ValidateCompressedAdjacency(
      g.compressed_in(), g.num_nodes(), g.InOffsets(), g.Sources());
  EXPECT_TRUE(status.ok()) << status.ToString();

  // Every row decodes to exactly the plain in-neighbor list.
  std::vector<NodeId> decoded;
  for (NodeId y = 0; y < g.num_nodes(); ++y) {
    auto row = g.InNeighbors(y);
    ASSERT_TRUE(graph::DecodeRow(g.compressed_in(), y,
                                 static_cast<uint32_t>(row.size()),
                                 g.num_nodes(), &decoded)
                    .ok());
    ASSERT_EQ(decoded.size(), row.size());
    EXPECT_TRUE(std::equal(row.begin(), row.end(), decoded.begin()));
  }
}

TEST(CsrCodecTest, RejectsHostileInput) {
  constexpr NodeId kNodes = 1000;
  std::vector<std::vector<NodeId>> rows = {{3, 700, 999}};
  CompressedAdjacency compressed = EncodeRows(rows);
  std::vector<NodeId> decoded;

  // Out-of-range row index.
  EXPECT_FALSE(graph::DecodeRow(compressed, 1, 3, kNodes, &decoded).ok());

  // Degree larger than the encoded row: the decoder runs off the frame.
  EXPECT_FALSE(graph::DecodeRow(compressed, 0, 4, kNodes, &decoded).ok());

  // Degree smaller than the encoded row: trailing bytes must be rejected.
  EXPECT_FALSE(graph::DecodeRow(compressed, 0, 2, kNodes, &decoded).ok());

  // Truncated byte stream (continuation bit points past the end).
  CompressedAdjacency truncated = compressed;
  truncated.bytes.pop_back();
  truncated.byte_offsets.back() = truncated.bytes.size();
  EXPECT_FALSE(graph::DecodeRow(truncated, 0, 3, kNodes, &decoded).ok());

  // Ids at or past num_nodes are rejected even when well-formed varints.
  EXPECT_FALSE(graph::DecodeRow(compressed, 0, 3, /*num_nodes=*/700,
                                &decoded)
                   .ok());

  // A frame whose offsets lie outside the byte blob.
  CompressedAdjacency bad_frame = compressed;
  bad_frame.byte_offsets.back() = bad_frame.bytes.size() + 10;
  EXPECT_FALSE(graph::DecodeRow(bad_frame, 0, 3, kNodes, &decoded).ok());

  // An overlong varint (> 5 bytes of continuation) never decodes.
  CompressedAdjacency overlong;
  overlong.bytes.assign({0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01});
  overlong.byte_offsets = {0, overlong.bytes.size()};
  EXPECT_FALSE(graph::DecodeRow(overlong, 0, 1, kNodes, &decoded).ok());
}

TEST(CsrCodecTest, ValidateCatchesMismatches) {
  constexpr NodeId kNodes = 100;
  std::vector<std::vector<NodeId>> rows(kNodes);
  rows[5] = {1, 7, 50};
  rows[99] = {0, 99};
  CompressedAdjacency compressed = EncodeRows(rows);

  std::vector<uint64_t> offsets{0};
  std::vector<NodeId> flat;
  for (const auto& row : rows) {
    flat.insert(flat.end(), row.begin(), row.end());
    offsets.push_back(flat.size());
  }
  EXPECT_TRUE(graph::ValidateCompressedAdjacency(compressed, kNodes, offsets,
                                                 flat)
                  .ok());

  // A single flipped id is caught.
  std::vector<NodeId> tampered = flat;
  tampered[1] = 8;
  EXPECT_FALSE(graph::ValidateCompressedAdjacency(compressed, kNodes, offsets,
                                                  tampered)
                   .ok());

  // Wrong row count is caught.
  EXPECT_FALSE(graph::ValidateCompressedAdjacency(compressed, kNodes - 1,
                                                  offsets, flat)
                   .ok());
}

}  // namespace
}  // namespace spammass

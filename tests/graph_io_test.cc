// Round-trip and error-path tests of graph (de)serialization: the text
// edge list, the host-name map and loads of the v2.2 binary container.
// The v2.2 corruption cases live in graph_mmap_test.cc.

#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "graph/graph_builder.h"
#include "util/random.h"

namespace spammass {
namespace {

using graph::GraphBuilder;
using graph::NodeId;
using graph::WebGraph;

class GraphIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  WebGraph SampleGraph() {
    GraphBuilder b(5);
    b.AddEdge(0, 1);
    b.AddEdge(0, 2);
    b.AddEdge(2, 3);
    b.AddEdge(3, 0);
    // Node 4 is isolated — round trips must preserve it.
    return b.Build();
  }

  void ExpectSameStructure(const WebGraph& a, const WebGraph& b) {
    ASSERT_EQ(a.num_nodes(), b.num_nodes());
    ASSERT_EQ(a.num_edges(), b.num_edges());
    for (NodeId x = 0; x < a.num_nodes(); ++x) {
      auto na = a.OutNeighbors(x);
      auto nb = b.OutNeighbors(x);
      ASSERT_EQ(na.size(), nb.size()) << "node " << x;
      EXPECT_TRUE(std::equal(na.begin(), na.end(), nb.begin()));
    }
  }
};

TEST_F(GraphIoTest, EdgeListRoundTrip) {
  WebGraph g = SampleGraph();
  std::string path = TempPath("edges.txt");
  ASSERT_TRUE(graph::WriteEdgeListText(g, path).ok());
  auto loaded = graph::ReadEdgeListText(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameStructure(g, loaded.value());
}

TEST_F(GraphIoTest, BinaryRoundTrip) {
  WebGraph g = SampleGraph();
  std::string path = TempPath("graph.bin");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());
  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameStructure(g, loaded.value());
}

TEST_F(GraphIoTest, EdgeListSkipsCommentsAndBlankLines) {
  std::string path = TempPath("comments.txt");
  {
    std::ofstream f(path);
    f << "# a comment\n\n0 1\n\n# another\n1 2\n";
  }
  auto loaded = graph::ReadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_nodes(), 3u);
  EXPECT_EQ(loaded.value().num_edges(), 2u);
}

TEST_F(GraphIoTest, EdgeListNormalizesDuplicatesAndSelfLoops) {
  std::string path = TempPath("dirty.txt");
  {
    std::ofstream f(path);
    f << "0 1\n0 1\n1 1\n1 0\n";
  }
  auto loaded = graph::ReadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_edges(), 2u);  // 0->1 and 1->0
}

TEST_F(GraphIoTest, EdgeListRejectsMalformedLines) {
  std::string path = TempPath("bad.txt");
  {
    std::ofstream f(path);
    f << "0 1 2\n";
  }
  EXPECT_FALSE(graph::ReadEdgeListText(path).ok());

  {
    std::ofstream f(path);
    f << "zero one\n";
  }
  EXPECT_FALSE(graph::ReadEdgeListText(path).ok());
}

TEST_F(GraphIoTest, MissingFileReported) {
  auto r = graph::ReadEdgeListText(TempPath("does-not-exist.txt"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kIoError);
}

TEST_F(GraphIoTest, BinaryRejectsCorruptMagic) {
  std::string path = TempPath("corrupt.bin");
  {
    std::ofstream f(path, std::ios::binary);
    f << "NOPE-not-a-graph";
  }
  EXPECT_FALSE(graph::ReadBinaryMmap(path).ok());
}

TEST_F(GraphIoTest, BinaryRejectsTruncation) {
  WebGraph g = SampleGraph();
  std::string path = TempPath("trunc.bin");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());
  // Chop the tail off.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 6));
  }
  EXPECT_FALSE(graph::ReadBinaryMmap(path).ok());
}

TEST_F(GraphIoTest, HostNamesRoundTrip) {
  GraphBuilder b;
  NodeId a = b.AddNode("alpha.example.com");
  NodeId c = b.AddNode("beta.example.org");
  b.AddEdge(a, c);
  WebGraph g = b.Build();
  std::string path = TempPath("hosts.tsv");
  ASSERT_TRUE(graph::WriteHostNames(g, path).ok());

  GraphBuilder b2(2);
  b2.AddEdge(0, 1);
  WebGraph g2 = b2.Build();
  ASSERT_TRUE(graph::ReadHostNames(path, &g2).ok());
  EXPECT_EQ(g2.HostName(0), "alpha.example.com");
  EXPECT_EQ(g2.HostName(1), "beta.example.org");
}

TEST_F(GraphIoTest, BinaryHostNamesRoundTrip) {
  GraphBuilder b;
  NodeId x = b.AddNode("alpha.example.com");
  NodeId y = b.AddNode("");  // Empty names must survive the blob encoding.
  NodeId z = b.AddNode("gamma.example.org");
  b.AddEdge(x, y);
  b.AddEdge(y, z);
  WebGraph g = b.Build();
  std::string path = TempPath("named.bin");
  ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());
  auto loaded = graph::ReadBinaryMmap(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameStructure(g, loaded.value());
  EXPECT_EQ(loaded.value().HostName(x), "alpha.example.com");
  EXPECT_EQ(loaded.value().HostName(y), "");
  EXPECT_EQ(loaded.value().HostName(z), "gamma.example.org");
}

TEST_F(GraphIoTest, BinaryRandomGraphRoundTripProperty) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    util::Rng rng(seed);
    const NodeId n = static_cast<NodeId>(20 + rng.UniformIndex(200));
    GraphBuilder b(n);
    const uint64_t edges = rng.UniformIndex(4 * n);
    for (uint64_t e = 0; e < edges; ++e) {
      auto u = static_cast<NodeId>(rng.UniformIndex(n));
      auto v = static_cast<NodeId>(rng.UniformIndex(n));
      if (u != v) b.AddEdge(u, v);
    }
    WebGraph g = b.Build();
    std::string path = TempPath("prop.bin");
    ASSERT_TRUE(graph::WriteBinaryV22(g, path).ok());
    auto loaded = graph::ReadBinaryMmap(path);
    ASSERT_TRUE(loaded.ok()) << "seed " << seed << ": "
                             << loaded.status().ToString();
    ExpectSameStructure(g, loaded.value());
  }
}

TEST_F(GraphIoTest, HostNamesMustCoverAllNodes) {
  std::string path = TempPath("partial.tsv");
  {
    std::ofstream f(path);
    f << "0\tonly.example.com\n";
  }
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  WebGraph g = b.Build();
  EXPECT_FALSE(graph::ReadHostNames(path, &g).ok());
}

}  // namespace
}  // namespace spammass

#include "synth/paper_graphs.h"

#include "graph/graph_builder.h"
#include "util/string_util.h"

namespace spammass::synth {

using core::LabelStore;
using core::NodeLabel;
using graph::GraphBuilder;
using graph::NodeId;

Figure1Graph MakeFigure1Graph(uint32_t k) {
  Figure1Graph fig;
  GraphBuilder builder;
  fig.x = builder.AddNode("x.example.com");
  fig.g0 = builder.AddNode("g0.example.org");
  fig.g1 = builder.AddNode("g1.example.org");
  fig.s0 = builder.AddNode("s0.spam.biz");
  for (uint32_t i = 1; i <= k; ++i) {
    fig.boosters.push_back(
        builder.AddNode(util::StringPrintf("s%u.spam.biz", i)));
  }
  builder.AddEdge(fig.g0, fig.x);
  builder.AddEdge(fig.g1, fig.x);
  builder.AddEdge(fig.s0, fig.x);
  for (NodeId s : fig.boosters) builder.AddEdge(s, fig.s0);
  fig.graph = builder.Build();

  fig.labels = LabelStore(fig.graph.num_nodes());
  fig.labels.Set(fig.x, NodeLabel::kSpam);
  fig.labels.Set(fig.s0, NodeLabel::kSpam);
  for (NodeId s : fig.boosters) fig.labels.Set(s, NodeLabel::kSpam);
  return fig;
}

Figure2Graph MakeFigure2Graph() {
  Figure2Graph fig;
  GraphBuilder builder;
  fig.x = builder.AddNode("x.example.com");
  fig.g0 = builder.AddNode("g0.example.org");
  fig.g1 = builder.AddNode("g1.example.org");
  fig.g2 = builder.AddNode("g2.example.org");
  fig.g3 = builder.AddNode("g3.example.org");
  fig.s0 = builder.AddNode("s0.spam.biz");
  fig.s1 = builder.AddNode("s1.spam.biz");
  fig.s2 = builder.AddNode("s2.spam.biz");
  fig.s3 = builder.AddNode("s3.spam.biz");
  fig.s4 = builder.AddNode("s4.spam.biz");
  fig.s5 = builder.AddNode("s5.spam.biz");
  fig.s6 = builder.AddNode("s6.spam.biz");

  builder.AddEdge(fig.g0, fig.x);
  builder.AddEdge(fig.g2, fig.x);
  builder.AddEdge(fig.s0, fig.x);
  builder.AddEdge(fig.g1, fig.g0);
  builder.AddEdge(fig.s5, fig.g0);
  builder.AddEdge(fig.g3, fig.g2);
  builder.AddEdge(fig.s6, fig.g2);
  builder.AddEdge(fig.s1, fig.s0);
  builder.AddEdge(fig.s2, fig.s0);
  builder.AddEdge(fig.s3, fig.s0);
  builder.AddEdge(fig.s4, fig.s0);
  fig.graph = builder.Build();

  fig.labels = LabelStore(fig.graph.num_nodes());
  // Table 1 computes the actual mass with V⁻ = {x, s0..s6}: the spam target
  // itself belongs to the spam side of the partition.
  for (NodeId s : {fig.x, fig.s0, fig.s1, fig.s2, fig.s3, fig.s4, fig.s5,
                   fig.s6}) {
    fig.labels.Set(s, NodeLabel::kSpam);
  }
  fig.good_core = {fig.g0, fig.g1, fig.g3};
  return fig;
}

}  // namespace spammass::synth

#include "pagerank/neumann.h"

#include <cmath>

#include "util/logging.h"

namespace spammass::pagerank {

using graph::NodeId;
using graph::WebGraph;

std::vector<double> NeumannSeries(const WebGraph& graph,
                                  const JumpVector& jump, double damping,
                                  int num_terms) {
  CHECK_EQ(jump.n(), graph.num_nodes());
  CHECK_GT(damping, 0.0);
  CHECK_LT(damping, 1.0);
  CHECK_GT(num_terms, 0);
  const uint32_t n = graph.num_nodes();
  // term = (1−c)·(c·Tᵀ)^k·v, starting at k = 0.
  std::vector<double> term = jump.ToDense();
  for (double& x : term) x *= 1.0 - damping;
  std::vector<double> sum = term;
  std::vector<double> next(n, 0.0);
  for (int k = 1; k < num_terms; ++k) {
    for (NodeId y = 0; y < n; ++y) {
      double acc = 0;
      for (NodeId x : graph.InNeighbors(y)) {
        acc += term[x] / graph.OutDegree(x);
      }
      next[y] = damping * acc;
    }
    term.swap(next);
    for (uint32_t i = 0; i < n; ++i) sum[i] += term[i];
  }
  return sum;
}

double NeumannTruncationBound(const JumpVector& jump, double damping,
                              int num_terms) {
  // Tail: (1−c)·Σ_{k≥L} c^k·‖(Tᵀ)^k v‖₁ ≤ (1−c)·‖v‖₁·c^L/(1−c) = c^L·‖v‖₁.
  return std::pow(damping, num_terms) * jump.Norm();
}

}  // namespace spammass::pagerank

// Convergence study of the solver (Section 2.2's linear-system
// formulation, solved with Jacobi): per-iteration L1 residuals on a
// synthetic web, plus sweeps-to-tolerance (EXPERIMENTS.md E14).

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "pagerank/solver.h"
#include "synth/generator.h"
#include "synth/scenario.h"
#include "util/logging.h"
#include "util/table.h"

using namespace spammass;

namespace {

pagerank::PageRankResult Run(const graph::WebGraph& graph) {
  pagerank::SolverOptions opt;
  opt.tolerance = 1e-12;
  opt.max_iterations = 300;
  opt.track_residuals = true;
  auto r = pagerank::ComputeUniformPageRank(graph, opt);
  CHECK_OK(r.status());
  return std::move(r.value());
}

}  // namespace

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::atof(argv[1]) : 0.1;
  uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;
  auto web = synth::GenerateWeb(synth::Yahoo2004Scenario(scale, seed));
  CHECK_OK(web.status());
  const graph::WebGraph& g = web.value().graph;
  std::printf("# graph: %u hosts, %llu edges\n\n", g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()));

  const pagerank::PageRankResult result = Run(g);
  util::TextTable summary;
  summary.SetHeader({"method", "sweeps to 1e-12", "final residual"});
  summary.AddRow({"jacobi", std::to_string(result.iterations),
                  util::FormatDouble(std::log10(result.residual), 1) +
                      " (log10)"});
  std::printf("== sweeps to tolerance ==\n\n%s\n", summary.ToString().c_str());

  std::printf("== residual decay (log10 of L1 residual per sweep) ==\n\n");
  util::TextTable decay;
  decay.SetHeader({"sweep", "jacobi"});
  for (int sweep : {1, 2, 4, 8, 16, 32, 64, 128}) {
    std::vector<std::string> row = {std::to_string(sweep)};
    if (static_cast<size_t>(sweep) <= result.residual_history.size()) {
      row.push_back(util::FormatDouble(
          std::log10(result.residual_history[sweep - 1]), 2));
    } else {
      row.push_back("-");
    }
    decay.AddRow(row);
  }
  std::printf("%s\n", decay.ToString().c_str());
  std::printf("expected shape: the residual falls by about c per sweep.\n");
  return 0;
}

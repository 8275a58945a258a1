// End-to-end test of the spammass_cli binary: generate → stats → pagerank
// → run (Algorithm 2 candidates and mass CSVs) → sites over real files.
// The binary path is injected by CMake (SPAMMASS_CLI_PATH).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "json_test_util.h"

namespace spammass {
namespace {

#ifndef SPAMMASS_CLI_PATH
#define SPAMMASS_CLI_PATH ""
#endif

class CliTest : public ::testing::Test {
 protected:
  /// This case's own working directory. Each case may run as a separate
  /// process (ctest -j), so cases share no files, not even the captured
  /// stdout/stderr.
  static std::string Dir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return testing::TempDir() + "/cli_test/" + info->test_suite_name() +
           "." + info->name();
  }

  void SetUp() override {
    std::string mkdir = "mkdir -p " + Dir();
    ASSERT_EQ(std::system(mkdir.c_str()), 0);
  }

  /// Runs the CLI inside Dir() with the given arguments, so relative
  /// output paths land there; returns the exit code.
  int Run(const std::string& args) {
    std::string cmd = "cd " + Dir() + " && " +
                      std::string(SPAMMASS_CLI_PATH) + " " + args + " > " +
                      Dir() + "/stdout.txt 2>" + Dir() + "/stderr.txt";
    int rc = std::system(cmd.c_str());
    return WEXITSTATUS(rc);
  }

  std::string Stdout() {
    std::ifstream f(Dir() + "/stdout.txt");
    return std::string((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
  }

  bool FileExists(const std::string& name) {
    std::ifstream f(Dir() + "/" + name);
    return f.good();
  }

  std::string ReadFile(const std::string& name) {
    std::ifstream f(Dir() + "/" + name);
    return std::string((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
  }

  void WriteFile(const std::string& name, const std::string& contents) {
    std::ofstream f(Dir() + "/" + name);
    f << contents;
  }

  /// The lines of a CSV file, header first.
  std::vector<std::string> CsvLines(const std::string& name) {
    std::ifstream f(Dir() + "/" + name);
    std::vector<std::string> lines;
    for (std::string line; std::getline(f, line);) lines.push_back(line);
    return lines;
  }

  /// The flagged count of `detector` in the first run of a manifest.
  double ManifestFlagged(const std::string& name, const std::string& detector) {
    testutil::JsonValue manifest;
    std::string error;
    EXPECT_TRUE(testutil::JsonParser::Parse(ReadFile(name), &manifest, &error))
        << error;
    for (const testutil::JsonValue& d :
         manifest["runs"][0]["detectors"].array) {
      if (d["name"].string == detector) return d["flagged"].number;
    }
    ADD_FAILURE() << detector << " missing from " << name;
    return -1;
  }
};

TEST_F(CliTest, FullWorkflow) {
  ASSERT_STRNE(SPAMMASS_CLI_PATH, "");
  const std::string d = Dir();

  // generate
  ASSERT_EQ(Run("generate --scale 0.03 --seed 21 --out-edges " + d +
                "/web.edges --out-hosts " + d + "/web.hosts --out-labels " +
                d + "/web.labels --out-core " + d + "/good.core"),
            0);
  EXPECT_TRUE(FileExists("web.edges"));
  EXPECT_TRUE(FileExists("web.hosts"));
  EXPECT_TRUE(FileExists("web.labels"));
  EXPECT_TRUE(FileExists("good.core"));

  // stats
  ASSERT_EQ(Run("stats --edges " + d + "/web.edges"), 0);
  EXPECT_NE(Stdout().find("hosts"), std::string::npos);
  EXPECT_NE(Stdout().find("no outlinks"), std::string::npos);

  // pagerank to CSV
  ASSERT_EQ(Run("pagerank --edges " + d + "/web.edges --out " + d +
                "/pr.csv"),
            0);
  EXPECT_TRUE(FileExists("pr.csv"));

  // Algorithm 2 with ground truth: candidates and mass to CSV
  ASSERT_EQ(Run("run --graph " + d + "/web.edges --detectors spam_mass "
                "--core " + d + "/good.core --labels " + d +
                "/web.labels --hosts " + d + "/web.hosts --tau 0.9 --rho 10 "
                "--candidates-out " + d + "/cand.csv --mass-out " + d +
                "/mass.csv --manifest " + d + "/manifest.json"),
            0);
  EXPECT_NE(Stdout().find("spam candidates"), std::string::npos);
  EXPECT_NE(Stdout().find("AUC over T"), std::string::npos);
  testutil::JsonValue manifest;
  std::string error;
  ASSERT_TRUE(testutil::JsonParser::Parse(ReadFile("manifest.json"), &manifest,
                                          &error))
      << error;
  const std::vector<std::string> mass = CsvLines("mass.csv");
  ASSERT_FALSE(mass.empty());
  EXPECT_EQ(mass[0], "node,scaled_pagerank,scaled_abs_mass,rel_mass");
  EXPECT_EQ(mass.size() - 1, manifest["runs"][0]["graph"]["nodes"].number);
  const std::vector<std::string> candidates = CsvLines("cand.csv");
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(candidates[0], "node,scaled_pagerank,rel_mass");
  EXPECT_GT(candidates.size(), 1u);
  EXPECT_EQ(candidates.size() - 1,
            ManifestFlagged("manifest.json", "spam_mass"));

  // sites aggregation
  ASSERT_EQ(Run("sites --edges " + d + "/web.edges --hosts " + d +
                "/web.hosts --out-edges " + d + "/sites.edges"),
            0);
  EXPECT_TRUE(FileExists("sites.edges"));
  EXPECT_NE(Stdout().find("aggregated"), std::string::npos);
}

TEST_F(CliTest, RunSubcommandWritesManifestForTextAndBinary) {
  ASSERT_STRNE(SPAMMASS_CLI_PATH, "");
  const std::string d = Dir();

  // Generate the same graph in both on-disk formats.
  ASSERT_EQ(Run("generate --scale 0.03 --seed 33 --out-edges " + d +
                "/run.edges --out-paged " + d + "/run.smwg --out-labels " +
                d + "/run.labels --out-core " + d + "/run.core"),
            0);

  // One invocation, two detectors, both formats; sniffing picks the loader.
  ASSERT_EQ(Run("run --graph " + d + "/run.edges," + d +
                "/run.smwg --detectors spam_mass,trustrank --core " + d +
                "/run.core --labels " + d + "/run.labels --manifest " + d +
                "/manifest.json"),
            0);
  ASSERT_TRUE(FileExists("manifest.json"));
  EXPECT_NE(Stdout().find("base PageRank solves: 1"), std::string::npos);

  // The manifest is valid JSON with the expected structure: a wrapper
  // holding one run per graph, each echoing config and solver counters.
  std::ifstream f(d + "/manifest.json");
  std::string json((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(json.front(), '{');
  for (const char* needle :
       {"\"schema_version\":3", "\"tool\":\"spammass_cli run\"", "\"runs\":[",
        "\"format\":\"text\"", "\"format\":\"binary\"",
        "\"base_pagerank_solves\":1", "\"spam_mass\"", "\"trustrank\"",
        "\"stages\"", "\"iterations\"", "\"convergence\"", "\"resources\"",
        "\"metrics\""}) {
    EXPECT_NE(json.find(needle), std::string::npos)
        << "manifest missing " << needle << "\n" << json;
  }
  // Round-trip sanity without a JSON parser in the test: balanced braces.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST_F(CliTest, ObsOutputsMatchManifestAndAreParseable) {
  ASSERT_STRNE(SPAMMASS_CLI_PATH, "");
  const std::string d = Dir();

  // A parallel Jacobi run with convergence tracking and both telemetry
  // outputs. --threads 2 makes the thread pool execute tasks, so the
  // trace must contain pool_task spans on named worker tracks.
  ASSERT_EQ(Run("run --graph synthetic:0.02:5 --detectors "
                "spam_mass,trustrank --threads 2 "
                "--record-convergence --manifest " + d +
                "/obs_manifest.json --trace-out " + d +
                "/obs_trace.json --metrics-out " + d + "/obs_metrics.json"),
            0);

  testutil::JsonValue trace, metrics, manifest;
  std::string error;
  ASSERT_TRUE(testutil::JsonParser::Parse(ReadFile("obs_trace.json"),
                                          &trace, &error)) << error;
  ASSERT_TRUE(testutil::JsonParser::Parse(ReadFile("obs_metrics.json"),
                                          &metrics, &error)) << error;
  ASSERT_TRUE(testutil::JsonParser::Parse(ReadFile("obs_manifest.json"),
                                          &manifest, &error)) << error;

  // Trace: Chrome trace-event JSON with solver and thread-pool spans.
  EXPECT_EQ(trace["displayTimeUnit"].string, "ms");
  size_t solver_spans = 0, pool_spans = 0, stage_spans = 0;
  for (const testutil::JsonValue& event : trace["traceEvents"].array) {
    if (event["ph"].string != "X") continue;
    solver_spans += event["name"].string == "pagerank.solve";
    pool_spans += event["name"].string == "pool_task";
    stage_spans += event["name"].string == "stage";
  }
  EXPECT_GT(solver_spans, 0u);
  EXPECT_GT(pool_spans, 0u);
  EXPECT_GT(stage_spans, 0u);

  // Metrics: the snapshot's solve counter equals the manifest's solve
  // count — the counters increment at exactly the workspace RecordSolve
  // sites, so any drift is a bug.
  const testutil::JsonValue& run = manifest["runs"][0];
  EXPECT_EQ(manifest["schema_version"].number, 3);
  EXPECT_EQ(run["schema_version"].number, 3);
  const double total_solves = run["solver_runs"]["total_solves"].number;
  EXPECT_GT(total_solves, 0);
  EXPECT_EQ(metrics["counters"]["pagerank.solves"].number, total_solves);
  EXPECT_EQ(run["metrics"]["counters"]["pagerank.solves"].number,
            total_solves);
  EXPECT_GT(metrics["counters"]["threadpool.tasks"].number, 0);

  // Convergence: --record-convergence produced a residual curve per solve
  // whose length matches the reported iteration count.
  const testutil::JsonValue& convergence = run["convergence"];
  ASSERT_TRUE(convergence.is_array());
  ASSERT_GT(convergence.array.size(), 0u);
  for (const testutil::JsonValue& solve : convergence.array) {
    ASSERT_TRUE(solve.Has("residual_curve")) << solve["name"].string;
    EXPECT_EQ(solve["residual_curve"].array.size(),
              solve["iterations"].number)
        << solve["name"].string;
  }
}

TEST_F(CliTest, MetricsFormatPromRoundTrip) {
  ASSERT_STRNE(SPAMMASS_CLI_PATH, "");
  const std::string d = Dir();

  // --out-paged writes the v2.2 container, which every load maps.
  ASSERT_EQ(Run("generate --scale 0.03 --seed 55 --out-paged " + d +
                "/prom.smwg --out-core " + d + "/prom.core"),
            0);
  // The acceptance path: a mapped threaded run exporting Prometheus text.
  ASSERT_EQ(Run("run --graph " + d + "/prom.smwg --threads 2 "
                "--detectors spam_mass --core " + d + "/prom.core "
                "--manifest " + d + "/prom_manifest.json "
                "--metrics-format prom --metrics-out " + d +
                "/metrics.prom"),
            0);

  const std::string prom = ReadFile("metrics.prom");
  ASSERT_FALSE(prom.empty());
  EXPECT_EQ(prom.back(), '\n');
  // Counters are typed and suffixed; the solver path must have counted.
  for (const char* needle :
       {"# TYPE pagerank_solves_total counter", "pagerank_solves_total ",
        "# TYPE graph_mmap_mapped_bytes gauge",
        "graph_mmap_resident_bytes ",
        "graph_mmap_resident_bytes_targets ",
        "process_resource_samples_total "}) {
    EXPECT_NE(prom.find(needle), std::string::npos)
        << "prom output missing " << needle << "\n" << prom;
  }
#if defined(__linux__)
  // Resource groups are present (not zero, not faked) on Linux.
  for (const char* needle :
       {"# TYPE process_rss_bytes gauge", "process_rss_bytes ",
        "# TYPE process_major_faults_total counter"}) {
    EXPECT_NE(prom.find(needle), std::string::npos)
        << "prom output missing " << needle << "\n" << prom;
  }
#endif

  // Cross-check one value against the JSON manifest: the prom counter
  // line for pagerank.solves must equal the manifest's total_solves.
  testutil::JsonValue manifest;
  std::string error;
  ASSERT_TRUE(testutil::JsonParser::Parse(ReadFile("prom_manifest.json"),
                                          &manifest, &error)) << error;
  const double total_solves =
      manifest["runs"][0]["solver_runs"]["total_solves"].number;
  const size_t at = prom.find("\npagerank_solves_total ");
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(std::stod(prom.substr(at + 23)), total_solves);
  // Mapped-vs-resident shows up in the manifest's resources block too.
  EXPECT_NE(ReadFile("prom_manifest.json").find("\"mmap\":{\"mapped_bytes\""),
            std::string::npos);
}

TEST_F(CliTest, MetricsFormatRejectsUnknown) {
  const std::string d = Dir();
  ASSERT_EQ(Run("generate --scale 0.02 --seed 7 --out-edges " + d +
                "/mf.edges --out-core " + d + "/mf.core"),
            0);
  EXPECT_NE(Run("stats --edges " + d + "/mf.edges --metrics-format xml"),
            0);
  EXPECT_NE(ReadFile("stderr.txt").find("metrics-format"),
            std::string::npos);
}

TEST_F(CliTest, MetricsOutUnwritablePathFailsWithPath) {
  // A parent "directory" that is actually a regular file defeats the
  // parent-creation step for any user (including root, unlike chmod 000).
  const std::string d = Dir();
  ASSERT_EQ(Run("generate --scale 0.02 --seed 5 --out-edges " + d +
                "/uw.edges --out-core " + d + "/uw.core"),
            0);
  { std::ofstream blocker(d + "/blocker"); blocker << "x"; }
  EXPECT_NE(Run("stats --edges " + d + "/uw.edges --metrics-format prom "
                "--metrics-out " + d + "/blocker/metrics.prom"),
            0);
  EXPECT_NE(ReadFile("stderr.txt").find("blocker"), std::string::npos);
}

TEST_F(CliTest, RunRejectsUnknownDetector) {
  const std::string d = Dir();
  ASSERT_EQ(Run("generate --scale 0.02 --seed 3 --out-edges " + d +
                "/u.edges --out-core " + d + "/u.core"),
            0);
  EXPECT_NE(Run("run --graph " + d + "/u.edges --core " + d +
                "/u.core --detectors not_a_detector"),
            0);
}

TEST_F(CliTest, RunWarnsAboutUnconvergedSolves) {
  const std::string d = Dir();
  ASSERT_EQ(Run("generate --scale 0.05 --seed 7 --out-edges " + d +
                "/web.edges --out-core " + d + "/web.core"),
            0);
  const std::string run = "run --graph " + d + "/web.edges --core " + d +
                          "/web.core --detectors spam_mass,trustrank "
                          "--manifest " + d + "/run.json --candidates-out " +
                          d + "/cand.csv";
  // Three sweeps leave every solve short of the tolerance; the verdicts
  // still print and save, and one line names the solves that did not
  // converge.
  ASSERT_EQ(Run(run + " --max-iterations 3"), 0);
  std::string out = Stdout();
  EXPECT_NE(out.find("spam candidates"), std::string::npos) << out;
  EXPECT_TRUE(FileExists("cand.csv"));
  const size_t warning = out.find("warning: solves not converged: ");
  ASSERT_NE(warning, std::string::npos) << out;
  EXPECT_GT(warning, out.find("spam_mass")) << "after the detector table";
  const std::string line =
      out.substr(warning, out.find('\n', warning) - warning);
  for (const char* solve : {"trustrank_seed_selection (", "base_pagerank (",
                            "core_pagerank (", "trustrank ("}) {
    EXPECT_NE(line.find(solve), std::string::npos) << solve << "\n" << line;
  }

  ASSERT_EQ(Run(run), 0);
  out = Stdout();
  EXPECT_EQ(out.find("not converged"), std::string::npos) << out;
}

TEST_F(CliTest, RunRejectsRemovedSolverMethods) {
  // Jacobi is the only solver, so --method is gone: every value, the one
  // that used to be the default included, is refused before any graph is
  // read.
  for (const char* method : {"jacobi", "power-iteration", "gauss-seidel",
                             "sor"}) {
    EXPECT_EQ(Run(std::string("run --method ") + method), 1) << method;
    const std::string err = ReadFile("stderr.txt");
    EXPECT_NE(err.find("unknown flag --method"), std::string::npos) << err;
  }
}

TEST_F(CliTest, RunRejectsMalformedNumericFlags) {
  // Every numeric flag must parse in full. The graph does not exist: a bad
  // value is refused before any graph is read and before any pool exists.
  for (const char* args :
       {"--threads abc", "--threads 4x", "--threads 0",
        "--max-iterations 1e3", "--tau 0.9B", "--resource-sample-ms 10ms"}) {
    EXPECT_EQ(Run(std::string("run --graph missing.edges ") + args), 1)
        << args;
    const std::string err = ReadFile("stderr.txt");
    const std::string flag(args, std::string(args).find(' '));
    EXPECT_NE(err.find(flag), std::string::npos) << args << "\n" << err;
    EXPECT_EQ(err.find("missing.edges"), std::string::npos) << err;
  }
  EXPECT_EQ(Run("generate --scale 0.02x --out-edges g.edges"), 1);
  EXPECT_NE(ReadFile("stderr.txt").find("--scale"), std::string::npos);
  EXPECT_FALSE(FileExists("g.edges"));
}

TEST_F(CliTest, GenerateWritesOnlyTheRequestedFiles) {
  ASSERT_EQ(Run("generate --scale 0.02 --seed 3 --out-paged g.smwg"), 0);
  EXPECT_TRUE(FileExists("g.smwg"));
  EXPECT_FALSE(FileExists("web.edges"));
  EXPECT_NE(Stdout().find("-> g.smwg\n"), std::string::npos) << Stdout();

  ASSERT_EQ(Run("generate --scale 0.02 --seed 3 --out-edges g.edges "
                "--out-core g.core"),
            0);
  EXPECT_NE(Stdout().find("-> g.edges, g.core\n"), std::string::npos)
      << Stdout();

  // No graph output asked for: refused before anything is generated.
  for (const char* args : {"", " --out-core other.core"}) {
    EXPECT_EQ(Run(std::string("generate --scale 0.02 --seed 3") + args), 1)
        << args;
    EXPECT_NE(ReadFile("stderr.txt").find("--out-edges or --out-paged"),
              std::string::npos)
        << ReadFile("stderr.txt");
  }
  EXPECT_FALSE(FileExists("web.edges"));
  EXPECT_FALSE(FileExists("other.core"));
}

TEST_F(CliTest, RunRejectsCsvOutputsUnlessOneSpamMassGraph) {
  // Both CSVs hold one graph's spam_mass results. The graph paths do not
  // exist: the flags are refused before any graph is read.
  for (const char* flag : {"--candidates-out", "--mass-out"}) {
    for (const char* args :
         {"--graph a.edges,b.edges", "--graph a.edges --detectors trustrank",
          "--graph a.edges,b.edges --detectors spam_mass,trustrank"}) {
      const std::string out = Dir() + "/out.csv";
      EXPECT_EQ(Run(std::string("run ") + args + " " + flag + " " + out), 1)
          << flag << " " << args;
      const std::string err = ReadFile("stderr.txt");
      EXPECT_NE(err.find("InvalidArgument"), std::string::npos) << err;
      EXPECT_NE(err.find(std::string(flag) +
                         " needs --detectors to include spam_mass"),
                std::string::npos)
          << err;
      EXPECT_FALSE(FileExists("out.csv"));
    }
  }
}

TEST_F(CliTest, RunHandlesDegenerateInputs) {
  const std::string d = Dir();
  auto run = [&](const std::string& graph, const std::string& core) {
    return Run("run --graph " + d + "/" + graph + " --core " + d + "/" + core +
               " --detectors spam_mass --manifest " + d +
               "/run.json --candidates-out " + d + "/cand.csv");
  };
  // Clean errors: an empty good core, an empty graph file.
  WriteFile("pair.edges", "0 1\n");
  WriteFile("empty.core", "");
  EXPECT_EQ(run("pair.edges", "empty.core"), 1);
  EXPECT_NE(ReadFile("stderr.txt").find("good core must not be empty"),
            std::string::npos)
      << ReadFile("stderr.txt");
  WriteFile("empty.edges", "");
  WriteFile("zero.core", "0\n");
  EXPECT_EQ(run("empty.edges", "zero.core"), 1);
  EXPECT_NE(ReadFile("stderr.txt").find("empty graph file"), std::string::npos)
      << ReadFile("stderr.txt");

  // One dangling host, and a two-host chain: verdicts with no flags.
  WriteFile("single.edges", "# nodes: 1\n");
  for (const char* graph : {"single.edges", "pair.edges"}) {
    ASSERT_EQ(run(graph, "zero.core"), 0) << graph << ReadFile("stderr.txt");
    EXPECT_NE(Stdout().find("0 spam candidates"), std::string::npos)
        << Stdout();
    EXPECT_EQ(CsvLines("cand.csv").size(), 1u) << graph;
    EXPECT_EQ(ManifestFlagged("run.json", "spam_mass"), 0) << graph;
  }

  // A core holding every host estimates no host as spam (m̃ = 1 − γ), on a
  // graph whose assembled core flags some.
  ASSERT_EQ(Run("generate --scale 0.02 --seed 3 --out-edges " + d +
                "/web.edges --out-core " + d + "/web.core"),
            0);
  ASSERT_EQ(Run("run --graph " + d + "/web.edges --core " + d +
                "/web.core --detectors spam_mass --manifest " + d +
                "/run.json --mass-out " + d + "/mass.csv"),
            0);
  EXPECT_GT(ManifestFlagged("run.json", "spam_mass"), 0);
  const size_t n = CsvLines("mass.csv").size() - 1;
  std::string all;
  for (size_t x = 0; x < n; ++x) all += std::to_string(x) + "\n";
  WriteFile("all.core", all);
  ASSERT_EQ(run("web.edges", "all.core"), 0) << ReadFile("stderr.txt");
  EXPECT_EQ(CsvLines("cand.csv").size(), 1u);
  EXPECT_EQ(ManifestFlagged("run.json", "spam_mass"), 0);

  // The same inputs through trustrank, which needs no core.
  auto trustrank = [&](const std::string& graph, const std::string& extra) {
    return Run("run --graph " + d + "/" + graph +
               " --detectors trustrank --manifest " + d + "/run.json" +
               extra);
  };
  EXPECT_EQ(trustrank("empty.edges", ""), 1);
  EXPECT_NE(ReadFile("stderr.txt").find("empty graph file"), std::string::npos)
      << ReadFile("stderr.txt");
  for (const char* graph : {"single.edges", "pair.edges"}) {
    ASSERT_EQ(trustrank(graph, ""), 0) << graph << ReadFile("stderr.txt");
    EXPECT_EQ(ManifestFlagged("run.json", "trustrank"), 0) << graph;
  }
  // An oracle that calls every host spam leaves no seed: a clean error.
  WriteFile("spam.labels", "0\tspam\n1\tspam\n");
  EXPECT_EQ(trustrank("pair.edges", " --labels " + d + "/spam.labels"), 1);
  EXPECT_NE(ReadFile("stderr.txt").find("oracle rejected every seed candidate"),
            std::string::npos)
      << ReadFile("stderr.txt");
}

TEST_F(CliTest, PageRankBreaksTiesByNodeId) {
  // 200 hosts without in-links share one score; they follow the hub they
  // all link to in ascending id order, however the sort partitions them.
  std::string edges;
  for (int x = 0; x < 200; ++x) edges += std::to_string(x) + " 200\n";
  WriteFile("star.edges", edges);
  ASSERT_EQ(Run("pagerank --edges " + Dir() + "/star.edges --out " + Dir() +
                "/pr.csv"),
            0);
  const std::vector<std::string> rows = CsvLines("pr.csv");
  ASSERT_EQ(rows.size(), 202u);
  EXPECT_EQ(rows[1].substr(0, rows[1].find(',')), "200");
  for (int x = 0; x < 200; ++x) {
    const std::string& row = rows[static_cast<size_t>(x) + 2];
    ASSERT_EQ(row.substr(0, row.find(',')), std::to_string(x)) << row;
  }
}

TEST_F(CliTest, CsvOutputsPinExactBytes) {
  // A farm target (4) fed by boosters 5-9 and one link from good host 3;
  // the core {0, 1, 2} reaches the farm only through 3. The cells cover
  // negative masses, integer-valued cells and tied ranks.
  const std::string d = Dir();
  WriteFile("tiny.edges",
            "0 1\n1 0\n0 2\n1 3\n2 0\n3 4\n5 4\n6 4\n7 4\n8 4\n9 4\n"
            "4 5\n4 6\n4 7\n");
  WriteFile("tiny.core", "0\n1\n2\n");
  ASSERT_EQ(Run("run --graph " + d + "/tiny.edges --core " + d +
                "/tiny.core --detectors spam_mass --tau 0.5 --rho 1.5 "
                "--manifest " + d + "/run.json --candidates-out " + d +
                "/cand.csv --mass-out " + d + "/mass.csv"),
            0)
      << ReadFile("stderr.txt");
  EXPECT_EQ(ReadFile("cand.csv"),
            "node,scaled_pagerank,rel_mass\n"
            "5,8.375519,0.611886\n"
            "6,8.375519,0.611886\n"
            "7,8.375519,0.611886\n"
            "4,26.031243,0.559264\n");
  EXPECT_EQ(ReadFile("mass.csv"),
            "node,scaled_pagerank,scaled_abs_mass,rel_mass\n"
            "0,4.965894,-9.104138,-1.833333\n"
            "1,3.110505,-5.702592,-1.833333\n"
            "2,3.110505,-5.702592,-1.833333\n"
            "3,2.321965,-1.423602,-0.613102\n"
            "4,26.031243,14.558337,0.559264\n"
            "5,8.375519,5.124862,0.611886\n"
            "6,8.375519,5.124862,0.611886\n"
            "7,8.375519,5.124862,0.611886\n"
            "8,1,1,1\n"
            "9,1,1,1\n");
  ASSERT_EQ(Run("pagerank --edges " + d + "/tiny.edges --out " + d +
                "/pr.csv"),
            0)
      << ReadFile("stderr.txt");
  EXPECT_EQ(ReadFile("pr.csv"),
            "node,scaled_pagerank\n"
            "4,26.031243\n"
            "5,8.375519\n"
            "6,8.375519\n"
            "7,8.375519\n"
            "0,4.965894\n"
            "1,3.110505\n"
            "2,3.110505\n"
            "3,2.321965\n"
            "8,1\n"
            "9,1\n");
}

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_NE(Run("frobnicate"), 0);
  // detect and mass are output modes of run (--candidates-out, --mass-out).
  for (const char* removed : {"detect", "mass"}) {
    EXPECT_EQ(Run(std::string(removed) + " --edges web.edges"), 2) << removed;
    EXPECT_NE(ReadFile("stderr.txt").find("usage: spammass_cli"),
              std::string::npos)
        << removed;
  }
}

TEST_F(CliTest, UnknownFlagFails) {
  EXPECT_NE(Run("stats --bogus-flag 3"), 0);
  // A removed flag is rejected by name, not ignored.
  EXPECT_EQ(Run("run --compressed-gather"), 1);
  const std::string err = ReadFile("stderr.txt");
  EXPECT_NE(err.find("unknown flag --compressed-gather"), std::string::npos)
      << err;
}

TEST_F(CliTest, GraphInputFlagsHaveNoDefault) {
  // A file named like an old default is not read in place of the flag.
  WriteFile("web.edges", "0 1\n");
  for (const char* command : {"stats", "pagerank", "convert", "sites"}) {
    EXPECT_EQ(Run(command), 1) << command;
    const std::string err = ReadFile("stderr.txt");
    EXPECT_NE(err.find("InvalidArgument"), std::string::npos) << err;
    EXPECT_NE(err.find(std::string(command) + " needs --edges"),
              std::string::npos)
        << err;
  }
  EXPECT_EQ(Run("run"), 1);
  const std::string err = ReadFile("stderr.txt");
  EXPECT_NE(err.find("InvalidArgument: run needs --graph"), std::string::npos)
      << err;
  EXPECT_FALSE(FileExists("web.smwg"));
  EXPECT_FALSE(FileExists("run_manifest.json"));
}

TEST_F(CliTest, SitesUsesEmbeddedHostNames) {
  // A generated v2.2 file carries its host names, so sites needs no map.
  ASSERT_EQ(Run("generate --scale 0.02 --seed 3 --out-paged g.smwg"), 0);
  ASSERT_EQ(Run("sites --edges g.smwg --out-edges sites.edges"), 0)
      << ReadFile("stderr.txt");
  EXPECT_NE(Stdout().find("aggregated"), std::string::npos) << Stdout();
  EXPECT_TRUE(FileExists("sites.edges"));
}

TEST_F(CliTest, ConvertRefusesToOverwriteItsInput) {
  // The input stays mapped while convert writes: writing over it would
  // destroy it. Refused however the two paths are spelled.
  ASSERT_EQ(Run("generate --scale 0.02 --seed 3 --out-paged g.smwg"), 0);
  const std::string before = ReadFile("g.smwg");
  ASSERT_FALSE(before.empty());
  for (const char* out : {"g.smwg", "./g.smwg"}) {
    EXPECT_EQ(Run(std::string("convert --edges g.smwg --out ") + out), 1)
        << out;
    const std::string err = ReadFile("stderr.txt");
    EXPECT_NE(err.find("InvalidArgument: convert --out names the input file"),
              std::string::npos)
        << err;
    EXPECT_EQ(ReadFile("g.smwg"), before) << out;
  }
  // A different output still converts.
  ASSERT_EQ(Run("convert --edges g.smwg --out copy.smwg"), 0)
      << ReadFile("stderr.txt");
  EXPECT_EQ(ReadFile("copy.smwg"), before);
}

TEST_F(CliTest, RemovedMmapFlagIsRejected) {
  // Every v2.2 file is mapped, so --mmap is gone from every command.
  for (const char* command : {"run", "stats", "pagerank", "convert"}) {
    EXPECT_EQ(Run(std::string(command) + " --mmap"), 1) << command;
    const std::string err = ReadFile("stderr.txt");
    EXPECT_NE(err.find("unknown flag --mmap"), std::string::npos) << err;
  }
  ASSERT_EQ(Run("generate --scale 0.02 --seed 3 --out-paged g.smwg"), 0);
  ASSERT_EQ(Run("stats --edges g.smwg"), 0) << ReadFile("stderr.txt");
  EXPECT_NE(Stdout().find("mapped bytes"), std::string::npos) << Stdout();
}

TEST_F(CliTest, HelpSucceeds) {
  EXPECT_EQ(Run("generate --help"), 0);
}

TEST_F(CliTest, RunRejectsRemovedContainerByName) {
  // A 24-byte SMWG v1 file (empty graph): magic, version 1, zero node and
  // edge counts. No writer of that container is left, so the bytes are
  // spelled out here.
  const std::string path = Dir() + "/old_v1.smwg";
  {
    std::ofstream f(path, std::ios::binary);
    const char bytes[24] = {'S', 'M', 'W', 'G', 1};
    f.write(bytes, sizeof(bytes));
  }
  EXPECT_EQ(Run("run --graph " + path), 1);
  const std::string err = ReadFile("stderr.txt");
  EXPECT_NE(err.find("InvalidArgument"), std::string::npos) << err;
  EXPECT_NE(err.find("SMWG v1"), std::string::npos) << err;
  EXPECT_NE(err.find("convert"), std::string::npos) << err;
}

TEST_F(CliTest, MissingInputFileFails) {
  EXPECT_NE(Run("stats --edges /nonexistent/nope.edges"), 0);
}

}  // namespace
}  // namespace spammass

// End-to-end test of the spammass_cli binary: generate → stats → pagerank
// → mass → detect → sites over real files. The binary path is injected by
// CMake (SPAMMASS_CLI_PATH).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

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

  /// Runs the CLI with the given arguments; returns the exit code.
  int Run(const std::string& args) {
    std::string cmd = std::string(SPAMMASS_CLI_PATH) + " " + args +
                      " > " + Dir() + "/stdout.txt 2>" + Dir() +
                      "/stderr.txt";
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

  // mass to CSV
  ASSERT_EQ(Run("mass --edges " + d + "/web.edges --core " + d +
                "/good.core --out " + d + "/mass.csv"),
            0);
  EXPECT_TRUE(FileExists("mass.csv"));
  {
    std::ifstream f(d + "/mass.csv");
    std::string header;
    std::getline(f, header);
    EXPECT_EQ(header, "node,scaled_pagerank,scaled_abs_mass,rel_mass");
  }

  // detect with ground truth
  ASSERT_EQ(Run("detect --edges " + d + "/web.edges --core " + d +
                "/good.core --labels " + d + "/web.labels --hosts " + d +
                "/web.hosts --tau 0.9 --rho 10 --out " + d + "/cand.csv"),
            0);
  EXPECT_TRUE(FileExists("cand.csv"));
  EXPECT_NE(Stdout().find("spam candidates"), std::string::npos);
  EXPECT_NE(Stdout().find("AUC over T"), std::string::npos);

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
                "spam_mass,trustrank --threads 2 --method jacobi "
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

  // --out-paged writes the v2.2 container that --mmap requires.
  ASSERT_EQ(Run("generate --scale 0.03 --seed 55 --out-paged " + d +
                "/prom.smwg --out-core " + d + "/prom.core"),
            0);
  // The acceptance path: a mapped threaded run exporting Prometheus text.
  ASSERT_EQ(Run("run --graph " + d + "/prom.smwg --mmap --method jacobi "
                "--threads 2 "
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

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_NE(Run("frobnicate"), 0);
}

TEST_F(CliTest, UnknownFlagFails) {
  EXPECT_NE(Run("stats --bogus-flag 3"), 0);
  // A removed flag is rejected by name, not ignored.
  EXPECT_EQ(Run("run --compressed-gather"), 1);
  const std::string err = ReadFile("stderr.txt");
  EXPECT_NE(err.find("unknown flag --compressed-gather"), std::string::npos)
      << err;
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

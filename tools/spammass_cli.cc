// spammass_cli — command-line front end for the library. Subcommands:
//
//   generate   synthesize a Yahoo-2004-like host graph to disk
//   stats      structural statistics of a graph
//   convert    rewrite a graph between containers (text / paged v2.2)
//   pagerank   compute (scaled) PageRank scores
//   sites      aggregate a host graph to the site level
//   run        run a set of registered detectors, write a run manifest;
//              with spam_mass, print Algorithm 2's candidates and save
//              them (--candidates-out) and every host's mass (--mass-out)
//
// Graph inputs are format-sniffed (pipeline/graph_source.h): text edge
// lists ("src dst" per line) and SMWG binary containers both work
// everywhere a graph is read. Cores are node-id lists (one per line),
// labels are "<id>\t<label>" lines. Run `spammass_cli <command> --help`
// for per-command flags.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "core/label_io.h"
#include "eval/metrics.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "graph/site_aggregation.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/stage_timer.h"
#include "obs/trace.h"
#include "pagerank/solver.h"
#include "pipeline/context.h"
#include "pipeline/graph_source.h"
#include "pipeline/manifest.h"
#include "pipeline/pipeline.h"
#include "synth/generator.h"
#include "synth/scenario.h"
#include "util/file_util.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/string_util.h"
#include "util/table.h"

using namespace spammass;

namespace {

int Fail(const util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Writes a CSV file of `header` plus `num_rows` rows, row i's cells
/// appended by `append_row(i, &buf)` (without the newline). Rows are
/// assembled in one buffer flushed in ~1 MiB slabs, as
/// graph::WriteEdgeListText does, so memory stays flat in the row count.
/// Cells are written unquoted: callers emit numbers only.
template <typename AppendRow>
util::Status WriteCsvRows(const std::string& path, const char* header,
                          size_t num_rows, const AppendRow& append_row) {
  constexpr size_t kFlushBytes = 1u << 20;
  std::ofstream f(path, std::ios::binary);
  if (!f) return util::Status::IoError("cannot open for writing: " + path);
  std::string buf;
  buf.reserve(kFlushBytes + 256);
  buf += header;
  buf += '\n';
  for (size_t i = 0; i < num_rows; ++i) {
    append_row(i, &buf);
    buf += '\n';
    if (buf.size() >= kFlushBytes) {
      f.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  f.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!f) return util::Status::IoError("write failed: " + path);
  return util::Status::OK();
}

/// Numeric flag `name` parsed in full as a T (util::ParseNumber), unlike
/// FlagParser::GetInt/GetDouble: "4x", "1e3" as an integer and "-1" as an
/// unsigned fail. The first failure lands in *status; check it first.
template <typename T>
T ReadNumber(const util::FlagParser& flags, const char* name,
             util::Status* status) {
  T value{};
  const std::string& text = flags.GetString(name);
  if (!util::ParseNumber(text, &value) && status->ok()) {
    *status = util::Status::InvalidArgument(
        std::string("--") + name + ": not a valid number: '" + text + "'");
  }
  return value;
}

int Usage() {
  std::fprintf(stderr,
               "usage: spammass_cli "
               "<generate|stats|convert|pagerank|sites|run> "
               "[flags]\n");
  return 2;
}

/// Parses flags; on --help prints the command's flag list and exits.
bool ParseOrHelp(util::FlagParser* flags, const char* command, int argc,
                 const char* const* argv, int* exit_code) {
  flags->DefineBool("help", "show this help");
  util::Status status = flags->Parse(argc, argv);
  if (!status.ok()) {
    *exit_code = Fail(status);
    return false;
  }
  if (flags->GetBool("help")) {
    std::fprintf(stderr, "spammass_cli %s flags:\n%s", command,
                 flags->Help().c_str());
    *exit_code = 0;
    return false;
  }
  return true;
}

// ---- Telemetry lifecycle. Every subcommand defines --trace-out /
// ---- --metrics-out / --metrics-format / --resource-sample-ms and owns
// ---- one ObsSession: tracing and the background resource sampler start
// ---- right after flag parsing (so graph loads are covered), and the
// ---- session writes the requested files on exit — explicitly via
// ---- Finish() on success paths (errors reported), best-effort from the
// ---- destructor otherwise. Construction can fail (bad --metrics-format);
// ---- callers check status() before doing real work.

class ObsSession {
 public:
  static void DefineFlags(util::FlagParser* flags) {
    flags->Define("trace-out", "",
                  "write a Chrome trace-event JSON of this invocation "
                  "(open in Perfetto / chrome://tracing)");
    flags->Define("metrics-out", "",
                  "write a metrics snapshot of this invocation");
    flags->Define("metrics-format", "json",
                  "metrics snapshot format: json | prom (Prometheus text "
                  "exposition)");
    flags->Define("resource-sample-ms", "100",
                  "background RSS/fault/IO sampling period in ms "
                  "(0 disables the sampler thread; a final sample is "
                  "still taken at exit)");
  }

  explicit ObsSession(const util::FlagParser& flags)
      : trace_path_(flags.GetString("trace-out")),
        metrics_path_(flags.GetString("metrics-out")),
        metrics_format_(flags.GetString("metrics-format")),
        sample_ms_(ReadNumber<int64_t>(flags, "resource-sample-ms", &status_)),
        sampler_(obs::ResourceSampler::Options{
            std::max<int64_t>(sample_ms_, 1)}) {
    if (!status_.ok()) return;
    if (metrics_format_ != "json" && metrics_format_ != "prom") {
      status_ = util::Status::InvalidArgument(
          "unknown --metrics-format '" + metrics_format_ +
          "' (want json | prom)");
      return;
    }
    if (!trace_path_.empty()) {
      obs::SetCurrentThreadName("main");
      obs::StartTracing();
    }
    // Metrics record unconditionally (shard adds are near-free); the flag
    // only controls whether a snapshot file is written. Resource sampling
    // also runs unconditionally so RSS/fault curves exist in every
    // snapshot; --resource-sample-ms 0 keeps just the exit-time sample.
    if (sample_ms_ > 0) sampler_.Start();
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  ~ObsSession() { Finish(); }

  /// Construction outcome; not OK when a telemetry flag was invalid.
  const util::Status& status() const { return status_; }

  /// Finish() as the subcommand's exit code: 0, or 1 after printing the
  /// write error.
  int Exit() {
    const util::Status status = Finish();
    return status.ok() ? 0 : Fail(status);
  }

  /// Stops the sampler and tracing and writes the requested files.
  /// Idempotent; returns the first write error. Both writers create
  /// missing parent directories and name the failing path in errors
  /// (util::WriteTextFile), for the .prom output exactly as for JSON.
  util::Status Finish() {
    if (finished_) return util::Status::OK();
    finished_ = true;
    // One guaranteed exit-time sample, after Stop so it cannot interleave
    // with a background publish: even a run shorter than one period
    // reports real RSS/fault numbers.
    sampler_.Stop();
    sampler_.SampleOnce();
    util::Status result = status_;
    if (!trace_path_.empty()) {
      obs::StopTracing();
      util::Status status = obs::WriteTraceFile(trace_path_);
      if (status.ok()) {
        std::fprintf(stderr, "trace -> %s\n", trace_path_.c_str());
      } else if (result.ok()) {
        result = status;
      }
    }
    if (!metrics_path_.empty()) {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      const std::string snapshot = metrics_format_ == "prom"
                                       ? registry.SnapshotPrometheus()
                                       : registry.SnapshotJson() + "\n";
      util::Status status = util::WriteTextFile(metrics_path_, snapshot);
      if (status.ok()) {
        std::fprintf(stderr, "metrics (%s) -> %s\n", metrics_format_.c_str(),
                     metrics_path_.c_str());
      } else if (result.ok()) {
        result = status;
      }
    }
    return result;
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::string metrics_format_;
  // Declared before sampler_, whose period the constructor reads from them.
  util::Status status_;
  int64_t sample_ms_;
  obs::ResourceSampler sampler_;
  bool finished_ = false;
};

// ---- Shared flag-definition helpers. Every subcommand that loads a
// ---- graph or configures a solver goes through these; the defaults are
// ---- derived from SolverOptions::BenchPreset() so the CLI cannot drift
// ---- from the preset the eval pipeline and benches use.

constexpr uint32_t kMaxThreads = 1024;  // Larger --threads are refused.

void DefineSolverFlags(util::FlagParser* flags) {
  const pagerank::SolverOptions preset = pagerank::SolverOptions::BenchPreset();
  flags->Define("damping", util::StringPrintf("%g", preset.damping),
                "PageRank damping factor c");
  flags->Define("tolerance", util::StringPrintf("%g", preset.tolerance),
                "L1 convergence tolerance");
  flags->Define("max-iterations", std::to_string(preset.max_iterations),
                "iteration cap");
  flags->Define(
      "threads",
      std::to_string(
          std::clamp(std::thread::hardware_concurrency(), 1u, kMaxThreads)),
      "solver threads (1 to 1024)");
  flags->DefineBool("record-convergence",
                    "record per-iteration residual curves (manifest "
                    "convergence[].residual_curve; plot with "
                    "tools/plot_convergence.py)");
}

pagerank::SolverOptions SolverFromFlags(const util::FlagParser& flags,
                                        util::Status* status) {
  pagerank::SolverOptions solver = pagerank::SolverOptions::BenchPreset();
  solver.damping = ReadNumber<double>(flags, "damping", status);
  solver.tolerance = ReadNumber<double>(flags, "tolerance", status);
  solver.max_iterations = ReadNumber<int>(flags, "max-iterations", status);
  solver.num_threads = ReadNumber<uint32_t>(flags, "threads", status);
  if (status->ok() && (solver.num_threads < 1 ||
                       solver.num_threads > kMaxThreads)) {
    *status = util::Status::InvalidArgument("--threads must be in [1, 1024]");
  }
  solver.track_residuals = flags.GetBool("record-convergence");
  return solver;
}

void DefineGraphFlags(util::FlagParser* flags) {
  flags->Define("edges", "",
                "graph input path (text edge list or SMWG binary, "
                "auto-detected; a v2.2 file is mapped zero-copy)");
  flags->Define("hosts", "",
                "optional host-name map input path (a v2.2 file may embed "
                "the names)");
}

/// Loads the graph the shared graph flags name; `command` names the
/// subcommand in the error when --edges is missing.
util::Result<pipeline::LoadedGraph> LoadGraphFromFlags(
    const util::FlagParser& flags, const std::string& command) {
  if (flags.GetString("edges").empty()) {
    return util::Status::InvalidArgument(command + " needs --edges");
  }
  pipeline::GraphSource source =
      pipeline::GraphSource::FromFile(flags.GetString("edges"));
  if (!flags.GetString("hosts").empty()) {
    source.WithHostNamesFile(flags.GetString("hosts"));
  }
  return source.Load();
}

int CmdGenerate(int argc, const char* const* argv) {
  util::FlagParser flags;
  flags.Define("scale", "0.1", "scenario scale (1.0 ~ 170k hosts)");
  flags.Define("seed", "42", "generator seed");
  flags.Define("out-edges", "", "text edge-list output path");
  flags.Define("out-paged", "",
               "paged SMWG (v2.2) output path, mapped zero-copy where it "
               "is read; give this or --out-edges, or both");
  flags.Define("out-hosts", "", "optional host-name map output path");
  flags.Define("out-labels", "", "optional ground-truth label output path");
  flags.Define("out-core", "", "optional assembled good-core output path");
  ObsSession::DefineFlags(&flags);
  int code = 0;
  if (!ParseOrHelp(&flags, "generate", argc, argv, &code)) return code;
  ObsSession obs(flags);
  if (!obs.status().ok()) return Fail(obs.status());
  if (flags.GetString("out-edges").empty() &&
      flags.GetString("out-paged").empty()) {
    return Fail(util::Status::InvalidArgument(
        "generate needs --out-edges or --out-paged"));
  }

  util::Status status;
  const double scale = ReadNumber<double>(flags, "scale", &status);
  const uint64_t seed = ReadNumber<uint64_t>(flags, "seed", &status);
  if (!status.ok()) return Fail(status);
  obs::ScopedStageTimer timer("generate", nullptr);
  auto web = synth::GenerateWeb(synth::Yahoo2004Scenario(scale, seed));
  if (!web.ok()) return Fail(web.status());
  const synth::SyntheticWeb& w = web.value();
  if (!flags.GetString("out-edges").empty()) {
    status = graph::WriteEdgeListText(w.graph, flags.GetString("out-edges"));
    if (!status.ok()) return Fail(status);
  }
  if (!flags.GetString("out-paged").empty()) {
    status = graph::WriteBinaryV22(w.graph, flags.GetString("out-paged"));
    if (!status.ok()) return Fail(status);
  }
  if (!flags.GetString("out-hosts").empty()) {
    status = graph::WriteHostNames(w.graph, flags.GetString("out-hosts"));
    if (!status.ok()) return Fail(status);
  }
  if (!flags.GetString("out-labels").empty()) {
    status = core::WriteLabels(w.labels, flags.GetString("out-labels"));
    if (!status.ok()) return Fail(status);
  }
  if (!flags.GetString("out-core").empty()) {
    status = core::WriteNodeList(w.AssembledGoodCore(),
                                 flags.GetString("out-core"));
    if (!status.ok()) return Fail(status);
  }
  std::string written;
  for (const char* flag :
       {"out-edges", "out-paged", "out-hosts", "out-labels", "out-core"}) {
    const std::string path = flags.GetString(flag);
    if (!path.empty()) written += (written.empty() ? "" : ", ") + path;
  }
  std::printf("generated %s hosts, %s links in %.1fs -> %s\n",
              util::FormatWithCommas(w.graph.num_nodes()).c_str(),
              util::FormatWithCommas(w.graph.num_edges()).c_str(),
              timer.Seconds(), written.c_str());
  return obs.Exit();
}

int CmdStats(int argc, const char* const* argv) {
  util::FlagParser flags;
  DefineGraphFlags(&flags);
  ObsSession::DefineFlags(&flags);
  int code = 0;
  if (!ParseOrHelp(&flags, "stats", argc, argv, &code)) return code;
  ObsSession obs(flags);
  if (!obs.status().ok()) return Fail(obs.status());

  auto loaded = LoadGraphFromFlags(flags, "stats");
  if (!loaded.ok()) return Fail(loaded.status());
  auto stats = graph::ComputeGraphStats(loaded.value().graph());
  util::TextTable table;
  table.SetHeader({"metric", "value"});
  table.AddRow({"hosts", util::FormatWithCommas(stats.num_nodes)});
  table.AddRow({"links", util::FormatWithCommas(stats.num_edges)});
  table.AddRow({"no inlinks",
                util::FormatDouble(100 * stats.FractionNoInlinks(), 1) + "%"});
  table.AddRow({"no outlinks",
                util::FormatDouble(100 * stats.FractionNoOutlinks(), 1) + "%"});
  table.AddRow({"isolated",
                util::FormatDouble(100 * stats.FractionIsolated(), 1) + "%"});
  table.AddRow({"max indegree", std::to_string(stats.max_indegree)});
  table.AddRow({"max outdegree", std::to_string(stats.max_outdegree)});
  table.AddRow({"mean degree", util::FormatDouble(stats.mean_indegree, 2)});
  const graph::WebGraph& g = loaded.value().graph();
  if (g.is_mapped()) {
    // Zero-copy load: how much of the mapping the page cache has actually
    // faulted in so far (the out-of-core story in one number), then the
    // same split per array section. Republished as gauges so a
    // --metrics-out snapshot carries the numbers too.
    graph::PublishMappedResidency(g);
    table.AddRow({"mapped bytes", util::FormatWithCommas(g.mapped_bytes())});
    table.AddRow(
        {"resident bytes", util::FormatWithCommas(g.resident_bytes())});
    for (const graph::WebGraph::SectionResidency& s :
         g.MappedSectionResidency()) {
      table.AddRow({std::string("resident ") + s.name,
                    util::FormatWithCommas(s.resident_bytes) + " / " +
                        util::FormatWithCommas(s.mapped_bytes)});
    }
  }
  std::printf("%s", table.ToString().c_str());
  return obs.Exit();
}

int CmdConvert(int argc, const char* const* argv) {
  util::FlagParser flags;
  DefineGraphFlags(&flags);
  flags.Define("out", "web.smwg", "converted graph output path");
  flags.Define("format", "paged",
               "output container: paged (v2.2, mmap-loadable) | text "
               "(edge list)");
  ObsSession::DefineFlags(&flags);
  int code = 0;
  if (!ParseOrHelp(&flags, "convert", argc, argv, &code)) return code;
  ObsSession obs(flags);
  if (!obs.status().ok()) return Fail(obs.status());

  // The input stays mapped while the output is written, so writing over it
  // would destroy the graph being read: refuse before anything loads.
  const std::string out = flags.GetString("out");
  std::error_code ec;
  if (std::filesystem::exists(out, ec) &&
      std::filesystem::equivalent(flags.GetString("edges"), out, ec)) {
    return Fail(util::Status::InvalidArgument(
        "convert --out names the input file: " + out));
  }
  auto loaded = LoadGraphFromFlags(flags, "convert");
  if (!loaded.ok()) return Fail(loaded.status());
  const graph::WebGraph& g = loaded.value().graph();
  const std::string format = flags.GetString("format");
  util::Status status;
  if (format == "paged") {
    status = graph::WriteBinaryV22(g, out);
  } else if (format == "text") {
    status = graph::WriteEdgeListText(g, out);
  } else {
    return Fail(util::Status::InvalidArgument(
        "unknown --format '" + format + "' (want paged | text)"));
  }
  if (!status.ok()) return Fail(status);
  std::printf("wrote %s hosts, %s links as %s -> %s\n",
              util::FormatWithCommas(g.num_nodes()).c_str(),
              util::FormatWithCommas(g.num_edges()).c_str(), format.c_str(),
              out.c_str());
  return obs.Exit();
}

int CmdPageRank(int argc, const char* const* argv) {
  util::FlagParser flags;
  DefineGraphFlags(&flags);
  flags.Define("out", "", "CSV output path (node,scaled_pagerank); stdout "
                          "top-20 otherwise");
  flags.Define("top", "20", "rows to print when --out is unset");
  DefineSolverFlags(&flags);
  ObsSession::DefineFlags(&flags);
  int code = 0;
  if (!ParseOrHelp(&flags, "pagerank", argc, argv, &code)) return code;
  ObsSession obs(flags);
  if (!obs.status().ok()) return Fail(obs.status());

  util::Status status;
  pipeline::PipelineConfig config;
  config.solver = SolverFromFlags(flags, &status);
  const size_t top = ReadNumber<size_t>(flags, "top", &status);
  if (!status.ok()) return Fail(status);
  auto loaded = LoadGraphFromFlags(flags, "pagerank");
  if (!loaded.ok()) return Fail(loaded.status());

  obs::ScopedStageTimer timer("pagerank_solve", nullptr);
  pipeline::PipelineContext context(loaded.value(), config);
  pipeline::ArtifactNeeds needs;
  needs.base_pagerank = true;
  status = context.Prepare(needs);
  if (!status.ok()) return Fail(status);
  const pagerank::PageRankResult& pr = context.BasePageRank();
  auto scaled =
      pagerank::ScaledScores(pr.scores, config.solver.damping);
  std::fprintf(stderr, "solved in %d sweeps, %.2fs (converged: %s)\n",
               pr.iterations, timer.Seconds(), pr.converged ? "yes" : "no");

  std::vector<graph::NodeId> order(loaded.value().graph().num_nodes());
  for (graph::NodeId i = 0; i < order.size(); ++i) order[i] = i;
  // Ties (every host without in-links scores the same) go by node id.
  std::sort(order.begin(), order.end(), [&](graph::NodeId a, graph::NodeId b) {
    return scaled[a] != scaled[b] ? scaled[a] > scaled[b] : a < b;
  });
  if (!flags.GetString("out").empty()) {
    status = WriteCsvRows(
        flags.GetString("out"), "node,scaled_pagerank", order.size(),
        [&](size_t i, std::string* row) {
          *row += std::to_string(order[i]);
          *row += ',';
          *row += util::FormatDouble(scaled[order[i]], 6);
        });
    if (!status.ok()) return Fail(status);
    std::printf("wrote %u rows to %s\n", loaded.value().graph().num_nodes(),
                flags.GetString("out").c_str());
  } else {
    util::TextTable table;
    table.SetHeader({"node", "scaled_pagerank"});
    for (size_t i = 0; i < order.size() && i < top; ++i) {
      table.AddRow({std::to_string(order[i]),
                    util::FormatDouble(scaled[order[i]], 4)});
    }
    std::printf("%s", table.ToString().c_str());
  }
  return obs.Exit();
}

int CmdSites(int argc, const char* const* argv) {
  util::FlagParser flags;
  DefineGraphFlags(&flags);
  flags.Define("out-edges", "sites.edges", "site edge-list output path");
  flags.Define("out-hosts", "", "optional site-name map output path");
  ObsSession::DefineFlags(&flags);
  int code = 0;
  if (!ParseOrHelp(&flags, "sites", argc, argv, &code)) return code;
  ObsSession obs(flags);
  if (!obs.status().ok()) return Fail(obs.status());

  auto loaded = LoadGraphFromFlags(flags, "sites");
  if (!loaded.ok()) return Fail(loaded.status());
  auto sites = graph::AggregateToSites(loaded.value().graph());
  if (!sites.ok()) return Fail(sites.status());
  util::Status status = graph::WriteEdgeListText(
      sites.value().graph, flags.GetString("out-edges"));
  if (!status.ok()) return Fail(status);
  if (!flags.GetString("out-hosts").empty()) {
    status = graph::WriteHostNames(sites.value().graph,
                                   flags.GetString("out-hosts"));
    if (!status.ok()) return Fail(status);
  }
  std::printf("aggregated %s hosts into %s sites (%s links) -> %s\n",
              util::FormatWithCommas(loaded.value().graph().num_nodes()).c_str(),
              util::FormatWithCommas(sites.value().graph.num_nodes()).c_str(),
              util::FormatWithCommas(sites.value().graph.num_edges()).c_str(),
              flags.GetString("out-edges").c_str());
  return obs.Exit();
}

// ---- Algorithm 2 output of `run`, from the spam_mass detector's
// ---- candidates and the run's mass estimates.

/// Candidates printed to stdout; --candidates-out holds them all.
constexpr size_t kPrintedCandidates = 25;

/// Prints the spam_mass verdict: the candidate count, the first
/// kPrintedCandidates with host names and, when the graph carries labels,
/// the precision of the flags and the AUC of relative mass over
/// T = {x : p̂_x ≥ ρ}.
void PrintSpamMassVerdict(const pipeline::PipelineRun& run,
                          const std::vector<core::SpamCandidate>& candidates,
                          const core::DetectorConfig& detection) {
  const graph::WebGraph& web = run.source.graph();
  std::printf("\n%zu spam candidates (tau=%.2f, rho=%.1f)\n",
              candidates.size(), detection.relative_mass_threshold,
              detection.scaled_pagerank_threshold);
  util::TextTable table;
  table.SetHeader({"node", "host", "scaled_pagerank", "rel_mass"});
  for (size_t i = 0; i < candidates.size() && i < kPrintedCandidates; ++i) {
    const core::SpamCandidate& c = candidates[i];
    table.AddRow({std::to_string(c.node), std::string(web.HostName(c.node)),
                  util::FormatDouble(c.scaled_pagerank, 2),
                  util::FormatDouble(c.relative_mass, 4)});
  }
  std::printf("%s", table.ToString().c_str());

  if (!run.source.has_labels) return;
  const core::LabelStore& labels = run.source.labels();
  uint64_t tp = 0;
  for (const core::SpamCandidate& c : candidates) tp += labels.IsSpam(c.node);
  std::vector<eval::ScoredExample> examples;
  for (graph::NodeId x : core::PageRankFilteredNodes(
           run.mass_estimates, detection.scaled_pagerank_threshold)) {
    examples.push_back({run.mass_estimates.relative_mass[x], labels.IsSpam(x)});
  }
  std::printf("\nagainst ground truth: precision %.3f (%llu of %zu), "
              "AUC over T %.3f\n",
              candidates.empty() ? 0.0
                                 : static_cast<double>(tp) / candidates.size(),
              static_cast<unsigned long long>(tp), candidates.size(),
              eval::ComputeAuc(examples));
}

/// Algorithm 2's candidates in detection order: node,scaled_pagerank,rel_mass.
util::Status WriteCandidatesCsv(
    const std::vector<core::SpamCandidate>& candidates,
    const std::string& path) {
  return WriteCsvRows(path, "node,scaled_pagerank,rel_mass", candidates.size(),
                      [&](size_t i, std::string* row) {
                        const core::SpamCandidate& c = candidates[i];
                        *row += std::to_string(c.node);
                        *row += ',';
                        *row += util::FormatDouble(c.scaled_pagerank, 6);
                        *row += ',';
                        *row += util::FormatDouble(c.relative_mass, 6);
                      });
}

/// Every node's mass estimates, scaled like p̂:
/// node,scaled_pagerank,scaled_abs_mass,rel_mass.
util::Status WriteMassCsv(const core::MassEstimates& est,
                          const std::string& path) {
  const double scale =
      static_cast<double>(est.pagerank.size()) / (1.0 - est.damping);
  return WriteCsvRows(
      path, "node,scaled_pagerank,scaled_abs_mass,rel_mass",
      est.pagerank.size(), [&](size_t x, std::string* row) {
        *row += std::to_string(x);
        *row += ',';
        *row += util::FormatDouble(est.pagerank[x] * scale, 6);
        *row += ',';
        *row += util::FormatDouble(est.absolute_mass[x] * scale, 6);
        *row += ',';
        *row += util::FormatDouble(est.relative_mass[x], 6);
      });
}

int CmdRun(int argc, const char* const* argv) {
  util::FlagParser flags;
  flags.Define("graph", "",
               "comma-separated graph inputs; each entry is a file path "
               "(text or SMWG binary, sniffed) or "
               "'synthetic:<scale>:<seed>'");
  flags.Define("detectors", "spam_mass,trustrank",
               "comma-separated detector names (see --list-detectors)");
  flags.DefineBool("list-detectors", "print registered detectors and exit");
  flags.Define("core", "", "good-core node-list applied to file graphs");
  flags.Define("labels", "", "ground-truth labels applied to file graphs");
  flags.Define("hosts", "", "host-name map applied to file graphs");
  flags.Define("manifest", "run_manifest.json", "manifest JSON output path");
  flags.Define("gamma", "0.85", "estimated good fraction (Section 3.5)");
  flags.DefineBool("no-jump-scaling",
                   "use the raw v^core jump instead of the gamma-scaled w");
  DefineSolverFlags(&flags);
  flags.Define("tau", "0.98", "relative-mass threshold (Algorithm 2)");
  flags.Define("rho", "10", "scaled-PageRank threshold (Algorithm 2)");
  flags.Define("candidates-out", "",
               "CSV of every spam_mass candidate "
               "(node,scaled_pagerank,rel_mass); one graph only");
  flags.Define("mass-out", "",
               "CSV of every host's mass estimates "
               "(node,scaled_pagerank,scaled_abs_mass,rel_mass); spam_mass, "
               "one graph only");
  ObsSession::DefineFlags(&flags);
  int code = 0;
  if (!ParseOrHelp(&flags, "run", argc, argv, &code)) return code;

  if (flags.GetBool("list-detectors")) {
    for (const std::string& name :
         pipeline::DetectorRegistry::Global().Names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  ObsSession obs(flags);
  if (!obs.status().ok()) return Fail(obs.status());

  util::Status status;
  pipeline::PipelineConfig config;
  config.solver = SolverFromFlags(flags, &status);
  config.gamma = ReadNumber<double>(flags, "gamma", &status);
  core::DetectorConfig& detection = config.detection;
  detection.relative_mass_threshold = ReadNumber<double>(flags, "tau", &status);
  detection.scaled_pagerank_threshold =
      ReadNumber<double>(flags, "rho", &status);
  if (!status.ok()) return Fail(status);
  config.scale_core_jump = !flags.GetBool("no-jump-scaling");

  std::vector<std::string> detector_names;
  for (const std::string& name : util::Split(flags.GetString("detectors"),
                                             ',')) {
    if (!name.empty()) detector_names.push_back(name);
  }
  if (detector_names.empty()) {
    return Fail(util::Status::InvalidArgument("no detectors selected"));
  }

  std::vector<std::string> graph_specs;
  for (const std::string& spec : util::Split(flags.GetString("graph"), ',')) {
    if (!spec.empty()) graph_specs.push_back(spec);
  }
  if (graph_specs.empty()) {
    return Fail(util::Status::InvalidArgument("run needs --graph"));
  }

  // The CSV outputs hold one graph's spam_mass results; refuse them before
  // any graph loads when the run cannot produce exactly that.
  const std::string candidates_out = flags.GetString("candidates-out");
  const std::string mass_out = flags.GetString("mass-out");
  const bool runs_spam_mass =
      std::find(detector_names.begin(), detector_names.end(), "spam_mass") !=
      detector_names.end();
  for (const char* flag : {"candidates-out", "mass-out"}) {
    if (flags.GetString(flag).empty()) continue;
    if (!runs_spam_mass || graph_specs.size() != 1) {
      return Fail(util::Status::InvalidArgument(
          std::string("--") + flag +
          " needs --detectors to include spam_mass and --graph to name "
          "exactly one graph"));
    }
  }

  // One manifest wrapping every per-graph run.
  util::JsonWriter manifest;
  manifest.BeginObject();
  manifest.KV("schema_version", 3);
  manifest.KV("tool", "spammass_cli run");
  manifest.Key("runs").BeginArray();

  for (const std::string& spec : graph_specs) {
    pipeline::GraphSource source = pipeline::GraphSource::FromFile(spec);
    if (spec.rfind("synthetic:", 0) == 0) {
      const std::vector<std::string> parts = util::Split(spec, ':');
      if (parts.size() != 3) {
        return Fail(util::Status::InvalidArgument(
            "synthetic graph spec must be 'synthetic:<scale>:<seed>': " +
            spec));
      }
      source = pipeline::GraphSource::Scenario(
          std::strtod(parts[1].c_str(), nullptr),
          std::strtoull(parts[2].c_str(), nullptr, 10));
    } else {
      if (!flags.GetString("core").empty()) {
        source.WithCoreFile(flags.GetString("core"));
      }
      if (!flags.GetString("labels").empty()) {
        source.WithLabelsFile(flags.GetString("labels"));
      }
      if (!flags.GetString("hosts").empty()) {
        source.WithHostNamesFile(flags.GetString("hosts"));
      }
    }

    auto run =
        pipeline::RunDetectors(source, config, detector_names);
    if (!run.ok()) return Fail(run.status());

    std::printf("%s [%s]: %s hosts, %s links\n",
                run.value().source.description.c_str(),
                pipeline::GraphFormatToString(run.value().source.format),
                util::FormatWithCommas(
                    run.value().source.graph().num_nodes()).c_str(),
                util::FormatWithCommas(
                    run.value().source.graph().num_edges()).c_str());
    util::TextTable table;
    table.SetHeader({"detector", "flagged", "seconds"});
    for (const pipeline::DetectorOutput& output : run.value().detectors) {
      table.AddRow({output.detector, std::to_string(output.flagged_count),
                    util::FormatDouble(output.seconds, 3)});
    }
    std::printf("%s", table.ToString().c_str());
    std::string unconverged;
    for (const auto& [name, stats] : run.value().solve_stats) {
      if (stats.converged) continue;
      unconverged += util::StringPrintf(
          "%s%s (%d sweeps, residual %.3g)", unconverged.empty() ? "" : ", ",
          name.c_str(), stats.iterations, stats.residual);
    }
    if (!unconverged.empty()) {
      std::printf("warning: solves not converged: %s\n", unconverged.c_str());
    }
    std::printf("base PageRank solves: %llu (shared across detectors)\n",
                static_cast<unsigned long long>(
                    run.value().base_pagerank_solves));
    for (const pipeline::DetectorOutput& output : run.value().detectors) {
      if (output.detector != "spam_mass") continue;
      PrintSpamMassVerdict(run.value(), output.candidates, config.detection);
      if (!candidates_out.empty()) {
        status = WriteCandidatesCsv(output.candidates, candidates_out);
        if (!status.ok()) return Fail(status);
        std::printf("candidates -> %s\n", candidates_out.c_str());
      }
      if (!mass_out.empty()) {
        status = WriteMassCsv(run.value().mass_estimates, mass_out);
        if (!status.ok()) return Fail(status);
        std::printf("mass -> %s\n", mass_out.c_str());
      }
    }
    std::printf("\n");

    // Splice the per-run manifest (already-valid JSON) into the wrapper.
    manifest.RawValue(run.value().manifest_json);
  }

  manifest.EndArray();
  manifest.EndObject();
  const std::string manifest_path = flags.GetString("manifest");
  status = pipeline::WriteManifestFile(manifest.TakeString(), manifest_path);
  if (!status.ok()) return Fail(status);
  std::printf("manifest -> %s\n", manifest_path.c_str());
  return obs.Exit();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  int sub_argc = argc - 2;
  const char* const* sub_argv = argv + 2;
  if (command == "generate") return CmdGenerate(sub_argc, sub_argv);
  if (command == "stats") return CmdStats(sub_argc, sub_argv);
  if (command == "convert") return CmdConvert(sub_argc, sub_argv);
  if (command == "pagerank") return CmdPageRank(sub_argc, sub_argv);
  if (command == "sites") return CmdSites(sub_argc, sub_argv);
  if (command == "run") return CmdRun(sub_argc, sub_argv);
  return Usage();
}

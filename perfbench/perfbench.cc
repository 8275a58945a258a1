// perfbench — the measuring half of the repository benchmark; run.py drives
// it and turns its output into the reported metrics. Every subcommand is
// one process and prints exactly one JSON object on stdout:
//
//   gen     generate a Yahoo2004Scenario corpus into --dir (untimed input
//           preparation: text edge list, labels, assembled good core and
//           the 16 Figure 5 cores)
//   ingest  text edge list -> GraphSource text Load -> WriteBinaryV22, the
//           calls `spammass_cli convert --format paged` makes; then checks
//           that the written file reloads with the in-memory n, m and
//           section checksums
//   detect  mmap Load -> RunDetectors({spam_mass, trustrank}) ->
//           WriteManifestFile, the calls `spammass_cli run --mmap --method
//           jacobi --threads T` makes; with --trace, a fresh load then
//           replays the layer calls RunDetectors makes
//   sweep   mmap Load + base ComputeUniformPageRank (setup), then rounds
//           of one 16-lane ComputePageRankMulti followed by
//           MassEstimatesFromScores + DetectSpamCandidates per core
//   triad   STREAM-style triad, the host's memory-bandwidth ceiling
//
// Every setting not named above keeps the CLI default. Tracing records
// spans in memory around the library calls made from this file; spans
// are emitted with the subcommand's JSON when it ends.

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "core/good_core.h"
#include "core/label_io.h"
#include "core/spam_mass.h"
#include "graph/graph_io.h"
#include "obs/resource.h"
#include "pagerank/jump_vector.h"
#include "pagerank/solver.h"
#include "pagerank/workspace.h"
#include "pipeline/graph_source.h"
#include "pipeline/manifest.h"
#include "pipeline/pipeline.h"
#include "synth/generator.h"
#include "synth/scenario.h"
#include "util/checksum.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/random.h"
#include "util/status.h"
#include "util/timer.h"

namespace {

using namespace spammass;  // NOLINT(build/namespaces)

// ---- Process counters ----------------------------------------------------

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

uint64_t MinorFaults() { return obs::SampleResourceUsage().minor_faults; }

double PeakRssMb() {
  return static_cast<double>(obs::SampleResourceUsage().rss_peak_bytes) /
         1048576.0;
}

double RssMb() {
  return static_cast<double>(obs::SampleResourceUsage().rss_bytes) / 1048576.0;
}

// ---- In-memory span recorder ---------------------------------------------

/// Spans (name, start, end, parent) around the library calls this file
/// makes. Disabled, Begin/End cost nothing and nothing is recorded.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int Begin(std::string name, int parent) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), parent, clock_.Seconds(), 0, {}});
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end = clock_.Seconds();
  }

  void Attr(int id, const char* key, double value) {
    if (id >= 0) spans_[static_cast<size_t>(id)].attrs.emplace_back(key, value);
  }

  size_t size() const { return spans_.size(); }

  void Write(util::JsonWriter* out) const {
    out->Key("spans").BeginArray();
    for (const Span& s : spans_) {
      out->BeginObject();
      out->KV("name", s.name);
      out->KV("parent", s.parent);
      out->KV("start", s.start);
      out->KV("end", s.end);
      for (const auto& [key, value] : s.attrs) out->KV(key, value);
      out->EndObject();
    }
    out->EndArray();
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start;
    double end;
    std::vector<std::pair<std::string, double>> attrs;
  };

  bool enabled_;
  util::WallTimer clock_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int parent)
      : tracer_(tracer), id_(tracer->Begin(std::move(name), parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Attr(const char* key, double value) { tracer_->Attr(id_, key, value); }

 private:
  Tracer* tracer_;
  int id_;
};

/// What tracing costs per span, measured on a scratch recorder: Begin, End
/// and the costliest attribute probes a span takes (CPU time and RSS).
/// Multiplied by the span count it bounds what tracing added to a run.
double SpanCostSeconds() {
  constexpr int kSpans = 2000;
  Tracer scratch(true);
  util::WallTimer timer;
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(&scratch, "calibrate", -1);
    span.Attr("cpu_s", CpuSeconds());
    span.Attr("rss_mb", RssMb());
  }
  return timer.Seconds() / kSpans;
}

/// Spans and, when tracing, the span count and measured cost per span.
void WriteTrace(const Tracer& tracer, util::JsonWriter* out) {
  tracer.Write(out);
  if (!tracer.enabled()) return;
  out->KV("span_count", static_cast<uint64_t>(tracer.size()));
  out->KV("span_cost_s", SpanCostSeconds());
}

// ---- Shared helpers --------------------------------------------------------

/// What `spammass_cli run --mmap --method jacobi --threads T` configures:
/// the CLI flag defaults, which equal PipelineConfig's own defaults, with
/// the solver method and thread count overridden.
pipeline::PipelineConfig CliRunConfig(uint32_t threads) {
  pipeline::PipelineConfig config;
  config.solver.method = pagerank::Method::kJacobi;
  config.solver.num_threads = threads;
  return config;
}

/// Collects check failures; a subcommand passes when none were added.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok && errors_.size() < 16) errors_.push_back(what);
    failed_ |= !ok;
  }
  void ExpectOk(const util::Status& status, const std::string& what) {
    Expect(status.ok(), what + ": " + status.ToString());
  }
  bool ok() const { return !failed_; }
  void Write(util::JsonWriter* out) const {
    out->KV("ok", ok());
    out->Key("errors").BeginArray();
    for (const std::string& e : errors_) out->String(e);
    out->EndArray();
  }

 private:
  std::vector<std::string> errors_;
  bool failed_ = false;
};

bool NearlyEqual(double a, double b) {
  return std::abs(a - b) <= 1e-12 * std::max(std::abs(a), std::abs(b));
}

/// Fixed host sample for the mass-identity checks: `count` ids drawn from
/// the workload seed.
std::vector<graph::NodeId> SampleHosts(uint32_t n, uint64_t seed,
                                       uint32_t count) {
  util::Rng rng(seed ^ 0x5eed5a3b1e5ull);
  std::vector<graph::NodeId> sample(count);
  for (graph::NodeId& x : sample) {
    x = static_cast<graph::NodeId>(rng.UniformIndex(n));
  }
  return sample;
}

/// M̃ = p − p′ and m̃ = 1 − p′/p on the sampled hosts, from p, p′ and the
/// estimates read back at those hosts.
struct MassSample {
  std::vector<double> p, p_core, absolute, relative;

  void Take(const std::vector<graph::NodeId>& hosts,
            const core::MassEstimates& est) {
    for (graph::NodeId x : hosts) {
      p.push_back(est.pagerank[x]);
      p_core.push_back(est.core_pagerank[x]);
      absolute.push_back(est.absolute_mass[x]);
      relative.push_back(est.relative_mass[x]);
    }
  }

  bool Holds() const {
    for (size_t i = 0; i < p.size(); ++i) {
      if (!NearlyEqual(absolute[i], p[i] - p_core[i])) return false;
      if (!NearlyEqual(relative[i], 1.0 - p_core[i] / p[i])) return false;
    }
    return true;
  }
};

/// Precision of a verdict set against the generator's labels.
struct FlagCount {
  uint64_t flagged = 0;
  uint64_t spam = 0;

  void Add(const core::LabelStore& labels,
           const std::vector<core::SpamCandidate>& candidates) {
    for (const core::SpamCandidate& c : candidates) {
      ++flagged;
      spam += labels.IsSpam(c.node);
    }
  }
  double precision() const {
    return flagged == 0 ? 0.0
                        : static_cast<double>(spam) /
                              static_cast<double>(flagged);
  }
};

std::string Path(const util::FlagParser& flags, const char* file) {
  return flags.GetString("dir") + "/" + file;
}

int Emit(util::JsonWriter* out) {
  out->EndObject();
  std::printf("%s\n", out->TakeString().c_str());
  return 0;
}

int Fail(const util::Status& status) {
  std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
  return 1;
}

void SyncFile(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  fsync(fd);
  close(fd);
}

// ---- gen -------------------------------------------------------------------

/// The Figure 5 core family (Section 4.5): uniform subsamples of the
/// assembled core at eight fractions plus eight single-region cores.
constexpr double kCoreFractions[] = {1.0,  0.5,  0.25, 0.1,
                                     0.05, 0.02, 0.01, 0.001};
constexpr const char* kCoreRegions[] = {"usgov", "de", "fr", "es",
                                        "jp",    "uk", "cz", "it"};
constexpr size_t kSweepLanes = 16;

int CmdGen(const util::FlagParser& flags) {
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  auto web = synth::GenerateWeb(
      synth::Yahoo2004Scenario(flags.GetDouble("scale"), seed));
  if (!web.ok()) return Fail(web.status());
  const synth::SyntheticWeb& w = web.value();
  const std::vector<graph::NodeId> core = w.AssembledGoodCore();

  util::Status status = graph::WriteEdgeListText(w.graph, Path(flags, "web.edges"));
  if (status.ok()) status = core::WriteLabels(w.labels, Path(flags, "web.labels"));
  if (status.ok()) status = core::WriteNodeList(core, Path(flags, "good.core"));
  if (!status.ok()) return Fail(status);

  util::JsonWriter out;
  out.BeginObject();
  out.KV("n", w.graph.num_nodes());
  out.KV("m", w.graph.num_edges());
  out.KV("core_size", static_cast<uint64_t>(core.size()));
  util::Rng rng(seed + 17);
  std::vector<std::vector<graph::NodeId>> cores;
  for (double fraction : kCoreFractions) {
    cores.push_back(fraction == 1.0 ? core
                                    : core::SubsampleCore(core, fraction, &rng));
  }
  for (const char* region : kCoreRegions) {
    cores.push_back(core::FilterCoreByRegion(core, w.region_of_node,
                                             w.RegionIndex(region)));
  }
  out.Key("sweep_core_sizes").BeginArray();
  for (size_t i = 0; i < cores.size(); ++i) {
    if (cores[i].empty()) {
      return Fail(util::Status::FailedPrecondition(
          "empty sweep core " + std::to_string(i)));
    }
    status = core::WriteNodeList(
        cores[i], Path(flags, ("core_" + std::to_string(i) + ".core").c_str()));
    if (!status.ok()) return Fail(status);
    out.Uint(cores[i].size());
  }
  out.EndArray();
  for (const char* file : {"web.edges", "web.labels", "good.core"}) {
    SyncFile(Path(flags, file));
  }
  return Emit(&out);
}

// ---- ingest ----------------------------------------------------------------

/// One v2.2 section-table entry (docs/graph_format.md).
struct SectionEntry {
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t checksum_full = 0;
};

util::Result<std::vector<SectionEntry>> ReadSectionTable(
    const std::string& path) {
  std::vector<unsigned char> page(4096);
  std::ifstream in(path, std::ios::binary);
  if (!in.read(reinterpret_cast<char*>(page.data()), 4096)) {
    return util::Status::IoError("short v2.2 header: " + path);
  }
  uint32_t count = 0;
  std::memcpy(&count, page.data() + 32, 4);
  if (count < 6 || 40 + 40 * static_cast<size_t>(count) > 4088) {
    return util::Status::InvalidArgument("bad v2.2 section count");
  }
  std::vector<SectionEntry> table(count);
  for (uint32_t i = 0; i < count; ++i) {
    const unsigned char* entry = page.data() + 40 + 40 * i;
    std::memcpy(&table[i].offset, entry + 8, 8);
    std::memcpy(&table[i].length, entry + 16, 8);
    std::memcpy(&table[i].checksum_full, entry + 24, 8);
  }
  return table;
}

/// Byte views of the six persisted arrays, in v2.2 section order.
std::vector<std::pair<const void*, size_t>> GraphSections(
    const graph::WebGraph& g) {
  auto bytes = [](auto span) {
    return std::pair<const void*, size_t>(span.data(), span.size_bytes());
  };
  return {bytes(g.OutOffsets()), bytes(g.Targets()),       bytes(g.InOffsets()),
          bytes(g.Sources()),    bytes(g.InvOutDegrees()), bytes(g.DanglingNodes())};
}

/// The written file reloads (zero-copy) with the in-memory graph's n and m,
/// and each section's checksum — as recorded in the header, as read back
/// through the mapping, and as computed over the in-memory array — agrees.
void CheckReload(const graph::WebGraph& g, const std::string& path,
                 Checks* checks) {
  auto table = ReadSectionTable(path);
  auto mapped = graph::ReadBinaryMmap(path);
  checks->ExpectOk(table.status(), "section table");
  checks->ExpectOk(mapped.status(), "mmap reload");
  if (!table.ok() || !mapped.ok()) return;
  const graph::WebGraph& back = mapped.value();
  checks->Expect(back.num_nodes() == g.num_nodes() &&
                     back.num_edges() == g.num_edges(),
                 "reloaded n/m differ");
  const auto mem = GraphSections(g);
  const auto map = GraphSections(back);
  for (size_t i = 0; i < mem.size(); ++i) {
    const uint64_t want = util::Fnv1a64x8Digest(mem[i].first, mem[i].second);
    const uint64_t got = util::Fnv1a64x8Digest(map[i].first, map[i].second);
    checks->Expect(want == got && want == table.value()[i].checksum_full,
                   "section " + std::to_string(i) + " checksum differs");
  }
}

/// Self-test hook: flips the lowest byte of one f64 in the middle of the
/// inv_out_degree section, the way a faulty writer or disk would, leaving
/// the header alone. Only the numerics change, so a run over the file
/// stays memory-safe; the reload check must catch it.
util::Status TamperFile(const std::string& path) {
  auto table = ReadSectionTable(path);
  if (!table.ok()) return table.status();
  const SectionEntry& section = table.value()[4];
  const int fd = open(path.c_str(), O_RDWR);
  if (fd < 0) return util::Status::IoError("open for tamper: " + path);
  const off_t at =
      static_cast<off_t>(section.offset + (section.length / 2 & ~uint64_t{7}));
  unsigned char byte = 0;
  bool ok = pread(fd, &byte, 1, at) == 1;
  byte ^= 1;
  ok = ok && pwrite(fd, &byte, 1, at) == 1;
  close(fd);
  return ok ? util::Status::OK() : util::Status::IoError("tamper write");
}

int CmdIngest(const util::FlagParser& flags) {
  Tracer tracer(flags.GetBool("trace"));
  const std::string smwg = Path(flags, "web.smwg");
  Checks checks;

  util::WallTimer timer;
  const int root = tracer.Begin("setup", -1);
  std::optional<pipeline::LoadedGraph> loaded;
  {
    ScopedSpan span(&tracer, "graph.ingest_load", root);
    // No pool: `convert` loads serially.
    auto result = pipeline::GraphSource::FromFile(Path(flags, "web.edges")).Load();
    if (!result.ok()) return Fail(result.status());
    loaded.emplace(std::move(result.value()));
  }
  const graph::WebGraph& g = loaded->graph();
  {
    ScopedSpan span(&tracer, "graph.write_v22", root);
    util::Status status = graph::WriteBinaryV22(g, smwg);
    if (!status.ok()) return Fail(status);
  }
  tracer.End(root);
  const double setup_s = timer.Seconds();

  // Untimed: flush the container so the next phase does not compete with
  // its writeback, then check what was written.
  SyncFile(smwg);
  if (flags.GetBool("tamper")) checks.ExpectOk(TamperFile(smwg), "tamper");
  CheckReload(g, smwg, &checks);

  std::ifstream file(smwg, std::ios::binary | std::ios::ate);
  util::JsonWriter out;
  out.BeginObject();
  out.KV("setup_s", setup_s);
  out.KV("file_bytes", static_cast<uint64_t>(file.tellg()));
  out.KV("n", g.num_nodes());
  out.KV("m", g.num_edges());
  checks.Write(&out);
  WriteTrace(tracer, &out);
  return Emit(&out);
}

// ---- detect ----------------------------------------------------------------

/// Replays, on a fresh load, the layer calls RunDetectors makes for
/// {spam_mass, trustrank} (pipeline/context.cc Prepare, then the spam_mass
/// detector), in the same order and with the same arguments. Each call is
/// a span under `parent`; the time RunDetectors spends outside them (seed
/// sort, jump vectors, the trustrank verdict, manifest assembly) is the
/// parent's self time. Returns the replayed Algorithm 2 candidates.
std::vector<core::SpamCandidate> Replay(const util::FlagParser& flags,
                                        const pipeline::PipelineConfig& cfg,
                                        Tracer* tracer, int parent,
                                        Checks* checks) {
  auto loaded = pipeline::GraphSource::FromFile(Path(flags, "web.smwg"))
                    .WithCoreFile(Path(flags, "good.core"))
                    .WithMmap()
                    .Load();
  checks->ExpectOk(loaded.status(), "replay load");
  if (!loaded.ok()) return {};
  const graph::WebGraph& web = loaded.value().graph();
  const uint32_t n = web.num_nodes();
  pagerank::SolverWorkspace workspace;

  std::vector<graph::NodeId> seeds;
  {
    std::optional<graph::WebGraph> reversed;
    {
      ScopedSpan span(tracer, "graph.transpose", parent);
      const double rss0 = RssMb();
      reversed.emplace(web.Transposed());
      span.Attr("rss_delta_mb", RssMb() - rss0);
    }
    pagerank::SolverOptions seed_solver = cfg.solver;
    seed_solver.compressed_gather = false;
    std::optional<pagerank::PageRankResult> inverse;
    {
      ScopedSpan span(tracer, "pagerank.seed_solve", parent);
      const double cpu0 = CpuSeconds();
      auto result =
          pagerank::ComputeUniformPageRank(*reversed, seed_solver, &workspace);
      span.Attr("cpu_s", CpuSeconds() - cpu0);
      checks->ExpectOk(result.status(), "seed solve");
      if (!result.ok()) return {};
      inverse.emplace(std::move(result.value()));
      span.Attr("sweeps", inverse->iterations);
    }
    checks->Expect(inverse->converged, "seed solve did not converge");
    const std::vector<double>& scores = inverse->scores;
    std::vector<graph::NodeId> order(n);
    std::iota(order.begin(), order.end(), 0u);
    const uint32_t take = std::min(cfg.trustrank.seed_candidates, n);
    std::partial_sort(order.begin(), order.begin() + take, order.end(),
                      [&scores](graph::NodeId a, graph::NodeId b) {
                        if (scores[a] != scores[b]) return scores[a] > scores[b];
                        return a < b;
                      });
    seeds.assign(order.begin(), order.begin() + take);
  }

  const std::vector<pagerank::JumpVector> jumps = {
      pagerank::JumpVector::Uniform(n),
      pagerank::JumpVector::ScaledCore(n, loaded.value().good_core, cfg.gamma),
      pagerank::JumpVector::ScaledCore(n, seeds, 1.0)};
  std::optional<std::vector<pagerank::PageRankResult>> lanes;
  {
    ScopedSpan span(tracer, "pagerank.forward_solve", parent);
    const double cpu0 = CpuSeconds();
    auto result =
        pagerank::ComputePageRankMulti(web, jumps, cfg.solver, &workspace);
    span.Attr("cpu_s", CpuSeconds() - cpu0);
    checks->ExpectOk(result.status(), "forward solve");
    if (!result.ok()) return {};
    lanes.emplace(std::move(result.value()));
    int sweeps = 0, lane_iterations = 0;
    for (const pagerank::PageRankResult& lane : *lanes) {
      sweeps = std::max(sweeps, lane.iterations);
      lane_iterations += lane.iterations;
      checks->Expect(lane.converged, "forward lane did not converge");
    }
    span.Attr("sweeps", sweeps);
    span.Attr("lane_iterations", lane_iterations);
    span.Attr("edges", static_cast<double>(web.num_edges()));
  }

  std::optional<core::MassEstimates> est;
  {
    ScopedSpan span(tracer, "core.mass_from_scores", parent);
    est.emplace(core::MassEstimatesFromScores(
        (*lanes)[0].scores, std::move((*lanes)[1].scores), cfg.solver.damping));
  }
  std::vector<core::SpamCandidate> candidates;
  {
    ScopedSpan span(tracer, "core.detect_candidates", parent);
    candidates = core::DetectSpamCandidates(*est, cfg.detection);
  }
  MassSample sample;
  sample.Take(SampleHosts(n, static_cast<uint64_t>(flags.GetInt("seed")), 1024),
              *est);
  checks->Expect(sample.Holds(), "replay mass identity fails on the sample");
  return candidates;
}

int CmdDetect(const util::FlagParser& flags) {
  Tracer tracer(flags.GetBool("trace"));
  const pipeline::PipelineConfig config =
      CliRunConfig(static_cast<uint32_t>(flags.GetInt("threads")));
  Checks checks;

  const uint64_t faults0 = MinorFaults();
  const double cpu0 = CpuSeconds();
  util::WallTimer timer;
  const int root = tracer.Begin("run", -1);
  std::optional<pipeline::LoadedGraph> loaded;
  {
    ScopedSpan span(&tracer, "graph.mmap_load", root);
    auto result = pipeline::GraphSource::FromFile(Path(flags, "web.smwg"))
                      .WithCoreFile(Path(flags, "good.core"))
                      .WithMmap()
                      .Load();
    if (!result.ok()) return Fail(result.status());
    loaded.emplace(std::move(result.value()));
  }
  std::optional<pipeline::PipelineRun> run;
  const int detectors_span = tracer.Begin("pipeline.run_detectors", root);
  {
    auto result = pipeline::RunDetectors(std::move(*loaded), config,
                                         {"spam_mass", "trustrank"});
    if (!result.ok()) return Fail(result.status());
    run.emplace(std::move(result.value()));
  }
  tracer.End(detectors_span);
  {
    ScopedSpan span(&tracer, "pipeline.manifest_write", root);
    // The manifest wrapper `spammass_cli run` writes around each run.
    util::JsonWriter manifest;
    manifest.BeginObject();
    manifest.KV("schema_version", 3);
    manifest.KV("tool", "perfbench detect");
    manifest.Key("runs").BeginArray();
    manifest.RawValue(run->manifest_json);
    manifest.EndArray();
    manifest.EndObject();
    util::Status status = pipeline::WriteManifestFile(
        manifest.TakeString(), Path(flags, "run_manifest.json"));
    if (!status.ok()) return Fail(status);
  }
  tracer.End(root);
  const double run_s = timer.Seconds();
  const double cpu_s = CpuSeconds() - cpu0;
  const double peak_rss_mb = PeakRssMb();
  tracer.Attr(root, "minor_faults",
              static_cast<double>(MinorFaults() - faults0));

  // Checks (untimed).
  const graph::WebGraph& g = run->source.graph();
  for (const auto& [name, stats] : run->solve_stats) {
    checks.Expect(stats.converged, name + " did not converge");
  }
  const std::vector<core::SpamCandidate>* candidates = nullptr;
  for (const pipeline::DetectorOutput& output : run->detectors) {
    if (output.detector == "spam_mass") candidates = &output.candidates;
  }
  checks.Expect(candidates != nullptr, "no spam_mass output");
  FlagCount flags_seen;
  if (candidates != nullptr) {
    // Candidates carry p̂, m̃ and M̃ (scaled like p̂): m̃·p̂ = M̃ holds exactly
    // when M̃ = p − p′ and m̃ = 1 − p′/p; Algorithm 2's thresholds hold too.
    for (const core::SpamCandidate& c : *candidates) {
      const bool identity =
          std::abs(c.relative_mass * c.scaled_pagerank - c.scaled_absolute_mass) <=
          1e-9 * c.scaled_pagerank;
      const bool thresholds =
          c.relative_mass >= config.detection.relative_mass_threshold &&
          c.scaled_pagerank >= config.detection.scaled_pagerank_threshold;
      checks.Expect(identity && thresholds, "candidate violates Algorithm 2");
    }
    auto labels = core::ReadLabels(Path(flags, "web.labels"), g.num_nodes());
    checks.ExpectOk(labels.status(), "labels");
    if (labels.ok()) flags_seen.Add(labels.value(), *candidates);
    checks.Expect(flags_seen.precision() >= flags.GetDouble("precision-floor"),
                  "flag precision below the workload floor");
  }
  if (tracer.enabled() && candidates != nullptr) {
    const std::vector<core::SpamCandidate> replayed =
        Replay(flags, config, &tracer, detectors_span, &checks);
    bool same = replayed.size() == candidates->size();
    for (size_t i = 0; same && i < replayed.size(); ++i) {
      same = replayed[i].node == (*candidates)[i].node &&
             replayed[i].relative_mass == (*candidates)[i].relative_mass;
    }
    checks.Expect(same, "replayed verdicts differ from RunDetectors");
  }

  util::JsonWriter out;
  out.BeginObject();
  out.KV("run_s", run_s);
  out.KV("cpu_s", cpu_s);
  out.KV("peak_rss_mb", peak_rss_mb);
  out.KV("flagged", flags_seen.flagged);
  out.KV("precision", flags_seen.precision());
  out.KV("n", g.num_nodes());
  out.KV("m", g.num_edges());
  checks.Write(&out);
  WriteTrace(tracer, &out);
  return Emit(&out);
}

// ---- sweep -----------------------------------------------------------------

int CmdSweep(const util::FlagParser& flags) {
  Tracer tracer(flags.GetBool("trace"));
  const pipeline::PipelineConfig cfg =
      CliRunConfig(static_cast<uint32_t>(flags.GetInt("threads")));
  const std::string smwg = Path(flags, "web.smwg");
  Checks checks;

  // Setup, repeated: mmap load + the shared base PageRank p, each time with
  // a fresh workspace (its thread pool is created by the first solve).
  std::vector<double> setup_s;
  std::optional<pipeline::LoadedGraph> loaded;
  std::optional<pagerank::PageRankResult> base;
  std::unique_ptr<pagerank::SolverWorkspace> workspace;
  for (int64_t i = 0; i < flags.GetInt("setups"); ++i) {
    loaded.reset();
    base.reset();
    workspace = std::make_unique<pagerank::SolverWorkspace>();
    util::WallTimer timer;
    const int root = tracer.Begin("setup", -1);
    {
      ScopedSpan span(&tracer, "graph.mmap_load", root);
      auto result = pipeline::GraphSource::FromFile(smwg).WithMmap().Load();
      if (!result.ok()) return Fail(result.status());
      loaded.emplace(std::move(result.value()));
    }
    {
      ScopedSpan span(&tracer, "pagerank.base_solve", root);
      auto result = pagerank::ComputeUniformPageRank(loaded->graph(),
                                                     cfg.solver, workspace.get());
      if (!result.ok()) return Fail(result.status());
      base.emplace(std::move(result.value()));
      span.Attr("sweeps", base->iterations);
    }
    tracer.End(root);
    setup_s.push_back(timer.Seconds());
    checks.Expect(base->converged, "base solve did not converge");
  }
  const graph::WebGraph& g = loaded->graph();
  const uint32_t n = g.num_nodes();

  // Inputs for the rounds (untimed): the 16 cores as jump vectors, labels,
  // and the fixed host sample.
  std::vector<pagerank::JumpVector> jumps;
  for (size_t i = 0; i < kSweepLanes; ++i) {
    auto core = core::ReadNodeList(
        Path(flags, ("core_" + std::to_string(i) + ".core").c_str()), n);
    if (!core.ok()) return Fail(core.status());
    jumps.push_back(
        pagerank::JumpVector::ScaledCore(n, core.value(), cfg.gamma));
  }
  auto labels = core::ReadLabels(Path(flags, "web.labels"), n);
  if (!labels.ok()) return Fail(labels.status());
  const std::vector<graph::NodeId> hosts =
      SampleHosts(n, static_cast<uint64_t>(flags.GetInt("seed")), 1024);

  // One round: the 16-lane solve, then mass estimates and Algorithm 2 per
  // core. The checks run after the round's clock stops.
  struct Round {
    double seconds;
    double cpu_s;
    bool ok;
  };
  std::vector<Round> rounds;
  FlagCount flags_seen;
  auto run_round = [&]() -> util::Status {
    std::vector<std::vector<core::SpamCandidate>> candidates(kSweepLanes);
    std::vector<MassSample> samples(kSweepLanes);
    bool converged = true;

    const double cpu0 = CpuSeconds();
    util::WallTimer timer;
    const int root = tracer.Begin("round", -1);
    std::optional<std::vector<pagerank::PageRankResult>> lanes;
    {
      ScopedSpan span(&tracer, "pagerank.sweep_round", root);
      auto result =
          pagerank::ComputePageRankMulti(g, jumps, cfg.solver, workspace.get());
      span.Attr("cpu_s", CpuSeconds() - cpu0);
      if (!result.ok()) return result.status();
      lanes.emplace(std::move(result.value()));
      int sweeps = 0, lane_iterations = 0;
      for (const pagerank::PageRankResult& lane : *lanes) {
        sweeps = std::max(sweeps, lane.iterations);
        lane_iterations += lane.iterations;
        converged = converged && lane.converged;
      }
      span.Attr("sweeps", sweeps);
      span.Attr("lane_iterations", lane_iterations);
      span.Attr("edges", static_cast<double>(g.num_edges()));
    }
    for (size_t lane = 0; lane < kSweepLanes; ++lane) {
      std::optional<core::MassEstimates> est;
      {
        ScopedSpan span(&tracer, "core.mass_from_scores", root);
        est.emplace(core::MassEstimatesFromScores(
            base->scores, std::move((*lanes)[lane].scores),
            cfg.solver.damping));
      }
      {
        ScopedSpan span(&tracer, "core.detect_candidates", root);
        candidates[lane] = core::DetectSpamCandidates(*est, cfg.detection);
      }
      // Copying 4 × 1024 doubles for the identity check is the only
      // benchmark-side work inside the timed round.
      samples[lane].Take(hosts, *est);
    }
    tracer.End(root);
    Round round{timer.Seconds(), CpuSeconds() - cpu0, converged};
    for (size_t lane = 0; lane < kSweepLanes; ++lane) {
      round.ok = round.ok && samples[lane].Holds();
      if (rounds.empty()) flags_seen.Add(labels.value(), candidates[lane]);
    }
    rounds.push_back(round);
    return util::Status::OK();
  };

  // Rounds until they add up to --seconds, at least one. The first round
  // also allocates and first-touches the workspace's lane buffers; on one
  // thread that costs well under 1 % of a round.
  double measured = 0;
  do {
    util::Status status = run_round();
    if (!status.ok()) return Fail(status);
    measured += rounds.back().seconds;
  } while (measured < flags.GetDouble("seconds"));
  checks.Expect(flags_seen.precision() >= flags.GetDouble("precision-floor"),
                "flag precision below the workload floor");

  util::JsonWriter out;
  out.BeginObject();
  out.Key("setup_s").BeginArray();
  for (double v : setup_s) out.Double(v);
  out.EndArray();
  out.Key("rounds").BeginArray();
  for (const Round& r : rounds) {
    out.BeginObject();
    out.KV("s", r.seconds);
    out.KV("cpu_s", r.cpu_s);
    out.KV("ok", r.ok);
    out.EndObject();
  }
  out.EndArray();
  out.KV("peak_rss_mb", PeakRssMb());
  out.KV("flagged", flags_seen.flagged);
  out.KV("precision", flags_seen.precision());
  out.KV("n", n);
  out.KV("m", g.num_edges());
  checks.Write(&out);
  WriteTrace(tracer, &out);
  return Emit(&out);
}

// ---- triad -----------------------------------------------------------------

/// a[i] = b[i] + s·c[i] over three arrays totalling 1280 MiB, more than 4x
/// the reference host's 300 MiB LLC, split across --threads threads; the
/// best of five passes, STREAM-counted as 24 bytes per element.
int CmdTriad(const util::FlagParser& flags) {
  constexpr size_t kArrayBytes = size_t{1280} << 20;
  constexpr int kPasses = 5;
  const size_t threads = static_cast<size_t>(flags.GetInt("threads"));
  const size_t count = kArrayBytes / 24;
  std::unique_ptr<double[]> a(new double[count]);
  std::unique_ptr<double[]> b(new double[count]);
  std::unique_ptr<double[]> c(new double[count]);
  auto parallel = [&](auto body) {
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        body(count * t / threads, count * (t + 1) / threads);
      });
    }
    for (std::thread& w : workers) w.join();
  };
  // First touch from the threads that later stream each range.
  parallel([&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double s = 3.0;
  double best = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    util::WallTimer timer;
    parallel([&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
    best = std::max(best, 24.0 * static_cast<double>(count) / timer.Seconds());
  }
  util::JsonWriter out;
  out.BeginObject();
  out.KV("triad_gb_per_s", best / 1e9);
  out.KV("ok", a[count / 2] == 7.0);
  return Emit(&out);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench <gen|ingest|detect|sweep|triad> "
                         "[--flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  util::FlagParser flags;
  flags.Define("dir", ".", "corpus directory");
  flags.Define("seed", "1", "workload seed");
  flags.Define("scale", "1", "gen: Yahoo2004Scenario scale");
  flags.DefineBool("trace", "record spans around the library calls");
  flags.DefineBool("tamper", "ingest: corrupt the written file (self-test)");
  flags.Define("threads", "1", "solver / triad threads");
  flags.Define("precision-floor", "0", "minimum flag precision");
  flags.Define("setups", "3", "sweep: setup repetitions");
  flags.Define("seconds", "10", "sweep: measured-round budget in seconds");
  util::Status status = flags.Parse(argc - 2, argv + 2);
  if (!status.ok()) return Fail(status);
  if (command == "gen") return CmdGen(flags);
  if (command == "ingest") return CmdIngest(flags);
  if (command == "detect") return CmdDetect(flags);
  if (command == "sweep") return CmdSweep(flags);
  if (command == "triad") return CmdTriad(flags);
  return Fail(util::Status::InvalidArgument("unknown subcommand " + command));
}

#include "pipeline/detector.h"

#include <algorithm>

#include "core/degree_outlier.h"
#include "core/naive_schemes.h"
#include "pagerank/solver.h"
#include "util/logging.h"

namespace spammass::pipeline {

using graph::NodeId;
using util::Result;
using util::Status;

namespace {

/// Precision/recall against ground truth, when the graph has any. A
/// detector that flags nothing gets precision 0 (not NaN) so manifests
/// stay numeric.
void AddGroundTruthMetrics(const PipelineContext& context,
                           DetectorOutput* out) {
  if (!context.source().has_labels) return;
  const core::LabelStore& labels = context.source().web.labels;
  uint64_t true_positives = 0;
  uint64_t spam_total = 0;
  for (NodeId x = 0; x < context.graph().num_nodes(); ++x) {
    const bool is_spam = labels.IsSpam(x);
    spam_total += is_spam;
    if (x < out->flagged.size() && out->flagged[x]) {
      true_positives += is_spam;
    }
  }
  out->metrics.emplace_back(
      "precision", out->flagged_count > 0
                       ? static_cast<double>(true_positives) /
                             static_cast<double>(out->flagged_count)
                       : 0.0);
  out->metrics.emplace_back(
      "recall", spam_total > 0 ? static_cast<double>(true_positives) /
                                     static_cast<double>(spam_total)
                               : 0.0);
}

uint64_t CountFlagged(const std::vector<bool>& flagged) {
  uint64_t count = 0;
  for (bool f : flagged) count += f;
  return count;
}

/// Algorithm 2 (Section 3.6): threshold the mass estimates at (τ, ρ).
class SpamMassDetector : public Detector {
 public:
  std::string_view name() const override { return "spam_mass"; }

  ArtifactNeeds Needs(const PipelineContext&) const override {
    ArtifactNeeds needs;
    needs.mass_estimates = true;
    return needs;
  }

  Result<DetectorOutput> Run(const PipelineContext& context) const override {
    DetectorOutput out;
    out.detector = std::string(name());
    out.candidates = core::DetectSpamCandidates(context.MassEstimates(),
                                                context.config().detection);
    out.flagged.assign(context.graph().num_nodes(), false);
    for (const core::SpamCandidate& c : out.candidates) {
      out.flagged[c.node] = true;
    }
    out.flagged_count = out.candidates.size();
    AddGroundTruthMetrics(context, &out);
    return out;
  }
};

/// TrustRank demotion as a verdict: within the ρ-filtered population
/// T = {x : p̂_x ≥ ρ} — the same set Algorithm 2 restricts attention to —
/// flag the demote_fraction of nodes with the lowest trust/PageRank
/// ratio. TrustRank itself only ranks; this convention (the benches' and
/// trustrank_vs_mass's) turns the ranking into a comparable detector.
class TrustRankDetector : public Detector {
 public:
  std::string_view name() const override { return "trustrank"; }

  ArtifactNeeds Needs(const PipelineContext&) const override {
    ArtifactNeeds needs;
    needs.trustrank = true;
    needs.base_pagerank = true;
    return needs;
  }

  Result<DetectorOutput> Run(const PipelineContext& context) const override {
    const std::vector<double>& p = context.BasePageRank().scores;
    const std::vector<double>& trust = context.TrustRank().trust;
    const PipelineConfig& cfg = context.config();
    const double scale = static_cast<double>(p.size()) /
                         (1.0 - cfg.solver.damping);

    std::vector<NodeId> population;
    for (NodeId x = 0; x < p.size(); ++x) {
      if (p[x] * scale >= cfg.detection.scaled_pagerank_threshold) {
        population.push_back(x);
      }
    }
    // Ascending trust/PageRank ratio — least-trusted-for-their-rank first;
    // ties break on the node id for determinism.
    std::sort(population.begin(), population.end(),
              [&](NodeId a, NodeId b) {
                const double ra = trust[a] / p[a];
                const double rb = trust[b] / p[b];
                if (ra != rb) return ra < rb;
                return a < b;
              });
    const size_t demoted = static_cast<size_t>(
        cfg.trustrank.demote_fraction *
        static_cast<double>(population.size()));

    DetectorOutput out;
    out.detector = std::string(name());
    out.flagged.assign(p.size(), false);
    for (size_t i = 0; i < demoted; ++i) out.flagged[population[i]] = true;
    out.flagged_count = demoted;
    out.metrics.emplace_back(
        "seeds", static_cast<double>(context.TrustRank().seeds.size()));
    if (const auto& margin = context.TrustRank().seed_margin) {
      out.metrics.emplace_back("seed_gap", margin->gap);
      out.metrics.emplace_back("seed_gap_bound", margin->bound);
    }
    out.metrics.emplace_back("population",
                             static_cast<double>(population.size()));
    AddGroundTruthMetrics(context, &out);
    return out;
  }
};

/// Section 3.1 scheme 1: majority of inlinks from spam in-neighbors.
class NaiveScheme1Detector : public Detector {
 public:
  std::string_view name() const override { return "naive_scheme1"; }

  ArtifactNeeds Needs(const PipelineContext&) const override {
    return ArtifactNeeds{};
  }

  Result<DetectorOutput> Run(const PipelineContext& context) const override {
    if (!context.source().has_labels) {
      return Status::FailedPrecondition(
          "naive_scheme1 needs ground-truth labels: the Section 3.1 "
          "schemes assume an oracle for the in-neighbors");
    }
    DetectorOutput out;
    out.detector = std::string(name());
    out.flagged = core::FirstLabelingSchemeAll(context.graph(),
                                               context.source().web.labels);
    out.flagged_count = CountFlagged(out.flagged);
    AddGroundTruthMetrics(context, &out);
    return out;
  }
};

/// Section 3.1 scheme 2 (first-order link contributions), reusing the
/// cached base PageRank — no solve of its own.
class NaiveScheme2Detector : public Detector {
 public:
  std::string_view name() const override { return "naive_scheme2"; }

  ArtifactNeeds Needs(const PipelineContext&) const override {
    ArtifactNeeds needs;
    needs.base_pagerank = true;
    return needs;
  }

  Result<DetectorOutput> Run(const PipelineContext& context) const override {
    if (!context.source().has_labels) {
      return Status::FailedPrecondition(
          "naive_scheme2 needs ground-truth labels: the Section 3.1 "
          "schemes assume an oracle for the in-neighbors");
    }
    auto flagged = core::SecondLabelingSchemeAll(
        context.graph(), context.source().web.labels,
        context.config().solver.damping, context.BasePageRank().scores);
    if (!flagged.ok()) return flagged.status();
    DetectorOutput out;
    out.detector = std::string(name());
    out.flagged = std::move(flagged.value());
    out.flagged_count = CountFlagged(out.flagged);
    AddGroundTruthMetrics(context, &out);
    return out;
  }
};

/// Degree-spike baseline (Fetterly et al.); label-free and solve-free.
class DegreeOutlierDetector : public Detector {
 public:
  std::string_view name() const override { return "degree_outlier"; }

  ArtifactNeeds Needs(const PipelineContext&) const override {
    return ArtifactNeeds{};
  }

  Result<DetectorOutput> Run(const PipelineContext& context) const override {
    core::DegreeOutlierResult result = core::DetectDegreeOutliers(
        context.graph(), context.config().degree_outlier);
    DetectorOutput out;
    out.detector = std::string(name());
    out.flagged = std::move(result.suspected);
    out.flagged_count = CountFlagged(out.flagged);
    out.metrics.emplace_back("degree_spikes",
                             static_cast<double>(result.spikes.size()));
    AddGroundTruthMetrics(context, &out);
    return out;
  }
};

void RegisterBuiltins(DetectorRegistry* registry) {
  registry->Register("spam_mass",
                     [] { return std::make_unique<SpamMassDetector>(); });
  registry->Register("trustrank",
                     [] { return std::make_unique<TrustRankDetector>(); });
  registry->Register("naive_scheme1",
                     [] { return std::make_unique<NaiveScheme1Detector>(); });
  registry->Register("naive_scheme2",
                     [] { return std::make_unique<NaiveScheme2Detector>(); });
  registry->Register("degree_outlier",
                     [] { return std::make_unique<DegreeOutlierDetector>(); });
}

}  // namespace

DetectorRegistry& DetectorRegistry::Global() {
  static DetectorRegistry* registry = [] {
    auto* r = new DetectorRegistry();
    RegisterBuiltins(r);
    return r;
  }();
  return *registry;
}

void DetectorRegistry::Register(std::string name, DetectorFactory factory) {
  CHECK(factory != nullptr);
  auto [it, inserted] = factories_.emplace(std::move(name), std::move(factory));
  CHECK(inserted) << "duplicate detector name: " << it->first;
}

Result<std::unique_ptr<Detector>> DetectorRegistry::Create(
    const std::string& name) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string known;
    for (const auto& [registered, factory] : factories_) {
      if (!known.empty()) known += ", ";
      known += registered;
    }
    return Status::InvalidArgument("unknown detector \"" + name +
                                   "\"; registered detectors: " + known);
  }
  return it->second();
}

std::vector<std::string> DetectorRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

}  // namespace spammass::pipeline

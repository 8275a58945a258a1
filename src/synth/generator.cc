#include "synth/generator.h"

#include <algorithm>
#include <cmath>

#include "graph/graph_builder.h"
#include "synth/host_name_gen.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace spammass::synth {

using core::LabelStore;
using core::NodeLabel;
using graph::GraphBuilder;
using graph::NodeId;
using util::Result;
using util::Rng;
using util::Status;
using util::ZipfSampler;

namespace {

/// Per-region bookkeeping during generation.
struct RegionNodes {
  /// All node ids of the region.
  std::vector<NodeId> hosts;
  /// Hosts ordered by popularity rank (most popular first), truncated to
  /// the "popular" prefix that may receive inlinks.
  std::vector<NodeId> popular;
  /// Hub hosts (prefix of `popular`).
  std::vector<NodeId> hubs;
  /// Hosts that emit links (not dangling).
  std::vector<NodeId> linking;
};

/// Picks an out-degree around the configured mean with a power-law tail.
uint32_t SampleOutDegree(double mean, Rng* rng) {
  // Discrete power law with exponent 2.5 has mean 3·xmin; cap the tail so a
  // single host cannot dominate the edge budget.
  uint64_t xmin = std::max<uint64_t>(1, static_cast<uint64_t>(mean / 3.0));
  uint64_t d = rng->DiscretePowerLaw(xmin, 2.5);
  return static_cast<uint32_t>(std::min<uint64_t>(d, 300));
}

}  // namespace

std::vector<NodeId> SyntheticWeb::AssembledGoodCore() const {
  std::vector<NodeId> core;
  for (size_t x = 0; x < listed.size(); ++x) {
    if (listed[x]) core.push_back(static_cast<NodeId>(x));
  }
  return core;
}

bool SyntheticWeb::IsAnomalousRegion(uint32_t region) const {
  if (region >= config.regions.size()) return false;  // pseudo-regions
  const RegionConfig& r = config.regions[region];
  // The paper's anomalies are near-total coverage absences (12 Polish
  // educational hosts in a half-million core; no Alibaba or Brazilian-blog
  // hosts at all) — regions with merely partial lists are ordinary.
  return r.isolated_community || r.core_coverage < 0.05;
}

bool SyntheticWeb::IsAnomalousGoodNode(NodeId x) const {
  return labels.IsGood(x) && IsAnomalousRegion(region_of_node[x]);
}

uint32_t SyntheticWeb::RegionIndex(const std::string& name) const {
  for (uint32_t i = 0; i < region_names.size(); ++i) {
    if (region_names[i] == name) return i;
  }
  return static_cast<uint32_t>(region_names.size());
}

Result<SyntheticWeb> GenerateWeb(const WebModelConfig& config) {
  SPAMMASS_RETURN_NOT_OK(config.Validate());

  Rng rng(config.seed);
  // Separate stream for host-name stems so that naming choices never
  // perturb the structural randomness.
  Rng name_rng(config.seed ^ 0xda3e39cb94b95bdbULL);
  GraphBuilder builder;
  SyntheticWeb web;
  web.config = config;

  const uint32_t num_regions = static_cast<uint32_t>(config.regions.size());
  std::vector<RegionNodes> region_nodes(num_regions);

  // --- Phase 1: create good hosts region by region -------------------------
  for (uint32_t r = 0; r < num_regions; ++r) {
    const RegionConfig& rc = config.regions[r];
    web.region_names.push_back(rc.name);
    RegionNodes& rn = region_nodes[r];
    rn.hosts.reserve(rc.num_hosts);
    for (uint32_t i = 0; i < rc.num_hosts; ++i) {
      HostCategory cat = HostCategory::kPlain;
      bool hub = i < rc.num_hubs;
      bool dir = false, gov = false, edu = false;
      if (hub) {
        cat = HostCategory::kHub;
      } else if (rng.Bernoulli(rc.directory_fraction)) {
        cat = HostCategory::kDirectory;
        dir = true;
      } else if (rng.Bernoulli(rc.gov_fraction)) {
        cat = HostCategory::kGov;
        gov = true;
      } else if (rng.Bernoulli(rc.edu_fraction)) {
        cat = HostCategory::kEdu;
        edu = true;
      }
      std::string host_name;
      if (rc.isolated_community && cat == HostCategory::kPlain) {
        // Isolated communities live under one registered domain, like the
        // paper's *.alibaba.com hosts and *.blogger.com.br blogs.
        host_name = util::StringPrintf("w%u.%s%s", i, rc.name.c_str(),
                                       rc.tld.c_str());
      } else {
        host_name = GenerateHostName(cat, rc.name, rc.tld, i, &name_rng);
      }
      NodeId id = builder.AddNode(std::move(host_name));
      rn.hosts.push_back(id);
      web.region_of_node.push_back(r);
      web.is_directory.push_back(dir);
      web.is_gov.push_back(gov);
      web.is_edu.push_back(edu);
      web.is_hub.push_back(hub);
      // Coverage filter: eligible hosts make it onto the assembled lists
      // only with the region's coverage probability.
      bool eligible = dir || gov || edu;
      web.listed.push_back(eligible && rng.Bernoulli(rc.core_coverage));
    }

    // Popularity order: hubs first, then a random permutation of the rest.
    std::vector<NodeId> order = rn.hosts;
    // Hubs occupy the first rc.num_hubs slots already (created first);
    // shuffle only the non-hub suffix.
    if (order.size() > rc.num_hubs) {
      std::vector<NodeId> tail(order.begin() + rc.num_hubs, order.end());
      util::Shuffle(&tail, &rng);
      std::copy(tail.begin(), tail.end(), order.begin() + rc.num_hubs);
    }
    rn.hubs.assign(order.begin(), order.begin() + rc.num_hubs);
    // The "popular" prefix that can receive inlinks.
    uint64_t popular_count = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               std::llround((1.0 - config.unpopular_fraction) *
                            static_cast<double>(order.size()))));
    popular_count = std::min<uint64_t>(popular_count, order.size());
    rn.popular.assign(order.begin(), order.begin() + popular_count);

    // Dangling selection, biased toward unpopular hosts so that no-inlink
    // and no-outlink correlate (the paper's 25.8% isolated hosts).
    std::vector<NodeId> unpopular(order.begin() + popular_count, order.end());
    std::vector<NodeId> popular_pool = rn.popular;
    util::Shuffle(&unpopular, &rng);
    util::Shuffle(&popular_pool, &rng);
    uint64_t dangling_budget = static_cast<uint64_t>(std::llround(
        config.no_outlink_fraction * static_cast<double>(order.size())));
    std::vector<bool> dangling_local(order.size(), false);
    std::vector<NodeId> dangling;
    size_t ui = 0, pi = 0;
    for (uint64_t d = 0; d < dangling_budget; ++d) {
      bool take_unpopular = rng.Bernoulli(config.unpopular_dangling_bias);
      if (take_unpopular && ui < unpopular.size()) {
        dangling.push_back(unpopular[ui++]);
      } else if (pi < popular_pool.size()) {
        dangling.push_back(popular_pool[pi++]);
      } else if (ui < unpopular.size()) {
        dangling.push_back(unpopular[ui++]);
      }
    }
    std::vector<bool> is_dangling_region(builder.num_nodes(), false);
    for (NodeId d : dangling) is_dangling_region[d] = true;
    for (NodeId h : rn.hosts) {
      if (!is_dangling_region[h]) rn.linking.push_back(h);
    }
  }

  web.clique_region = num_regions;
  web.spam_region = num_regions + 1;
  web.region_names.push_back("cliques");
  web.region_names.push_back("spam");

  // Region weights for cross-region targeting (isolated communities are
  // excluded from global linking entirely).
  std::vector<uint32_t> open_regions;
  std::vector<double> open_weights;
  for (uint32_t r = 0; r < num_regions; ++r) {
    if (!config.regions[r].isolated_community) {
      open_regions.push_back(r);
      open_weights.push_back(config.regions[r].num_hosts);
    }
  }
  if (open_regions.empty()) {
    return Status::InvalidArgument("at least one non-isolated region needed");
  }
  double total_open = 0;
  for (double w : open_weights) total_open += w;

  auto pick_open_region = [&]() -> uint32_t {
    double t = rng.Uniform01() * total_open;
    for (size_t i = 0; i < open_regions.size(); ++i) {
      t -= open_weights[i];
      if (t <= 0) return open_regions[i];
    }
    return open_regions.back();
  };

  // Per-region Zipf samplers over the popular prefix.
  std::vector<ZipfSampler> zipf;
  zipf.reserve(num_regions);
  for (uint32_t r = 0; r < num_regions; ++r) {
    zipf.emplace_back(region_nodes[r].popular.size(), config.zipf_exponent);
  }

  auto pick_target_in_region = [&](uint32_t r) -> NodeId {
    const RegionNodes& rn = region_nodes[r];
    const RegionConfig& rc = config.regions[r];
    if (!rn.hubs.empty() && rng.Bernoulli(rc.hub_target_fraction)) {
      return rn.hubs[rng.UniformIndex(rn.hubs.size())];
    }
    return rn.popular[zipf[r].Sample(&rng)];
  };

  // --- Phase 2: good-web links ---------------------------------------------
  for (uint32_t r = 0; r < num_regions; ++r) {
    const RegionConfig& rc = config.regions[r];
    for (NodeId u : region_nodes[r].linking) {
      uint32_t outdeg = SampleOutDegree(config.mean_outdegree, &rng);
      for (uint32_t e = 0; e < outdeg; ++e) {
        uint32_t target_region = r;
        if (!rc.isolated_community &&
            rng.Bernoulli(rc.cross_region_link_prob)) {
          target_region = pick_open_region();
        }
        NodeId v = pick_target_in_region(target_region);
        if (v != u) builder.AddEdge(u, v);
      }
    }
    // Listed (core) hosts link broadly: a trusted directory's purpose is to
    // point at many hosts globally, while governmental/educational hosts
    // mostly endorse their own community with some international links.
    // This gives the good core the reach of Section 4.2's real-world core
    // while keeping per-region coverage differences meaningful.
    for (NodeId u : region_nodes[r].hosts) {
      if (!web.listed[u]) continue;
      uint32_t extra = static_cast<uint32_t>(
          config.mean_outdegree * (web.is_directory[u] ? 2 : 1));
      for (uint32_t e = 0; e < extra; ++e) {
        uint32_t target_region = r;
        if (!rc.isolated_community &&
            (web.is_directory[u] || rng.Bernoulli(0.25))) {
          target_region = pick_open_region();
        }
        NodeId v = pick_target_in_region(target_region);
        if (v != u) builder.AddEdge(u, v);
      }
    }
  }

  // Pool of linking good hosts for hijacked/stray links and the cliques'
  // sparse external inlinks.
  std::vector<NodeId> good_linkers;
  for (uint32_t r = 0; r < num_regions; ++r) {
    if (config.regions[r].isolated_community) continue;
    good_linkers.insert(good_linkers.end(), region_nodes[r].linking.begin(),
                        region_nodes[r].linking.end());
  }
  if (good_linkers.empty()) {
    return Status::InvalidArgument("no linking good hosts available");
  }
  // Pool of good hosts without outlinks: abandoned guestbooks / dormant
  // pages. Laundered farms hijack these as intermediaries — the harvested
  // spam link becomes the page's only outlink, so it transmits the full
  // boosted PageRank (the out-degree-1 g0/g2 of the paper's Figure 2).
  // Obscure dormant pages only: neither linking (the spam link becomes
  // their sole outlink) nor popular (no inlinks, hence no good-core
  // support to funnel into the farm).
  std::vector<NodeId> good_danglers;
  {
    std::vector<bool> excluded(builder.num_nodes(), false);
    for (uint32_t r = 0; r < num_regions; ++r) {
      for (NodeId u : region_nodes[r].linking) excluded[u] = true;
      for (NodeId u : region_nodes[r].popular) excluded[u] = true;
    }
    for (uint32_t r = 0; r < num_regions; ++r) {
      if (config.regions[r].isolated_community) continue;
      for (NodeId u : region_nodes[r].hosts) {
        if (!excluded[u]) good_danglers.push_back(u);
      }
    }
  }

  // --- Phase 3: isolated good cliques (web-design / gaming communities) ----
  for (uint32_t q = 0; q < config.num_isolated_cliques; ++q) {
    uint32_t size = static_cast<uint32_t>(rng.UniformInt(
        config.clique_min_size, config.clique_max_size));
    std::vector<NodeId> members;
    // Center (the web-design company) + clients, mutually linked: clients
    // point at the center, the center links back — the pattern of Section
    // 4.4.3 observation 1 that concentrates PageRank in the center.
    NodeId center = builder.AddNode(
        GenerateHostName(HostCategory::kPlain, "clique" + std::to_string(q),
                         ".net", 0, &name_rng));
    members.push_back(center);
    web.region_of_node.push_back(web.clique_region);
    for (uint32_t i = 1; i < size; ++i) {
      NodeId m = builder.AddNode(
          GenerateHostName(HostCategory::kPlain, "clique" + std::to_string(q),
                           ".net", i, &name_rng));
      members.push_back(m);
      web.region_of_node.push_back(web.clique_region);
      builder.AddEdge(m, center);
      builder.AddEdge(center, m);
    }
    // Ring among clients for cohesion.
    for (uint32_t i = 1; i < size; ++i) {
      uint32_t j = (i % (size - 1)) + 1;
      if (j != i) builder.AddEdge(members[i], members[j]);
    }
    // "Very few or no external links pointed to either" (Section 4.4.3,
    // observation 1): most cliques get one or two stray inlinks, which
    // keeps their relative mass high but below the saturated 1.0.
    if (rng.Bernoulli(0.9)) {
      uint32_t stray = 3 + static_cast<uint32_t>(rng.UniformIndex(4));
      for (uint32_t e = 0; e < stray; ++e) {
        NodeId g = good_linkers[rng.UniformIndex(good_linkers.size())];
        builder.AddEdge(g, center);
      }
    }
    web.isolated_cliques.push_back(std::move(members));
    for (uint32_t i = 0; i < size; ++i) {
      web.is_directory.push_back(false);
      web.is_gov.push_back(false);
      web.is_edu.push_back(false);
      web.is_hub.push_back(false);
      web.listed.push_back(false);
    }
  }

  // --- Phase 4: spam farms ---------------------------------------------------
  std::vector<NodeId> spam_nodes;
  const SpamConfig& sc = config.spam;
  for (uint32_t f = 0; f < sc.num_farms; ++f) {
    FarmSpec spec;
    spec.num_boosters = static_cast<uint32_t>(std::min<uint64_t>(
        rng.DiscretePowerLaw(sc.min_boosters, sc.booster_exponent),
        sc.max_boosters));
    spec.target_links_back = sc.target_links_back;
    spec.interlink_prob = sc.interlink_prob;
    const bool laundered = rng.Bernoulli(sc.laundered_fraction);
    spec.boosters_link_target = !laundered;
    // A laundered target keeps its outlink profile clean (linking back to
    // the boosters would expose it) — and without recirculation the
    // hijacked relay pages stay below the PageRank radar themselves.
    if (laundered) spec.target_links_back = false;
    const std::string tld =
        config.regions[pick_open_region()].tld;
    FarmInfo farm = BuildSpamFarm(
        &builder, spec,
        GenerateHostName(HostCategory::kSpamTarget, "spam", tld, f,
                         &name_rng),
        "www.b", &rng,
        /*booster_name_suffix=*/"-farm" + std::to_string(f) + tld);
    if (laundered) {
      // Figure 2 structure: boosters inflate hijacked good intermediaries,
      // which link to the target. Direct in-neighbors of the target are
      // reputable, defeating any detector that stops at one hop.
      farm.laundered = true;
      // Spread the boost over enough hijacked pages that no single
      // intermediary accumulates conspicuous PageRank itself (roughly
      // three boosters per page).
      uint32_t j = std::max<uint32_t>(
          std::max<uint32_t>(1, sc.laundered_intermediaries),
          spec.num_boosters / 3);
      for (uint32_t i = 0; i < j; ++i) {
        // Prefer dormant pages (the spam link becomes their only outlink);
        // fall back to ordinary linking hosts when none are available.
        NodeId g = !good_danglers.empty()
                       ? good_danglers[rng.UniformIndex(good_danglers.size())]
                       : good_linkers[rng.UniformIndex(good_linkers.size())];
        farm.intermediaries.push_back(g);
        builder.AddEdge(g, farm.target);
      }
      for (size_t b = 0; b < farm.boosters.size(); ++b) {
        builder.AddEdge(farm.boosters[b],
                        farm.intermediaries[b % farm.intermediaries.size()]);
      }
    }
    spam_nodes.push_back(farm.target);
    spam_nodes.insert(spam_nodes.end(), farm.boosters.begin(),
                      farm.boosters.end());
    web.region_of_node.push_back(web.spam_region);
    for (size_t i = 0; i < farm.boosters.size(); ++i) {
      web.region_of_node.push_back(web.spam_region);
    }
    // Camouflage: farm nodes link out to popular reputable hosts, handing
    // them (estimated and actual) spam mass — the paper's Figure 2 has
    // exactly this shape with s5→g0 and s6→g2.
    for (uint32_t cl = 0; cl < sc.camouflage_links_per_farm; ++cl) {
      NodeId src = farm.boosters[rng.UniformIndex(farm.boosters.size())];
      NodeId dst = pick_target_in_region(pick_open_region());
      builder.AddEdge(src, dst);
    }
    // Honey pots / comment spam: stray links from good hosts.
    if (rng.Bernoulli(sc.honeypot_fraction)) {
      farm.honeypot = true;
      for (uint32_t h = 0; h < sc.hijacked_links_per_farm; ++h) {
        NodeId g = good_linkers[rng.UniformIndex(good_linkers.size())];
        builder.AddEdge(g, farm.target);
        farm.hijacked_sources.push_back(g);
      }
    }
    web.farms.push_back(std::move(farm));
  }

  // Alliances: shuffle farm indices, group the allied fraction into rings.
  if (sc.alliance_fraction > 0 && web.farms.size() >= 2) {
    std::vector<uint32_t> farm_idx(web.farms.size());
    for (uint32_t i = 0; i < farm_idx.size(); ++i) farm_idx[i] = i;
    util::Shuffle(&farm_idx, &rng);
    uint64_t allied = static_cast<uint64_t>(
        sc.alliance_fraction * static_cast<double>(web.farms.size()));
    uint32_t alliance_id = 0;
    for (uint64_t start = 0; start + 2 <= allied;
         start += sc.alliance_size, ++alliance_id) {
      uint64_t end = std::min<uint64_t>(start + sc.alliance_size, allied);
      std::vector<NodeId> targets;
      for (uint64_t i = start; i < end; ++i) {
        web.farms[farm_idx[i]].alliance = static_cast<int>(alliance_id);
        targets.push_back(web.farms[farm_idx[i]].target);
      }
      LinkAllianceTargets(&builder, targets);
    }
  }

  // --- Phase 5: expired-domain spam ------------------------------------------
  for (uint32_t i = 0; i < sc.num_expired_domain_targets; ++i) {
    const std::string tld = config.regions[pick_open_region()].tld;
    NodeId t = builder.AddNode(GenerateHostName(
        HostCategory::kExpiredDomain, "spam", tld, i, &name_rng));
    web.region_of_node.push_back(web.spam_region);
    uint32_t inlinks = static_cast<uint32_t>(rng.UniformInt(
        sc.expired_inlinks_min, sc.expired_inlinks_max));
    for (uint32_t e = 0; e < inlinks; ++e) {
      NodeId g = good_linkers[rng.UniformIndex(good_linkers.size())];
      builder.AddEdge(g, t);
    }
    web.expired_domain_targets.push_back(t);
    spam_nodes.push_back(t);
  }

  // Metadata arrays for spam nodes (appended after clique handling).
  size_t meta_deficit = builder.num_nodes() - web.is_directory.size();
  for (size_t i = 0; i < meta_deficit; ++i) {
    web.is_directory.push_back(false);
    web.is_gov.push_back(false);
    web.is_edu.push_back(false);
    web.is_hub.push_back(false);
    web.listed.push_back(false);
  }

  // --- Finalize ----------------------------------------------------------------
  web.graph = builder.Build();
  CHECK_EQ(web.region_of_node.size(), static_cast<size_t>(web.graph.num_nodes()));
  CHECK_EQ(web.listed.size(), static_cast<size_t>(web.graph.num_nodes()));

  web.labels = LabelStore(web.graph.num_nodes());
  for (NodeId s : spam_nodes) web.labels.Set(s, NodeLabel::kSpam);

  return web;
}

}  // namespace spammass::synth

#include "synth/scenario.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "graph/web_graph.h"
#include "util/string_util.h"

namespace spammass::synth {

namespace {

constexpr double kGenericHosts = 60000;  // the largest region at scale 1

uint32_t Scaled(double base, double scale) {
  return std::max<uint32_t>(1, static_cast<uint32_t>(std::llround(base * scale)));
}

}  // namespace

util::Result<double> ParseScenarioScale(std::string_view what,
                                        std::string_view text) {
  double scale = 0;
  if (util::ParseNumber(text, &scale) && std::isfinite(scale) && scale > 0 &&
      kGenericHosts * scale < graph::kInvalidNode) {
    return scale;
  }
  return util::Status::InvalidArgument(
      std::string(what) + ": scale '" + std::string(text) +
      "' is not a finite number > 0 whose hosts per region fit a NodeId");
}

WebModelConfig Yahoo2004Scenario(double scale, uint64_t seed) {
  WebModelConfig cfg;
  cfg.seed = seed;

  // The generic commercial web: hosts the bulk of popularity, well covered
  // by the trusted directory.
  RegionConfig generic;
  generic.name = "generic";
  generic.tld = ".com";
  generic.num_hosts = Scaled(kGenericHosts, scale);
  generic.directory_fraction = 0.004;
  generic.edu_fraction = 0.002;
  generic.core_coverage = 0.90;
  generic.cross_region_link_prob = 0.15;
  cfg.regions.push_back(generic);

  // US governmental hosts: fully core-eligible (Section 4.2 includes all
  // .gov hosts).
  RegionConfig gov;
  gov.name = "usgov";
  gov.tld = ".us";
  gov.num_hosts = Scaled(1500, scale);
  gov.gov_fraction = 1.0;
  gov.core_coverage = 0.95;
  gov.cross_region_link_prob = 0.40;
  cfg.regions.push_back(gov);

  // Mid-coverage national communities: their reputable hosts get partial
  // good-core support, populating the intermediate relative-mass range
  // (the 0.1-0.7 groups of Figure 3).
  RegionConfig de;
  de.name = "de";
  de.tld = ".de";
  de.num_hosts = Scaled(15000, scale);
  de.edu_fraction = 0.0024;
  de.core_coverage = 0.5;
  de.cross_region_link_prob = 0.10;
  cfg.regions.push_back(de);

  RegionConfig fr;
  fr.name = "fr";
  fr.tld = ".fr";
  fr.num_hosts = Scaled(12000, scale);
  fr.edu_fraction = 0.004;
  fr.core_coverage = 0.5;
  fr.cross_region_link_prob = 0.10;
  cfg.regions.push_back(fr);

  RegionConfig es;
  es.name = "es";
  es.tld = ".es";
  es.num_hosts = Scaled(13000, scale);
  es.edu_fraction = 0.0052;
  es.core_coverage = 0.5;
  es.cross_region_link_prob = 0.10;
  cfg.regions.push_back(es);

  RegionConfig jp;
  jp.name = "jp";
  jp.tld = ".jp";
  jp.num_hosts = Scaled(14000, scale);
  jp.edu_fraction = 0.0064;
  jp.core_coverage = 0.5;
  jp.cross_region_link_prob = 0.10;
  cfg.regions.push_back(jp);

  RegionConfig uk;
  uk.name = "uk";
  uk.tld = ".uk";
  uk.num_hosts = Scaled(15000, scale);
  uk.edu_fraction = 0.008;
  uk.core_coverage = 0.5;
  uk.cross_region_link_prob = 0.10;
  cfg.regions.push_back(uk);

  // A well-covered national community (the paper notes 4020 Czech
  // educational hosts in the core).
  RegionConfig cz;
  cz.name = "cz";
  cz.tld = ".cz";
  cz.num_hosts = Scaled(6000, scale);
  cz.edu_fraction = 0.07;
  cz.core_coverage = 0.90;
  cz.cross_region_link_prob = 0.10;
  cfg.regions.push_back(cz);

  // Poland-like anomaly: four times the population, yet only ~12 of its
  // educational hosts ended up in the paper's core.
  RegionConfig pl;
  pl.name = "pl";
  pl.tld = ".pl";
  pl.num_hosts = Scaled(24000, scale);
  pl.edu_fraction = 0.015;
  pl.core_coverage = 0.035;
  pl.cross_region_link_prob = 0.10;
  cfg.regions.push_back(pl);

  // Italy: medium community with a solid educational presence — the
  // regional core of the Figure 5 coverage experiment (9747 .it
  // educational hosts in the paper).
  RegionConfig it;
  it.name = "it";
  it.tld = ".it";
  it.num_hosts = Scaled(9000, scale);
  it.edu_fraction = 0.11;
  it.core_coverage = 0.95;
  it.cross_region_link_prob = 0.10;
  cfg.regions.push_back(it);

  // Alibaba-like isolated commerce community: very large, with a handful
  // of identifiable hub hosts, invisible to the core (Section 4.4.1-2).
  RegionConfig mall;
  mall.name = "cn-mall";
  mall.tld = ".cn";
  mall.num_hosts = Scaled(8000, scale);
  mall.isolated_community = true;
  mall.core_coverage = 0.0;
  mall.num_hubs = 12;
  mall.hub_target_fraction = 0.6;
  cfg.regions.push_back(mall);

  // Brazilian-blog-like isolated community: no identifiable hubs at all.
  RegionConfig blog;
  blog.name = "br-blog";
  blog.tld = ".br";
  blog.num_hosts = Scaled(10000, scale);
  blog.isolated_community = true;
  blog.core_coverage = 0.0;
  blog.cross_region_link_prob = 0.0;
  cfg.regions.push_back(blog);

  cfg.mean_outdegree = 28.0;
  cfg.zipf_exponent = 0.95;
  cfg.no_outlink_fraction = 0.78;    // good-web share; graph-wide lands near the paper's 66.4%
  cfg.unpopular_fraction = 0.25;     // drives the 35% no-inlink fraction
  cfg.unpopular_dangling_bias = 0.45;

  cfg.num_isolated_cliques = Scaled(40, scale);
  cfg.clique_min_size = 5;
  cfg.clique_max_size = 14;

  SpamConfig& spam = cfg.spam;
  spam.num_farms = Scaled(400, scale);
  spam.min_boosters = 5;
  spam.max_boosters = 2000;
  spam.booster_exponent = 2.0;
  spam.interlink_prob = 0.02;
  spam.target_links_back = true;
  spam.alliance_fraction = 0.25;
  spam.alliance_size = 4;
  spam.honeypot_fraction = 0.45;
  spam.hijacked_links_per_farm = 3;
  spam.camouflage_links_per_farm = 5;
  spam.laundered_fraction = 0.3;
  spam.laundered_intermediaries = 4;
  spam.num_expired_domain_targets = Scaled(60, scale);
  spam.expired_inlinks_min = 12;
  spam.expired_inlinks_max = 60;

  return cfg;
}

WebModelConfig TinyScenario(uint64_t seed) {
  WebModelConfig cfg = Yahoo2004Scenario(0.02, seed);
  cfg.spam.max_boosters = 200;
  return cfg;
}

}  // namespace spammass::synth

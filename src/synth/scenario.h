// Canonical experiment scenarios. Yahoo2004Scenario mirrors (at reduced,
// configurable scale) the setting of Section 4: a dominant generic web, a
// governmental and several national-educational communities with varying
// good-core coverage — including the three anomaly archetypes of Section
// 4.4.1 (a poorly covered country "pl", an isolated commerce community
// "cn-mall" with identifiable hub hosts, and an isolated blog community
// "br-blog" with no identifiable hubs) — plus spam farms, alliances,
// honey pots, expired-domain spam and isolated good cliques.

#ifndef SPAMMASS_SYNTH_SCENARIO_H_
#define SPAMMASS_SYNTH_SCENARIO_H_

#include <string_view>

#include "synth/web_model.h"
#include "util/status.h"

namespace spammass::synth {

/// Builds the default evaluation configuration. `scale` multiplies every
/// population (hosts per region, farm count, clique count); scale = 1.0
/// yields roughly 170k hosts and 600k edges — large enough for the
/// distributional effects, small enough for laptop iteration.
WebModelConfig Yahoo2004Scenario(double scale = 1.0, uint64_t seed = 42);

/// Parses a Yahoo2004Scenario scale in full (util::ParseNumber), before any
/// generation. A scale that is not finite and positive, or whose largest
/// region (60000 * scale hosts) overflows NodeId, is an InvalidArgument
/// naming `what` and `text`.
util::Result<double> ParseScenarioScale(std::string_view what,
                                        std::string_view text);

/// A small smoke-test configuration (~4k hosts) for unit/integration tests.
WebModelConfig TinyScenario(uint64_t seed = 7);

}  // namespace spammass::synth

#endif  // SPAMMASS_SYNTH_SCENARIO_H_

#include "pagerank/shard_sweep.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pagerank/kernel.h"
#include "util/checksum.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace spammass::pagerank {

using graph::NodeId;
using graph::ShardExchange;
using graph::WebGraph;

namespace {

// Sweep telemetry, cached like solver.cc's counters (registration takes a
// lock, incrementing does not).
obs::Counter* ShardSweepsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("pagerank.shard_sweeps");
  return counter;
}

obs::Counter* ExchangeRowsCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "pagerank.shard_exchange_rows");
  return counter;
}

obs::Counter* BoundaryBytesCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "pagerank.shard_boundary_bytes");
  return counter;
}

obs::Counter* GhostGathersCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "pagerank.shard_ghost_gathers");
  return counter;
}

obs::Histogram* ShardSweepSecondsHistogram() {
  // Log-scale seconds: shards of a cache-blocked sweep land in the
  // microsecond-to-second range across graph sizes.
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "pagerank.shard_sweep_seconds",
          {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
  return histogram;
}

/// Bounded structural fingerprint for ShardRuntime::Matches: the first and
/// last 64 in-offset entries. Cheap, and distinguishes any two graphs that
/// agree on (pointer, n, m) by accident of allocator reuse.
uint64_t GraphFingerprint(const WebGraph& graph) {
  const auto offsets = graph.InOffsets();
  util::Fnv1a64 hasher;
  const size_t head = std::min<size_t>(offsets.size(), 64);
  hasher.Update(offsets.data(), head * sizeof(uint64_t));
  if (offsets.size() > head) {
    const size_t tail = std::min<size_t>(offsets.size() - head, 64);
    hasher.Update(offsets.data() + (offsets.size() - tail),
                  tail * sizeof(uint64_t));
  }
  return hasher.digest();
}

}  // namespace

ShardRuntime::ShardRuntime(const WebGraph& graph, uint32_t num_shards)
    : graph_(&graph),
      num_nodes_(graph.num_nodes()),
      num_edges_(graph.num_edges()),
      fingerprint_(GraphFingerprint(graph)),
      plan_(graph::ShardPlan::Build(graph, num_shards,
                                    kernel::ChunkSize(graph.num_nodes()))) {
  SPAMMASS_TRACE_SPAN("pagerank.shard_runtime", "shards",
                      static_cast<uint64_t>(num_shards), "ghosts",
                      plan_.total_ghosts());
  obs::MetricsRegistry::Global()
      .GetGauge("pagerank.shard_max_working_set_bytes")
      ->Set(static_cast<double>(plan_.max_working_set_bytes()));
  for (const graph::ShardStats& stats : plan_.stats()) {
    boundary_bytes_per_sweep_ += stats.boundary_bytes;
    ghost_gathers_per_sweep_ += stats.ghost_in_edges;
  }
}

bool ShardRuntime::Matches(const WebGraph& graph, uint32_t num_shards) const {
  return graph_ == &graph && num_nodes_ == graph.num_nodes() &&
         num_edges_ == graph.num_edges() &&
         plan_.num_shards() == num_shards &&
         fingerprint_ == GraphFingerprint(graph);
}

void ShardRuntime::SweepMulti(const WebGraph& graph, uint32_t k,
                              const simd::LaneJumps<double>& v, double damping,
                              const double* dangling, const double* p,
                              double* scaled, double* next, double* next_scaled,
                              std::vector<double>* partials, double* diffs,
                              util::ThreadPool* pool) const {
  CHECK_GE(k, 1u);
  CHECK_LE(k, kernel::kMaxVectorsPerSweep);
  DCHECK_EQ(num_nodes_, graph.num_nodes());
  const NodeId n = num_nodes_;

  // Phase 1: boundary exchange. Copy each exchanged node's scaled row into
  // its consumer's ghost slots. Exchanges write disjoint slot ranges and
  // only read owned rows [0, n), so the copies parallelize with no
  // ordering concerns — a copy is a copy.
  const std::vector<ShardExchange>& exchanges = plan_.exchanges();
  uint64_t exchange_rows = 0;
  const auto exchange_body = [&](uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      const ShardExchange& ex = exchanges[i];
      double* dst = scaled + ex.slot_begin * k;
      for (size_t t = 0; t < ex.nodes.size(); ++t) {
        const double* src =
            scaled + static_cast<uint64_t>(ex.nodes[t]) * k;
        double* out = dst + t * k;
        for (uint32_t j = 0; j < k; ++j) out[j] = src[j];
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(exchanges.size(), exchange_body);
  } else {
    exchange_body(0, exchanges.size());
  }
  for (const ShardExchange& ex : exchanges) exchange_rows += ex.nodes.size();

  // Phase 2: the sweep itself — the kernel's global chunk decomposition
  // (chunk c of the unsharded kernel is chunk c here, inside one shard by
  // the alignment argument), gathering through sources_local.
  const uint64_t chunks = kernel::NumChunks(n);
  partials->assign(chunks * k, 0.0);
  const kernel::SweepRangeFn sweep = kernel::PickSweepRange(k);
  const NodeId* sources = plan_.sources_local().data();
  // Per-chunk wall time; each worker writes only its own chunk's slot, so
  // no synchronization is needed. Aggregated per shard below (shard
  // boundaries are chunk-aligned, so a chunk belongs to exactly one
  // shard).
  std::vector<double> chunk_seconds(chunks, 0.0);
  kernel::ForEachChunk(pool, n, [&](uint64_t c, uint64_t begin,
                                    uint64_t end) {
    util::WallTimer chunk_timer;
    sweep(graph, sources, v, damping, dangling, p, scaled, next,
          next_scaled, partials->data() + c * k, static_cast<NodeId>(begin),
          static_cast<NodeId>(end));
    chunk_seconds[c] = chunk_timer.Seconds();
  });
  for (uint32_t j = 0; j < k; ++j) diffs[j] = 0.0;
  for (uint64_t c = 0; c < chunks; ++c) {
    const double* slot = partials->data() + c * k;
    for (uint32_t j = 0; j < k; ++j) diffs[j] += slot[j];
  }

  // One histogram observation per non-empty shard per sweep: the summed
  // wall time of the shard's chunks (their compute footprint, regardless
  // of which worker ran each chunk).
  obs::Histogram* sweep_seconds = ShardSweepSecondsHistogram();
  const uint64_t chunk_size = kernel::ChunkSize(n);
  for (const graph::ShardRange& range : plan_.ranges()) {
    if (range.size() == 0) continue;
    const uint64_t c_begin = range.begin / chunk_size;
    const uint64_t c_end =
        (static_cast<uint64_t>(range.end) + chunk_size - 1) / chunk_size;
    double shard_seconds = 0.0;
    for (uint64_t c = c_begin; c < c_end && c < chunks; ++c) {
      shard_seconds += chunk_seconds[c];
    }
    sweep_seconds->Observe(shard_seconds);
  }

  ShardSweepsCounter()->Increment();
  ExchangeRowsCounter()->Add(exchange_rows);
  BoundaryBytesCounter()->Add(boundary_bytes_per_sweep_);
  GhostGathersCounter()->Add(ghost_gathers_per_sweep_);
}

}  // namespace spammass::pagerank

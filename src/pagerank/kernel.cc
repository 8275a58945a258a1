#include "pagerank/kernel.h"

#include <algorithm>

#include "util/logging.h"

namespace spammass::pagerank::kernel {

using graph::NodeId;
using graph::WebGraph;

static_assert(simd::kMaxSweepLanes == kMaxVectorsPerSweep,
              "simd_sweep_body.h lane cap must match the kernel's");

uint64_t ChunkSize(uint64_t total) {
  const uint64_t spread = (total + kMaxChunks - 1) / kMaxChunks;
  return std::max(kMinChunkSize, spread);
}

uint64_t NumChunks(uint64_t total) {
  if (total == 0) return 0;
  const uint64_t chunk = ChunkSize(total);
  return (total + chunk - 1) / chunk;
}

void ForEachChunk(
    util::ThreadPool* pool, uint64_t total,
    const std::function<void(uint64_t, uint64_t, uint64_t)>& body) {
  if (total == 0) return;
  const uint64_t chunk = ChunkSize(total);
  if (pool != nullptr) {
    pool->ParallelForChunked(total, chunk, body);
    return;
  }
  const uint64_t chunks = (total + chunk - 1) / chunk;
  for (uint64_t c = 0; c < chunks; ++c) {
    body(c, c * chunk, std::min((c + 1) * chunk, total));
  }
}

double DeterministicSum(
    util::ThreadPool* pool, uint64_t total,
    const std::function<double(uint64_t, uint64_t)>& range_sum,
    std::vector<double>* partials) {
  if (total == 0) return 0.0;
  partials->assign(NumChunks(total), 0.0);
  ForEachChunk(pool, total, [&](uint64_t c, uint64_t begin, uint64_t end) {
    (*partials)[c] = range_sum(begin, end);
  });
  double sum = 0.0;
  for (double partial : *partials) sum += partial;
  return sum;
}

void ScaleByInvOutDegree(const WebGraph& graph, uint32_t k, const double* p,
                         double* scaled, util::ThreadPool* pool) {
  CHECK_GE(k, 1u);
  const double* inv = graph.InvOutDegrees().data();
  ForEachChunk(pool, graph.num_nodes(),
               [&](uint64_t, uint64_t begin, uint64_t end) {
                 for (uint64_t x = begin; x < end; ++x) {
                   const double w = inv[x];
                   const double* in = p + x * k;
                   double* out = scaled + x * k;
                   for (uint32_t j = 0; j < k; ++j) out[j] = in[j] * w;
                 }
               });
}

void DanglingSums(const WebGraph& graph, uint32_t k, const double* p,
                  std::vector<double>* partials, double* sums,
                  util::ThreadPool* pool) {
  CHECK_GE(k, 1u);
  CHECK_LE(k, kMaxVectorsPerSweep);
  const auto dangling = graph.DanglingNodes();
  const uint64_t total = dangling.size();
  for (uint32_t j = 0; j < k; ++j) sums[j] = 0.0;
  if (total == 0) return;
  const uint64_t chunks = NumChunks(total);
  partials->assign(chunks * k, 0.0);
  ForEachChunk(pool, total, [&](uint64_t c, uint64_t begin, uint64_t end) {
    double acc[kMaxVectorsPerSweep] = {0.0};
    for (uint64_t i = begin; i < end; ++i) {
      const double* row = p + static_cast<uint64_t>(dangling[i]) * k;
      for (uint32_t j = 0; j < k; ++j) acc[j] += row[j];
    }
    double* slot = partials->data() + c * k;
    for (uint32_t j = 0; j < k; ++j) slot[j] = acc[j];
  });
  for (uint64_t c = 0; c < chunks; ++c) {
    const double* slot = partials->data() + c * k;
    for (uint32_t j = 0; j < k; ++j) sums[j] += slot[j];
  }
}

LaneJumpTable BuildLaneJumps(const std::vector<const JumpVector*>& jumps) {
  const auto k = static_cast<uint32_t>(jumps.size());
  CHECK_GE(k, 1u);
  CHECK_LE(k, kMaxVectorsPerSweep);
  LaneJumpTable table;
  for (const JumpVector* jump : jumps) {
    CHECK_EQ(jump->n(), jumps.front()->n());
    table.fill.push_back(jump->fill());
    table.ids.insert(table.ids.end(), jump->support().begin(),
                     jump->support().end());
  }
  std::sort(table.ids.begin(), table.ids.end());
  table.ids.erase(std::unique(table.ids.begin(), table.ids.end()),
                  table.ids.end());
  const uint64_t count = table.ids.size();
  table.rows.resize(count * k);
  for (uint32_t j = 0; j < k; ++j) {
    // Both id lists ascend: one forward walk places lane j's support and
    // leaves its fill on the union's other rows.
    const std::vector<NodeId>& support = jumps[j]->support();
    const std::vector<double>& values = jumps[j]->support_values();
    size_t s = 0;
    for (uint64_t i = 0; i < count; ++i) {
      const bool own = s < support.size() && support[s] == table.ids[i];
      table.rows[i * k + j] = own ? values[s++] : table.fill[j];
    }
  }
  return table;
}

void WeightedJacobiSweepMulti(const WebGraph& graph, uint32_t k,
                              const simd::LaneJumps& v, double damping,
                              const double* dangling, const double* p,
                              const double* scaled, double* next,
                              double* next_scaled,
                              std::vector<double>* partials, double* diffs,
                              util::ThreadPool* pool) {
  const simd::SweepRangeFn sweep = simd::PickSweep(simd::Active(), k);
  // Per-lane jump multiplier, hoisted out of the node loop:
  //   c·(in_sum + vy·d) + (1−c)·vy  =  c·in_sum + vy·((1−c) + c·d).
  double m[kMaxVectorsPerSweep];
  for (uint32_t j = 0; j < k; ++j) {
    m[j] = (1.0 - damping) + damping * dangling[j];
  }
  simd::SweepArgs args;
  args.in_offsets = graph.InOffsets().data();
  args.sources = graph.Sources().data();
  args.inv = graph.InvOutDegrees().data();
  args.v = v;
  args.c = damping;
  args.m = m;
  args.p = p;
  args.scaled = scaled;
  args.next = next;
  args.next_scaled = next_scaled;

  const NodeId n = graph.num_nodes();
  const uint64_t chunks = NumChunks(n);
  partials->assign(chunks * k, 0.0);
  ForEachChunk(pool, n, [&](uint64_t c, uint64_t begin, uint64_t end) {
    sweep(args, partials->data() + c * k, static_cast<NodeId>(begin),
          static_cast<NodeId>(end));
  });
  for (uint32_t j = 0; j < k; ++j) diffs[j] = 0.0;
  for (uint64_t c = 0; c < chunks; ++c) {
    const double* slot = partials->data() + c * k;
    for (uint32_t j = 0; j < k; ++j) diffs[j] += slot[j];
  }
}

}  // namespace spammass::pagerank::kernel

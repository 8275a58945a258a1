#include "pagerank/kernel.h"

#include <algorithm>
#include <cmath>

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

LaneJumpTable<double> BuildLaneJumps(
    const std::vector<const JumpVector*>& jumps) {
  const auto k = static_cast<uint32_t>(jumps.size());
  CHECK_GE(k, 1u);
  CHECK_LE(k, kMaxVectorsPerSweep);
  LaneJumpTable<double> table;
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

namespace {

/// The default-variant sweep body over node range [begin, end) for one
/// chunk. diff_slot[j] receives the range's L1 difference for lane j;
/// `next_scaled` may be null.
using SweepRangeFn = void (*)(const WebGraph& graph,
                              const simd::LaneJumps<double>& v, double damping,
                              const double* dangling, const double* p,
                              const double* scaled, double* next,
                              double* next_scaled, double* diff_slot,
                              NodeId begin, NodeId end);

/// One sweep of K interleaved lanes over node range [begin, end),
/// gathering through graph.Sources() and prefetching each gathered row
/// kPrefetchEdges edges ahead (simd_sweep_body.h). Every width in
/// [1, kMaxVectorsPerSweep] is instantiated (PickSweepRange), so the lane
/// loops always have a constant trip count. The per-lane arithmetic —
/// accumulation order included — is the same for every K, so
/// specializations only unroll, never reassociate. Row y of `p` is read
/// before row y of `next` is stored, so `next` may equal `p`.
template <uint32_t K>
void SweepRange(const WebGraph& graph, const simd::LaneJumps<double>& v,
                double c, const double* dangling, const double* p,
                const double* scaled, double* next, double* next_scaled,
                double* diff_slot, NodeId begin, NodeId end) {
  const double* inv = graph.InvOutDegrees().data();
  const uint64_t* in_offsets = graph.InOffsets().data();
  const NodeId* sources = graph.Sources().data();
  // Per-lane jump multiplier, hoisted out of the node loop:
  //   c·(in_sum + vy·d) + (1−c)·vy  =  c·in_sum + vy·((1−c) + c·d).
  // Computed identically by every chunk and every K path, so the
  // reassociation cannot introduce cross-configuration divergence.
  double m[K];
  for (uint32_t j = 0; j < K; ++j) {
    m[j] = (1.0 - c) + c * dangling[j];
  }
  const uint64_t edge_end = in_offsets[end];
  simd::JumpCursor<K, double> jump(v, begin);
  double diff[K] = {0.0};
  for (NodeId y = begin; y < end; ++y) {
    double in_sum[K];
    for (uint32_t j = 0; j < K; ++j) in_sum[j] = 0.0;
    for (uint64_t e = in_offsets[y]; e < in_offsets[y + 1]; ++e) {
      simd::PrefetchGatherRow<K>(scaled, sources, e, edge_end);
      const double* row = scaled + static_cast<uint64_t>(sources[e]) * K;
      for (uint32_t j = 0; j < K; ++j) in_sum[j] += row[j];
    }
    const double* vrow = jump.Row(y);
    const double* prow = p + static_cast<uint64_t>(y) * K;
    double* nrow = next + static_cast<uint64_t>(y) * K;
    if (next_scaled != nullptr) {
      const double w = inv[y];
      double* srow = next_scaled + static_cast<uint64_t>(y) * K;
      for (uint32_t j = 0; j < K; ++j) {
        const double out = c * in_sum[j] + vrow[j] * m[j];
        diff[j] += std::abs(out - prow[j]);
        nrow[j] = out;
        srow[j] = out * w;
      }
    } else {
      for (uint32_t j = 0; j < K; ++j) {
        const double out = c * in_sum[j] + vrow[j] * m[j];
        diff[j] += std::abs(out - prow[j]);
        nrow[j] = out;
      }
    }
  }
  for (uint32_t j = 0; j < K; ++j) diff_slot[j] = diff[j];
}

/// The body for k lanes, k in [1, kMaxVectorsPerSweep]: one compile-time
/// instantiation per width, so every batch width the solver produces —
/// lane compaction included — runs fully unrolled lane loops.
SweepRangeFn PickSweepRange(uint32_t k) {
  CHECK_GE(k, 1u);
  CHECK_LE(k, kMaxVectorsPerSweep);
  static constexpr auto kTable = simd::LaneWidthTable<SweepRangeFn>(
      [](auto width) { return &SweepRange<decltype(width)::value>; });
  return kTable[k - 1];
}

}  // namespace

void WeightedJacobiSweepMulti(const WebGraph& graph, uint32_t k,
                              const simd::LaneJumps<double>& v, double damping,
                              const double* dangling, const double* p,
                              const double* scaled, double* next,
                              double* next_scaled,
                              std::vector<double>* partials, double* diffs,
                              util::ThreadPool* pool) {
  const SweepRangeFn sweep = PickSweepRange(k);
  const NodeId n = graph.num_nodes();
  const uint64_t chunks = NumChunks(n);
  partials->assign(chunks * k, 0.0);
  ForEachChunk(pool, n, [&](uint64_t c, uint64_t begin, uint64_t end) {
    sweep(graph, v, damping, dangling, p, scaled, next, next_scaled,
          partials->data() + c * k, static_cast<NodeId>(begin),
          static_cast<NodeId>(end));
  });
  for (uint32_t j = 0; j < k; ++j) diffs[j] = 0.0;
  for (uint64_t c = 0; c < chunks; ++c) {
    const double* slot = partials->data() + c * k;
    for (uint32_t j = 0; j < k; ++j) diffs[j] += slot[j];
  }
}

namespace {

/// Fills the variant-independent SweepArgs fields. The jump multipliers
/// land in caller-owned `m` storage (hoisted once per kernel call; the
/// reference path computes the same expression per chunk).
template <typename Real>
simd::SweepArgs<Real> MakeSweepArgs(const WebGraph& graph, uint32_t k,
                                    const simd::LaneJumps<Real>& v,
                                    double damping, const double* dangling,
                                    const Real* inv, const Real* p,
                                    const Real* scaled, Real* next,
                                    Real* next_scaled, bool compressed,
                                    Real* m) {
  simd::SweepArgs<Real> args;
  args.in_offsets = graph.InOffsets().data();
  if (compressed) {
    CHECK(graph.has_compressed_in())
        << "compressed sweep variant requires WebGraph::"
           "BuildCompressedInAdjacency";
    args.comp_offsets = graph.compressed_in().byte_offsets.data();
    args.comp_bytes = graph.compressed_in().bytes.data();
  } else {
    args.sources = graph.Sources().data();
  }
  args.inv = inv;
  args.v = v;
  args.c = static_cast<Real>(damping);
  for (uint32_t j = 0; j < k; ++j) {
    m[j] = static_cast<Real>((1.0 - damping) + damping * dangling[j]);
  }
  args.m = m;
  args.p = p;
  args.scaled = scaled;
  args.next = next;
  args.next_scaled = next_scaled;
  return args;
}

template <typename Real>
void RunVariantSweep(const simd::SweepRangeFn<Real> sweep,
                     const simd::SweepArgs<Real>& args, uint32_t k,
                     uint64_t n, std::vector<double>* partials, double* diffs,
                     util::ThreadPool* pool) {
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

}  // namespace

void WeightedJacobiSweepMulti(const WebGraph& graph, uint32_t k,
                              const simd::LaneJumps<double>& v, double damping,
                              const double* dangling, const double* p,
                              const double* scaled, double* next,
                              double* next_scaled,
                              std::vector<double>* partials, double* diffs,
                              const SweepVariant& variant,
                              util::ThreadPool* pool) {
  if (variant.IsDefault()) {
    // The reference path must stay byte-for-byte the pre-variant code, so
    // the bit-exact guarantee never depends on template instantiation
    // details.
    WeightedJacobiSweepMulti(graph, k, v, damping, dangling, p, scaled, next,
                             next_scaled, partials, diffs, pool);
    return;
  }
  CHECK_GE(k, 1u);
  CHECK_LE(k, kMaxVectorsPerSweep);
  double m[kMaxVectorsPerSweep];
  const simd::SweepArgs<double> args = MakeSweepArgs<double>(
      graph, k, v, damping, dangling, graph.InvOutDegrees().data(), p,
      scaled, next, next_scaled, variant.compressed, m);
  RunVariantSweep<double>(
      simd::PickSweepF64(variant.level, k, variant.compressed), args, k,
      graph.num_nodes(), partials, diffs, pool);
}

void InvOutDegreesF32(const WebGraph& graph, std::vector<float>* out) {
  const auto inv = graph.InvOutDegrees();
  out->resize(inv.size());
  for (size_t x = 0; x < inv.size(); ++x) {
    (*out)[x] = static_cast<float>(inv[x]);
  }
}

void ScaleByInvOutDegreeF32(uint32_t num_nodes, uint32_t k, const float* inv,
                            const float* p, float* scaled,
                            util::ThreadPool* pool) {
  CHECK_GE(k, 1u);
  ForEachChunk(pool, num_nodes, [&](uint64_t, uint64_t begin, uint64_t end) {
    for (uint64_t x = begin; x < end; ++x) {
      const float w = inv[x];
      const float* in = p + x * k;
      float* out = scaled + x * k;
      for (uint32_t j = 0; j < k; ++j) out[j] = in[j] * w;
    }
  });
}

void DanglingSumsF32(const WebGraph& graph, uint32_t k, const float* p,
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
      const float* row = p + static_cast<uint64_t>(dangling[i]) * k;
      for (uint32_t j = 0; j < k; ++j) {
        acc[j] += static_cast<double>(row[j]);
      }
    }
    double* slot = partials->data() + c * k;
    for (uint32_t j = 0; j < k; ++j) slot[j] = acc[j];
  });
  for (uint64_t c = 0; c < chunks; ++c) {
    const double* slot = partials->data() + c * k;
    for (uint32_t j = 0; j < k; ++j) sums[j] += slot[j];
  }
}

void WeightedJacobiSweepMultiF32(const WebGraph& graph, uint32_t k,
                                 const simd::LaneJumps<float>& v,
                                 double damping, const double* dangling,
                                 const float* inv, const float* p,
                                 const float* scaled, float* next,
                                 float* next_scaled,
                                 std::vector<double>* partials, double* diffs,
                                 const SweepVariant& variant,
                                 util::ThreadPool* pool) {
  CHECK_GE(k, 1u);
  CHECK_LE(k, kMaxVectorsPerSweep);
  float m[kMaxVectorsPerSweep];
  const simd::SweepArgs<float> args =
      MakeSweepArgs<float>(graph, k, v, damping, dangling, inv, p, scaled,
                           next, next_scaled, variant.compressed, m);
  RunVariantSweep<float>(
      simd::PickSweepF32(variant.level, k, variant.compressed), args, k,
      graph.num_nodes(), partials, diffs, pool);
}

}  // namespace spammass::pagerank::kernel

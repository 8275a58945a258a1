// Tests of the jump-vector factories (Sections 2.2, 3.4, 3.5).

#include "pagerank/jump_vector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "pagerank/solver.h"

namespace spammass {
namespace {

using graph::NodeId;
using pagerank::JumpVector;

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

TEST(JumpVectorTest, UniformHasUnitNorm) {
  JumpVector v = JumpVector::Uniform(8);
  EXPECT_EQ(v.n(), 8u);
  EXPECT_NEAR(v.Norm(), 1.0, 1e-12);
  for (uint32_t i = 0; i < 8; ++i) EXPECT_NEAR(v[i], 0.125, 1e-12);
}

TEST(JumpVectorTest, CoreNormIsCoreFractionOfN) {
  // ‖v^Ṽ⁺‖ = |Ṽ⁺|/n — the inequality driving Section 3.5.
  JumpVector v = JumpVector::Core(10, {1, 3, 5});
  EXPECT_NEAR(v.Norm(), 0.3, 1e-12);
  EXPECT_EQ(v.NumNonZero(), 3u);
  EXPECT_NEAR(v[1], 0.1, 1e-12);
  EXPECT_EQ(v[0], 0.0);
}

TEST(JumpVectorTest, ScaledCoreNormIsGamma) {
  // ‖w‖ = γ regardless of core size (Section 3.5).
  JumpVector w = JumpVector::ScaledCore(1000, {7, 8}, 0.85);
  EXPECT_NEAR(w.Norm(), 0.85, 1e-12);
  EXPECT_NEAR(w[7], 0.425, 1e-12);
  EXPECT_NEAR(w[8], 0.425, 1e-12);
}

TEST(JumpVectorTest, ScaledCoreMembersGetMoreThanUniform) {
  // Section 3.5: core members receive γ/|Ṽ⁺| ≫ 1/n — the source of
  // negative mass estimates for core members.
  JumpVector w = JumpVector::ScaledCore(1000, {1, 2, 3, 4}, 0.85);
  EXPECT_GT(w[1], 1.0 / 1000);
}

TEST(JumpVectorTest, SingleNode) {
  JumpVector v = JumpVector::SingleNode(5, 2, 0.2);
  EXPECT_NEAR(v.Norm(), 0.2, 1e-12);
  EXPECT_EQ(v.NumNonZero(), 1u);
  EXPECT_NEAR(v[2], 0.2, 1e-12);
}

TEST(JumpVectorTest, PlusAndScaled) {
  JumpVector a = JumpVector::SingleNode(4, 0, 0.25);
  JumpVector b = JumpVector::SingleNode(4, 1, 0.25);
  JumpVector sum = a.Plus(b);
  EXPECT_NEAR(sum.Norm(), 0.5, 1e-12);
  JumpVector half = sum.Scaled(0.5);
  EXPECT_NEAR(half.Norm(), 0.25, 1e-12);
  EXPECT_NEAR(half[0], 0.125, 1e-12);
}

TEST(JumpVectorTest, CoreDecomposesIntoSingleNodes) {
  // v^U = Σ_{x∈U} vˣ — the linearity used to prove q^U = Σ q^x.
  JumpVector core = JumpVector::Core(6, {2, 4});
  JumpVector sum = JumpVector::SingleNode(6, 2, 1.0 / 6)
                       .Plus(JumpVector::SingleNode(6, 4, 1.0 / 6));
  for (uint32_t i = 0; i < 6; ++i) EXPECT_NEAR(core[i], sum[i], 1e-12);
}

TEST(JumpVectorTest, ScaledCoreWeighsDistinctMembers) {
  // A repeated id is one member: ‖w‖ stays γ.
  const JumpVector dup = JumpVector::ScaledCore(10, {3, 3, 5}, 0.85);
  const JumpVector distinct = JumpVector::ScaledCore(10, {5, 3}, 0.85);
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(Bits(dup[i]), Bits(distinct[i])) << "node " << i;
  }
  EXPECT_EQ(dup.Norm(), 0.85);
  EXPECT_EQ(dup.NumNonZero(), 2u);
}

// The dense constructions the factories used to build entry by entry:
// the reference the support-based storage must reproduce bit for bit.
std::vector<double> DenseCore(uint32_t n, const std::vector<NodeId>& core,
                              double weight) {
  std::vector<double> v(n, 0.0);
  for (NodeId x : core) v[x] = weight;
  return v;
}

std::vector<double> DenseSingle(uint32_t n, NodeId x, double weight) {
  std::vector<double> v(n, 0.0);
  v[x] = weight;
  return v;
}

std::vector<double> DensePlus(std::vector<double> a,
                              const std::vector<double>& b) {
  for (size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  return a;
}

std::vector<double> DenseScaled(std::vector<double> a, double factor) {
  for (double& x : a) x *= factor;
  return a;
}

void ExpectMatchesDense(const std::string& name, const JumpVector& got,
                        const std::vector<double>& want) {
  SCOPED_TRACE(name);
  ASSERT_EQ(got.n(), want.size());
  const std::vector<double> dense = got.ToDense();
  ASSERT_EQ(dense.size(), want.size());
  uint64_t nonzero = 0;
  double norm = 0;
  for (uint32_t i = 0; i < got.n(); ++i) {
    ASSERT_EQ(Bits(got[i]), Bits(want[i])) << "operator[] at " << i;
    ASSERT_EQ(Bits(dense[i]), Bits(want[i])) << "ToDense at " << i;
    if (want[i] != 0.0) ++nonzero;
    norm += want[i];
  }
  EXPECT_EQ(got.NumNonZero(), nonzero);
  // Norm is the left-to-right sum of all n entries, to the bit.
  EXPECT_EQ(Bits(got.Norm()), Bits(norm));
}

TEST(JumpVectorTest, SupportStorageMatchesDenseConstruction) {
  const uint32_t n = 37;
  const std::vector<NodeId> core = {30, 4, 17, 0, 36, 9};  // unsorted
  const double core_weight = 0.85 / static_cast<double>(core.size());
  std::vector<double> raw(n, 0.0);
  for (uint32_t i = 0; i < n; i += 3) raw[i] = 0.01 * (i + 1);
  raw[5] = -0.0;  // non-negative, but bitwise distinct from the zero fill
  const std::vector<double> uniform(n, 1.0 / n);
  const JumpVector single = JumpVector::SingleNode(n, 11, 0.25);
  const JumpVector small_core = JumpVector::ScaledCore(n, {4, 5, 6}, 0.5);
  const JumpVector from_dense = JumpVector::FromDense(raw);

  ExpectMatchesDense("zero", JumpVector(n), std::vector<double>(n, 0.0));
  ExpectMatchesDense("uniform", JumpVector::Uniform(n), uniform);
  ExpectMatchesDense("core", JumpVector::Core(n, core),
                     DenseCore(n, core, 1.0 / n));
  ExpectMatchesDense("scaled core", JumpVector::ScaledCore(n, core, 0.85),
                     DenseCore(n, core, core_weight));
  ExpectMatchesDense("single node", single, DenseSingle(n, 11, 0.25));
  ExpectMatchesDense("from dense", from_dense, raw);
  ExpectMatchesDense(
      "uniform + single, halved",
      JumpVector::Uniform(n).Plus(single).Scaled(0.5),
      DenseScaled(DensePlus(uniform, DenseSingle(n, 11, 0.25)), 0.5));
  ExpectMatchesDense("core + scaled core",
                     JumpVector::Core(n, core).Plus(small_core),
                     DensePlus(DenseCore(n, core, 1.0 / n),
                               DenseCore(n, {4, 5, 6}, 0.5 / 3)));
  ExpectMatchesDense("single + uniform",
                     single.Plus(JumpVector::Uniform(n).Scaled(0.75)),
                     DensePlus(DenseSingle(n, 11, 0.25),
                               DenseScaled(uniform, 0.75)));
  ExpectMatchesDense("from dense + uniform, scaled",
                     from_dense.Plus(JumpVector::Uniform(n)).Scaled(0.3),
                     DenseScaled(DensePlus(raw, uniform), 0.3));
  ExpectMatchesDense("scaled by zero", JumpVector::Core(n, core).Scaled(0.0),
                     DenseScaled(DenseCore(n, core, 1.0 / n), 0.0));
}

TEST(JumpVectorTest, PowerIterationSeesTheDenseNormalization) {
  // Power iteration divides every entry by the left-to-right sum of all n
  // entries, so a uniform jump and its dense twin solve identically.
  graph::GraphBuilder b(300);
  for (NodeId x = 0; x < 290; ++x) {
    b.AddEdge(x, (7 * x + 11) % 300);
    b.AddEdge(x, (13 * x + 5) % 300);
  }
  const graph::WebGraph g = b.Build();
  pagerank::SolverOptions opt;
  opt.method = pagerank::Method::kPowerIteration;
  opt.tolerance = 1e-13;
  opt.max_iterations = 500;
  opt.track_residuals = true;
  const JumpVector uniform = JumpVector::Uniform(g.num_nodes());
  auto compact = pagerank::ComputePageRank(g, uniform, opt);
  auto dense = pagerank::ComputePageRank(
      g, JumpVector::FromDense(uniform.ToDense()), opt);
  ASSERT_TRUE(compact.ok() && dense.ok());
  ASSERT_EQ(compact.value().scores.size(), dense.value().scores.size());
  for (size_t x = 0; x < dense.value().scores.size(); ++x) {
    ASSERT_EQ(Bits(compact.value().scores[x]), Bits(dense.value().scores[x]))
        << "node " << x;
  }
  ASSERT_EQ(compact.value().residual_history.size(),
            dense.value().residual_history.size());
  for (size_t i = 0; i < dense.value().residual_history.size(); ++i) {
    EXPECT_EQ(Bits(compact.value().residual_history[i]),
              Bits(dense.value().residual_history[i]))
        << "sweep " << i;
  }
}

}  // namespace
}  // namespace spammass

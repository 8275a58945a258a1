// Random-jump (teleportation) distributions. The paper's method hinges on
// solving linear PageRank for different jump vectors v:
//   * the uniform v = (1/n)ⁿ for the regular PageRank p,
//   * the core-based v^Ṽ⁺ (1/n on good-core members, 0 elsewhere) and its
//     γ-scaled variant w (Section 3.5) for the good-contribution p′,
//   * single-node vectors vˣ for PageRank contributions (Theorem 2).
// Vectors may be unnormalized: 0 < ‖v‖ ≤ 1 (Section 2.2).
//
// Storage is by support: one fill value shared by every node outside the
// support, plus the ascending support ids and their values. The uniform
// vector costs O(1) and a core vector O(|core|), never O(n) — the good
// core is a few percent of the hosts. Every accessor returns bitwise the
// double a dense vector built entry by entry would hold.

#ifndef SPAMMASS_PAGERANK_JUMP_VECTOR_H_
#define SPAMMASS_PAGERANK_JUMP_VECTOR_H_

#include <cstdint>
#include <vector>

#include "graph/web_graph.h"

namespace spammass::pagerank {

/// A non-negative jump distribution over the nodes of a graph.
class JumpVector {
 public:
  /// Zero vector of dimension n (useless for PageRank itself; building
  /// block for combinations).
  explicit JumpVector(uint32_t n) : n_(n) {}

  /// Wraps a dense vector of non-negative weights; its support is every
  /// entry that is not +0.0.
  static JumpVector FromDense(std::vector<double> values);

  /// Uniform 1/n over all n nodes; ‖v‖ = 1.
  static JumpVector Uniform(uint32_t n);

  /// Core-based v^U: 1/n on each member of `core`, 0 elsewhere;
  /// ‖v‖ = |core|/n. (Definition in Section 3.4.)
  static JumpVector Core(uint32_t n, const std::vector<graph::NodeId>& core);

  /// γ-scaled core vector w: γ/|core| on each member, 0 elsewhere; ‖w‖ = γ.
  /// |core| counts distinct ids, so a repeated id changes nothing.
  /// (Section 3.5; the paper uses γ = 0.85 on the Yahoo! graph.)
  static JumpVector ScaledCore(uint32_t n,
                               const std::vector<graph::NodeId>& core,
                               double gamma);

  /// Single-node vector vˣ with weight `weight` on x (defaults to 1/n).
  static JumpVector SingleNode(uint32_t n, graph::NodeId x, double weight);

  uint32_t n() const { return n_; }

  /// Entry i; O(log |support|).
  double operator[](uint32_t i) const;

  /// The value of every node outside support().
  double fill() const { return fill_; }

  /// Ascending node ids whose entries are stored explicitly.
  const std::vector<graph::NodeId>& support() const { return support_; }

  /// support_values()[s] is the entry of node support()[s].
  const std::vector<double>& support_values() const { return values_; }

  /// The n entries as a dense vector.
  std::vector<double> ToDense() const;

  /// L1 norm (the vector is non-negative): the left-to-right sum of the
  /// n entries, bitwise what summing ToDense() in order yields.
  double Norm() const;

  /// Number of nonzero entries.
  uint64_t NumNonZero() const;

  /// Sum of two jump vectors of equal dimension — PageRank is linear in v
  /// (Section 2.2), so PR(a + b) = PR(a) + PR(b).
  JumpVector Plus(const JumpVector& other) const;

  /// Scalar multiple.
  JumpVector Scaled(double factor) const;

 private:
  JumpVector(uint32_t n, double fill, std::vector<graph::NodeId> support,
             std::vector<double> values)
      : n_(n),
        fill_(fill),
        support_(std::move(support)),
        values_(std::move(values)) {}

  uint32_t n_ = 0;
  double fill_ = 0.0;
  std::vector<graph::NodeId> support_;
  std::vector<double> values_;
};

}  // namespace spammass::pagerank

#endif  // SPAMMASS_PAGERANK_JUMP_VECTOR_H_

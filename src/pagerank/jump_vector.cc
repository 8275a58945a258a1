#include "pagerank/jump_vector.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "util/logging.h"

namespace spammass::pagerank {

namespace {

/// The distinct ids of `core`, ascending; every id must lie below n.
std::vector<graph::NodeId> SortedSupport(
    uint32_t n, const std::vector<graph::NodeId>& core) {
  for (graph::NodeId x : core) CHECK_LT(x, n);
  std::vector<graph::NodeId> ids(core);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace

JumpVector JumpVector::FromDense(std::vector<double> values) {
  std::vector<graph::NodeId> support;
  std::vector<double> support_values;
  for (size_t i = 0; i < values.size(); ++i) {
    const double v = values[i];
    CHECK_GE(v, 0.0);
    // -0.0 compares equal to the +0.0 fill but differs bitwise: keep it.
    if (v != 0.0 || std::signbit(v)) {
      support.push_back(static_cast<graph::NodeId>(i));
      support_values.push_back(v);
    }
  }
  return JumpVector(static_cast<uint32_t>(values.size()), 0.0,
                    std::move(support), std::move(support_values));
}

JumpVector JumpVector::Uniform(uint32_t n) {
  CHECK_GT(n, 0u);
  return JumpVector(n, 1.0 / n, {}, {});
}

JumpVector JumpVector::Core(uint32_t n,
                            const std::vector<graph::NodeId>& core) {
  CHECK_GT(n, 0u);
  std::vector<graph::NodeId> ids = SortedSupport(n, core);
  std::vector<double> values(ids.size(), 1.0 / n);
  return JumpVector(n, 0.0, std::move(ids), std::move(values));
}

JumpVector JumpVector::ScaledCore(uint32_t n,
                                  const std::vector<graph::NodeId>& core,
                                  double gamma) {
  CHECK_GT(n, 0u);
  CHECK(!core.empty());
  CHECK_GT(gamma, 0.0);
  CHECK_LE(gamma, 1.0);
  std::vector<graph::NodeId> ids = SortedSupport(n, core);
  const double weight = gamma / static_cast<double>(ids.size());
  std::vector<double> values(ids.size(), weight);
  return JumpVector(n, 0.0, std::move(ids), std::move(values));
}

JumpVector JumpVector::SingleNode(uint32_t n, graph::NodeId x, double weight) {
  CHECK_GT(n, 0u);
  CHECK_LT(x, n);
  CHECK_GE(weight, 0.0);
  return JumpVector(n, 0.0, {x}, {weight});
}

double JumpVector::operator[](uint32_t i) const {
  const auto it = std::lower_bound(support_.begin(), support_.end(), i);
  if (it != support_.end() && *it == i) {
    return values_[static_cast<size_t>(it - support_.begin())];
  }
  return fill_;
}

std::vector<double> JumpVector::ToDense() const {
  std::vector<double> dense(n_, fill_);
  for (size_t s = 0; s < support_.size(); ++s) {
    dense[support_[s]] = values_[s];
  }
  return dense;
}

double JumpVector::Norm() const {
  double sum = 0;
  if (fill_ == 0.0) {
    // Adding ±0.0 to a sum that starts at +0.0 never changes it, so the
    // fill entries can be skipped without changing a bit.
    for (double v : values_) sum += v;
    return sum;
  }
  size_t s = 0;
  for (uint32_t i = 0; i < n_; ++i) {
    if (s < support_.size() && support_[s] == i) {
      sum += values_[s++];
    } else {
      sum += fill_;
    }
  }
  return sum;
}

uint64_t JumpVector::NumNonZero() const {
  uint64_t nz = fill_ != 0.0 ? n_ - support_.size() : 0;
  for (double v : values_) {
    if (v != 0.0) ++nz;
  }
  return nz;
}

JumpVector JumpVector::Plus(const JumpVector& other) const {
  CHECK_EQ(n(), other.n());
  // Outside both supports the sum is the sum of the fills, exactly as a
  // dense entrywise sum computes it.
  std::vector<graph::NodeId> ids;
  std::set_union(support_.begin(), support_.end(), other.support_.begin(),
                 other.support_.end(), std::back_inserter(ids));
  std::vector<double> values;
  values.reserve(ids.size());
  for (graph::NodeId x : ids) values.push_back((*this)[x] + other[x]);
  return JumpVector(n_, fill_ + other.fill_, std::move(ids),
                    std::move(values));
}

JumpVector JumpVector::Scaled(double factor) const {
  CHECK_GE(factor, 0.0);
  std::vector<double> values(values_);
  for (double& x : values) x *= factor;
  return JumpVector(n_, fill_ * factor, support_, std::move(values));
}

}  // namespace spammass::pagerank

#include "core/mti.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/kernels/simd.hpp"

namespace knor {

MtiState::MtiState(index_t n, int k)
    : k_(k),
      ub_(static_cast<std::size_t>(n)),
      nbr_(k > 1 ? static_cast<std::size_t>(k) * (k - 1) : 0),
      half_(nbr_.size(), 0),
      drift_(static_cast<std::size_t>(k), 0) {
  for (index_t i = 0; i < n; ++i)
    ub_[i] = std::numeric_limits<value_t>::infinity();
}

void MtiState::prepare(const DenseMatrix& prev, const DenseMatrix& cur) {
  prepare(prev, cur, kernels::ops());
}

void MtiState::prepare(const DenseMatrix& prev, const DenseMatrix& cur,
                       const kernels::Ops& K) {
  const index_t d = cur.cols();
  const std::size_t m = k_ > 1 ? static_cast<std::size_t>(k_ - 1) : 0;
  // The triangle-inequality bookkeeping needs TRUE distances; these are
  // the only sqrts of the pruning machinery (kernels return squared).
  // Each pair is computed once and written, unsorted, into both lists: b
  // sits at slot b (b < a) or b - 1 (b > a) of a's list.
  for (int a = 0; a < k_; ++a) {
    for (int b = a + 1; b < k_; ++b) {
      value_t h = value_t(0.5) *
                  std::sqrt(K.dist_sq(cur.row(static_cast<index_t>(a)),
                                      cur.row(static_cast<index_t>(b)), d));
      // A NaN distance sorts last and never passes a cut: a NaN centroid
      // can never win an argmin, so dropping it changes no assignment.
      if (std::isnan(h)) h = std::numeric_limits<value_t>::infinity();
      const auto ia = static_cast<std::size_t>(a);
      const auto ib = static_cast<std::size_t>(b);
      half_[ia * m + ib - 1] = h;
      half_[ib * m + ia] = h;
    }
  }
  std::vector<std::pair<value_t, cluster_t>> order(m);
  for (int a = 0; a < k_; ++a) {
    value_t* h = half_.data() + static_cast<std::size_t>(a) * m;
    cluster_t* ids = nbr_.data() + static_cast<std::size_t>(a) * m;
    for (std::size_t j = 0; j < m; ++j)
      order[j] = {h[j], static_cast<cluster_t>(
                            j < static_cast<std::size_t>(a) ? j : j + 1)};
    std::sort(order.begin(), order.end());  // by (half-distance, id)
    for (std::size_t j = 0; j < m; ++j) {
      h[j] = order[j].first;
      ids[j] = order[j].second;
    }
  }
  if (prev.empty()) {
    std::fill(drift_.begin(), drift_.end(), value_t(0));
  } else {
    for (int c = 0; c < k_; ++c)
      drift_[static_cast<std::size_t>(c)] =
          std::sqrt(K.dist_sq(prev.row(static_cast<index_t>(c)),
                              cur.row(static_cast<index_t>(c)), d));
  }
}

int MtiState::prefix(cluster_t a, value_t cutoff, int len) const {
  const value_t* h = half(a);
  return static_cast<int>(
      std::partition_point(h, h + len,
                           [cutoff](value_t x) { return x < cutoff; }) -
      h);
}

cluster_t MtiState::assign(index_t i, const value_t* v, cluster_t a,
                           const kernels::Ops& K,
                           const kernels::CentroidPack& pack, Counters& cnt) {
  const value_t loosened = ub_[i] + drift_[a];
  value_t best_sq = K.dist_sq(v, pack.row(static_cast<int>(a)), pack.d());
  const value_t d_a = std::sqrt(best_sq);
  // Clause 2 cut on the loosened bound, then clause 3 on the tightened
  // one. Mathematically d_a <= loosened; the min guards the one-ulp
  // rounding where the computed d_a exceeds it, keeping L3 <= L2.
  const int l2 = prefix(a, loosened);
  const int l3 = prefix(a, std::min(loosened, d_a), l2);
  cnt.clause2_skips += static_cast<std::uint64_t>(k_ - 1 - l2);
  cnt.clause3_skips += static_cast<std::uint64_t>(l2 - l3);
  cnt.dist_computations += 1 + static_cast<std::uint64_t>(l3);
  const cluster_t best =
      K.nearest_subset(v, pack, neighbours(a), l3, a, &best_sq);
  ub_[i] = best == a ? d_a : std::sqrt(best_sq);
  return best;
}

}  // namespace knor

namespace knor::detail {

std::vector<value_t> checkpoint_bounds(const IterationView& view) {
  if (view.mti == nullptr) return {};
  const std::vector<cluster_t>& a = *view.assignments;
  std::vector<value_t> bounds(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    bounds[i] = view.mti->ub(static_cast<index_t>(i)) + view.mti->drift(a[i]);
  return bounds;
}

}  // namespace knor::detail

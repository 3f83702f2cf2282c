// Minimal Triangle Inequality (MTI) pruning state — the paper's §4
// modification of Elkan's algorithm that drops the O(nk) lower-bound matrix.
//
// Memory: O(n) upper bounds + O(k^2) sorted neighbour lists + O(k) drifts
// — the paper's "6-10 bytes per point" overhead.
//
// Per iteration:
//   * prepare(prev, cur) computes, for every centroid a, the other k-1
//     centroids sorted by (d(a, c), id) with their half-distances
//     1/2 d(a, c) (the first entry is s_half(a)), and the drift
//     f(c) = d(c_prev, c_cur) used to loosen bounds.
//   * For each point i with assignment a and loosened bound
//     ub = ub[i] + f(a):
//       Clause 1: ub <= s_half(a)           -> keep cluster, no distance
//                 computation at all (and, in knors, no I/O request).
//   * A surviving point runs the pruned-assign step assign(): one distance
//     d_a = d(v, c_a), then two cuts of a's sorted list —
//       Clause 2: candidates with 1/2 d(a, c) >= ub are skipped (prefix
//                 length L2 = #{c : 1/2 d(a, c) < ub});
//       Clause 3: candidates with 1/2 d(a, c) >= d_a are skipped too — the
//                 tightened bound, tested against the assigned centroid
//                 (prefix length L3 <= L2);
//     and the L3 survivors go through the register-blocked subset kernel
//     (kernels::Ops::nearest_subset) with no per-candidate branch.
// All bounds are on Euclidean (not squared) distances, as the triangle
// inequality requires; the argmin compares squared distances.
#pragma once

#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/dense_matrix.hpp"
#include "common/types.hpp"
#include "core/kernels/simd.hpp"
#include "core/kmeans_types.hpp"

namespace knor {

class MtiState {
 public:
  MtiState() = default;
  MtiState(index_t n, int k);

  /// Recompute the sorted neighbour lists and drift for a new iteration.
  /// `prev` may be empty on the first call (drift = 0). Engines pass
  /// their hoisted kernel table so the bounds use the SAME ISA as the
  /// distances they gate even if another thread retargets the process-
  /// wide dispatch mid-run; the two-argument form resolves ops() itself.
  void prepare(const DenseMatrix& prev, const DenseMatrix& cur,
               const kernels::Ops& K);
  void prepare(const DenseMatrix& prev, const DenseMatrix& cur);

  /// Upper bound of point i (Euclidean).
  value_t ub(index_t i) const { return ub_[i]; }
  void set_ub(index_t i, value_t v) { ub_[i] = v; }

  /// Centroid drift f(c) = d(c_prev, c_cur).
  value_t drift(cluster_t c) const { return drift_[c]; }
  /// Half the distance from c to its nearest other centroid (0 when k = 1).
  value_t s_half(cluster_t c) const { return k_ > 1 ? half(c)[0] : 0; }
  /// Centroid a's k-1 neighbours, sorted by (d(a, c), id).
  const cluster_t* neighbours(cluster_t a) const {
    return nbr_.data() + static_cast<std::size_t>(a) * (k_ - 1);
  }
  /// 1/2 d(a, neighbours(a)[j]) for j < k-1: non-decreasing in j.
  const value_t* half(cluster_t a) const {
    return half_.data() + static_cast<std::size_t>(a) * (k_ - 1);
  }
  /// Length of the prefix of a's sorted list with 1/2 d(a, c) < cutoff.
  int prefix(cluster_t a, value_t cutoff) const {
    return prefix(a, cutoff, k_ - 1);
  }

  /// Clause 1: true when the loosened bound proves point i's assignment
  /// cannot change this iteration.
  bool clause1(cluster_t assign, value_t loosened_ub) const {
    return loosened_ub <= s_half(assign);
  }

  /// Clause 1 for point i, assigned to a: when it holds, stores the
  /// loosened bound, counts the skip and returns true — the point needs
  /// no distance, no accumulate and (in knors) no I/O this iteration.
  bool skip(index_t i, cluster_t a, Counters& cnt) {
    const value_t loosened = ub_[i] + drift_[a];
    if (!clause1(a, loosened)) return false;
    ub_[i] = loosened;
    ++cnt.clause1_skips;
    return true;
  }

  /// The pruned-assign step every MTI engine (knori, knord, knors) runs
  /// for a point v (row i, assigned to a) that survived clause 1: clauses
  /// 2 and 3 cut a's sorted list, the subset kernel scans the surviving
  /// prefix against `pack` (the current centroids), and ub(i) becomes the
  /// winner's true distance. Returns the new assignment (a keeps ties).
  cluster_t assign(index_t i, const value_t* v, cluster_t a,
                   const kernels::Ops& K, const kernels::CentroidPack& pack,
                   Counters& cnt);

  int k() const { return k_; }
  index_t n() const { return ub_.size(); }
  std::size_t bytes() const {
    return ub_.size() * sizeof(value_t) + half_.size() * sizeof(value_t) +
           nbr_.size() * sizeof(cluster_t) + drift_.size() * sizeof(value_t);
  }

 private:
  int prefix(cluster_t a, value_t cutoff, int len) const;

  int k_ = 0;
  AlignedBuffer<value_t> ub_;
  std::vector<cluster_t> nbr_;  ///< k*(k-1): per centroid, sorted neighbours
  std::vector<value_t> half_;   ///< k*(k-1): 1/2 d(a, nbr) in list order
  std::vector<value_t> drift_;  ///< k
};

namespace detail {

/// The MTI state a checkpoint stores for ResumeState::upper_bounds: each
/// row's bound pre-loosened against the boundary's centroids (ub + drift of
/// its cluster), so the resumed engine starts with drift 0 and stays
/// bitwise exact. Empty when the view carries no MTI state (pruning off).
std::vector<value_t> checkpoint_bounds(const IterationView& view);

}  // namespace detail

}  // namespace knor

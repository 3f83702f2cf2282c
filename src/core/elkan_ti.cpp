// Full Elkan triangle-inequality k-means (ICML'03) — the algorithm MTI
// simplifies. Maintains the O(nk) lower-bound matrix l(x,c) plus per-point
// upper bounds; prunes with all of Elkan's clauses. Included both as a
// correctness oracle for MTI and to let the Table 1 / Figure 8 benches show
// the memory trade-off the paper makes (O(nk) vs O(n) extra state).
//
// An assign step of the shared ||Lloyd's driver (core/engine_impl.hpp):
// every per-point step (bounds, argmin) is row-local, so it runs on the
// work-stealing scheduler with the driver's per-chunk sums and fixed-tree
// fold, bitwise independent of thread count and steal order (DESIGN.md §7).
#include <cmath>
#include <limits>
#include <vector>

#include "common/memory_tracker.hpp"
#include "core/engine_impl.hpp"
#include "core/engines.hpp"
#include "core/init.hpp"
#include "core/kernels/simd.hpp"
#include "core/run_metrics.hpp"

namespace knor {
namespace {

class ElkanStep {
 public:
  ElkanStep(index_t n, index_t d, int k, const kernels::Ops& K)
      : d_(d),
        k_(k),
        K_(K),
        ub_(static_cast<std::size_t>(n),
            std::numeric_limits<value_t>::infinity()),
        lb_(static_cast<std::size_t>(n) * k, 0),
        c2c_(static_cast<std::size_t>(k) * k, 0),
        s_half_(static_cast<std::size_t>(k), 0),
        drift_(static_cast<std::size_t>(k), 0),
        mem_lb_("elkan-lower-bounds", lb_.size() * sizeof(value_t)),
        mem_ub_("elkan-upper-bounds", ub_.size() * sizeof(value_t)) {}

  /// Steps 5-6's drift d(c, c') of every centroid, then the c2c table and
  /// the separations s(c) = min d(c, c')/2 for the next pass. The bounds
  /// themselves loosen by the drift row by row, in assign().
  void update(const DenseMatrix& prev, DenseMatrix& cur) {
    cur_ = &cur;
    if (!prev.empty())
      for (int c = 0; c < k_; ++c)
        drift_[static_cast<std::size_t>(c)] =
            edist(prev.row(static_cast<index_t>(c)),
                  cur.row(static_cast<index_t>(c)));
    for (int a = 0; a < k_; ++a)
      for (int b = a + 1; b < k_; ++b) {
        const value_t dab = edist(cur.row(static_cast<index_t>(a)),
                                  cur.row(static_cast<index_t>(b)));
        c2c_[static_cast<std::size_t>(a) * k_ + b] = dab;
        c2c_[static_cast<std::size_t>(b) * k_ + a] = dab;
      }
    for (int a = 0; a < k_; ++a) {
      value_t m = std::numeric_limits<value_t>::infinity();
      for (int b = 0; b < k_; ++b)
        if (b != a) m = std::min(m, c2c(a, b));
      s_half_[static_cast<std::size_t>(a)] = k_ > 1 ? m * value_t(0.5) : 0;
    }
  }

  cluster_t assign(index_t r, const value_t* v, cluster_t a, Counters& cnt) {
    value_t* lb = &lb_[static_cast<std::size_t>(r) * k_];
    if (a == kInvalidCluster) {
      // First iteration: full scan seeds both bound structures.
      value_t best_d = dist(v, 0, cnt);
      lb[0] = best_d;
      cluster_t best = 0;
      for (int c = 1; c < k_; ++c) {
        const value_t dc = dist(v, c, cnt);
        lb[c] = dc;
        if (dc < best_d) {
          best_d = dc;
          best = static_cast<cluster_t>(c);
        }
      }
      ub_[r] = best_d;
      return best;
    }

    // Steps 5-6 for this row: loosen its bounds by the last update's drift.
    for (int c = 0; c < k_; ++c)
      lb[c] = std::max(value_t(0),
                       lb[c] - drift_[static_cast<std::size_t>(c)]);
    ub_[r] += drift_[a];

    // Elkan step 2: skip the whole point when u(x) <= s(c(x)).
    if (ub_[r] <= s_half_[a]) {
      ++cnt.clause1_skips;
      return a;
    }
    bool tight = false;
    value_t best_d = ub_[r];
    cluster_t best = a;
    for (int c = 0; c < k_; ++c) {
      if (static_cast<cluster_t>(c) == best) continue;
      // Step 3 conditions: candidate must beat both its lower bound and
      // the inter-centroid separation.
      if (best_d <= lb[c]) {
        ++cnt.clause2_skips;
        continue;
      }
      if (best_d <= value_t(0.5) * c2c(best, c)) {
        ++cnt.clause3_skips;
        continue;
      }
      if (!tight) {
        // 3a: tighten u(x) = d(x, c(x)).
        best_d = dist(v, best, cnt);
        lb[best] = best_d;
        tight = true;
        if (best_d <= lb[c] || best_d <= value_t(0.5) * c2c(best, c))
          continue;
      }
      // 3b: compute d(x, c).
      const value_t dc = dist(v, c, cnt);
      lb[c] = dc;
      if (dc < best_d) {
        best_d = dc;
        best = static_cast<cluster_t>(c);
      }
    }
    ub_[r] = best_d;
    return best;
  }

  double energy(const value_t* v, const value_t* c) const {
    return K_.dist_sq(v, c, d_);
  }

 private:
  // Elkan's bound algebra is in TRUE distances; the kernels return squared.
  value_t edist(const value_t* a, const value_t* b) const {
    return std::sqrt(K_.dist_sq(a, b, d_));
  }
  value_t dist(const value_t* v, int c, Counters& cnt) const {
    ++cnt.dist_computations;
    return edist(v, cur_->row(static_cast<index_t>(c)));
  }
  value_t c2c(int a, int b) const {
    return c2c_[static_cast<std::size_t>(a) * k_ + b];
  }

  const index_t d_;
  const int k_;
  const kernels::Ops& K_;
  const DenseMatrix* cur_ = nullptr;
  // Elkan state: upper bound u(x), lower bounds l(x,c) — the O(nk) matrix —
  // plus the c2c distances, per-centroid separations and the last drift.
  std::vector<value_t> ub_;
  std::vector<value_t> lb_;
  std::vector<value_t> c2c_;
  std::vector<value_t> s_half_;
  std::vector<value_t> drift_;
  ScopedAlloc mem_lb_;
  ScopedAlloc mem_ub_;
};

}  // namespace

Result elkan_ti(ConstMatrixView data, const Options& opts) {
  detail::RunMetricsScope metrics;
  DenseMatrix initial = init_centroids(data, opts);
  ElkanStep step(data.rows(), data.cols(), opts.k,
                 kernels::ops_for(opts.simd));
  Result res = detail::run_node(step, data, opts, std::move(initial));
  metrics.attach(res);
  return res;
}

}  // namespace knor

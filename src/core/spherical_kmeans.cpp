#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/engine_impl.hpp"
#include "core/init.hpp"
#include "core/kernels/simd.hpp"
#include "core/run_metrics.hpp"
#include "core/variants.hpp"

namespace knor {
namespace {

// The dot kernel (larger = more similar on the sphere) comes from
// kernels::ops(); the scalar reference lives in core/distance.hpp.

/// Scale `v` to unit L2 norm; false (v untouched) when it is all zeros and
/// so has no direction on the sphere.
bool normalize(value_t* v, index_t d) {
  value_t norm_sq = 0;
  for (index_t j = 0; j < d; ++j) norm_sq += v[j] * v[j];
  if (norm_sq <= 0) return false;
  const value_t inv = value_t(1) / std::sqrt(norm_sq);
  for (index_t j = 0; j < d; ++j) v[j] *= inv;
  return true;
}

/// Cosine assign step: the nearest centroid on the sphere is the one of
/// largest dot product (ties -> lowest index); the mean update is
/// renormalised back onto the sphere.
class CosineStep {
 public:
  CosineStep(index_t d, int k, const kernels::Ops& K) : d_(d), k_(k), K_(K) {}

  /// Re-normalise the mean update; an all-zero mean (empty clusters keep
  /// their centroid upstream; exact cancellation is measure-zero) keeps
  /// the previous direction.
  void update(const DenseMatrix& prev, DenseMatrix& cur) {
    cur_ = &cur;
    if (prev.empty()) return;  // the entry point normalised the start
    for (index_t c = 0; c < cur.rows(); ++c)
      if (!normalize(cur.row(c), d_))
        std::memcpy(cur.row(c), prev.row(c), d_ * sizeof(value_t));
  }

  cluster_t assign(index_t, const value_t* v, cluster_t, Counters& cnt) {
    cluster_t best = 0;
    value_t best_sim = K_.dot(v, cur_->row(0), d_);
    for (int c = 1; c < k_; ++c) {
      const value_t sim = K_.dot(v, cur_->row(static_cast<index_t>(c)), d_);
      if (sim > best_sim) {
        best_sim = sim;
        best = static_cast<cluster_t>(c);
      }
    }
    cnt.dist_computations += static_cast<std::uint64_t>(k_);
    return best;
  }

  double energy(const value_t* v, const value_t* c) const {
    return 1.0 - K_.dot(v, c, d_);
  }

 private:
  const index_t d_;
  const int k_;
  const kernels::Ops& K_;
  const DenseMatrix* cur_ = nullptr;
};

}  // namespace

Result spherical_kmeans(ConstMatrixView data, const Options& opts) {
  if (data.empty())
    throw std::invalid_argument("spherical_kmeans: empty dataset");
  detail::RunMetricsScope metrics;
  const index_t d = data.cols();

  // Work on a normalized copy (rows on the unit sphere).
  DenseMatrix unit(data.rows(), d);
  std::memcpy(unit.data(), data.data(), unit.size() * sizeof(value_t));
  for (index_t r = 0; r < unit.rows(); ++r)
    if (!normalize(unit.row(r), d))
      throw std::invalid_argument(
          "spherical_kmeans: zero row has no direction");

  DenseMatrix initial = init_centroids(unit.const_view(), opts);
  for (index_t c = 0; c < initial.rows(); ++c) normalize(initial.row(c), d);
  Result res =
      detail::run_node(CosineStep(d, opts.k, kernels::ops_for(opts.simd)),
                       unit.const_view(), opts, std::move(initial));
  metrics.attach(res);
  return res;
}

}  // namespace knor

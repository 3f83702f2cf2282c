#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/prng.hpp"
#include "core/engine_impl.hpp"
#include "core/init.hpp"
#include "core/kernels/simd.hpp"
#include "core/local_centroids.hpp"
#include "core/run_metrics.hpp"
#include "core/variants.hpp"

namespace knor {
namespace {

/// Seeded initialization: clusters with labeled members start at the
/// labeled mean; the remaining clusters are chosen by D^2 (k-means++)
/// sampling over the *unlabeled* points against the seeded centres.
DenseMatrix seeded_init(ConstMatrixView data, const Options& opts,
                        const std::vector<cluster_t>& labels) {
  const kernels::Ops& K = kernels::ops_for(opts.simd);
  const index_t n = data.rows();
  const index_t d = data.cols();
  const int k = opts.k;

  LocalCentroids seeds(k, d);
  for (index_t r = 0; r < n; ++r) {
    const cluster_t label = labels[r];
    if (label != kInvalidCluster) seeds.add(label, data.row(r));
  }

  DenseMatrix centroids(static_cast<index_t>(k), d);
  std::vector<bool> seeded(static_cast<std::size_t>(k), false);
  int num_seeded = 0;
  for (int c = 0; c < k; ++c) {
    if (seeds.count(static_cast<cluster_t>(c)) == 0) continue;
    seeded[static_cast<std::size_t>(c)] = true;
    ++num_seeded;
    const value_t* sum = seeds.sum(static_cast<cluster_t>(c));
    const value_t inv = value_t(1) / static_cast<value_t>(
                            seeds.count(static_cast<cluster_t>(c)));
    value_t* dst = centroids.row(static_cast<index_t>(c));
    for (index_t j = 0; j < d; ++j) dst[j] = sum[j] * inv;
  }
  if (num_seeded == k) return centroids;

  // D^2 sampling of the unseeded centres over unlabeled points.
  Prng rng(opts.seed, /*stream=*/0x55ed);
  std::vector<value_t> dist2(static_cast<std::size_t>(n), 0);
  // Initialize dist2 against all seeded centres (or infinity when none).
  bool any_seeded = num_seeded > 0;
  for (index_t r = 0; r < n; ++r)
    dist2[static_cast<std::size_t>(r)] =
        labels[r] != kInvalidCluster
            ? 0
            : std::numeric_limits<value_t>::infinity();
  if (any_seeded) {
    for (int c = 0; c < k; ++c) {
      if (!seeded[static_cast<std::size_t>(c)]) continue;
      for (index_t r = 0; r < n; ++r) {
        if (labels[r] != kInvalidCluster) continue;
        auto& dr = dist2[static_cast<std::size_t>(r)];
        dr = std::min(dr, K.dist_sq(data.row(r),
                                    centroids.row(static_cast<index_t>(c)),
                                    d));
      }
    }
  }
  for (int c = 0; c < k; ++c) {
    if (seeded[static_cast<std::size_t>(c)]) continue;
    double total = 0;
    for (index_t r = 0; r < n; ++r) {
      auto& dr = dist2[static_cast<std::size_t>(r)];
      if (std::isinf(static_cast<double>(dr))) {
        // No seeded centre yet: first unseeded centre is uniform over
        // unlabeled points.
        continue;
      }
      total += dr;
    }
    index_t pick = 0;
    if (!any_seeded || total <= 0) {
      // Uniform over unlabeled points.
      index_t unlabeled = 0;
      for (index_t r = 0; r < n; ++r)
        if (labels[r] == kInvalidCluster) ++unlabeled;
      if (unlabeled == 0)
        throw std::invalid_argument(
            "seeded_kmeans: no unlabeled points to place unseeded centres");
      index_t target = rng.next_below(unlabeled);
      for (index_t r = 0; r < n; ++r) {
        if (labels[r] != kInvalidCluster) continue;
        if (target-- == 0) {
          pick = r;
          break;
        }
      }
    } else {
      double target = rng.next_double() * total;
      for (index_t r = 0; r < n; ++r) {
        const auto dr = dist2[static_cast<std::size_t>(r)];
        if (std::isinf(static_cast<double>(dr))) continue;
        target -= dr;
        pick = r;
        if (target <= 0) break;
      }
    }
    std::memcpy(centroids.row(static_cast<index_t>(c)), data.row(pick),
                d * sizeof(value_t));
    seeded[static_cast<std::size_t>(c)] = true;
    any_seeded = true;
    for (index_t r = 0; r < n; ++r) {
      if (labels[r] != kInvalidCluster) continue;
      auto& dr = dist2[static_cast<std::size_t>(r)];
      const value_t dc =
          K.dist_sq(data.row(r), centroids.row(static_cast<index_t>(c)), d);
      if (std::isinf(static_cast<double>(dr)) || dc < dr) dr = dc;
    }
  }
  return centroids;
}

/// Seeded assign step: a labeled row returns its label without computing
/// a distance; an unlabeled row takes the blocked full scan.
class SeededStep {
 public:
  SeededStep(const std::vector<cluster_t>& labels, index_t d,
             const kernels::Ops& K)
      : labels_(labels), d_(d), K_(K) {}

  void update(const DenseMatrix&, DenseMatrix& cur) { pack_.pack(cur); }

  void assign(int, index_t r0, const value_t* v, index_t m, const cluster_t*,
              cluster_t* best, Counters& cnt) {
    for (index_t i = 0; i < m; ++i, v += d_) {
      // Constraint: labeled points keep their label forever.
      best[i] = labels_[r0 + i];
      if (best[i] != kInvalidCluster) continue;
      cnt.dist_computations += static_cast<std::uint64_t>(pack_.k());
      best[i] = K_.nearest_blocked(v, pack_, nullptr);
    }
  }

  double energy(const value_t* v, const value_t* c) const {
    return K_.dist_sq(v, c, d_);
  }

 private:
  const std::vector<cluster_t>& labels_;
  const index_t d_;
  const kernels::Ops& K_;
  kernels::CentroidPack pack_;
};

}  // namespace

Result seeded_kmeans(ConstMatrixView data, const Options& opts,
                     const std::vector<cluster_t>& labels) {
  if (data.empty()) throw std::invalid_argument("seeded_kmeans: empty dataset");
  detail::RunMetricsScope metrics;
  if (labels.size() != data.rows())
    throw std::invalid_argument("seeded_kmeans: labels size != n");
  if (opts.k < 1) throw std::invalid_argument("seeded_kmeans: k < 1");
  // Labels index the accumulators whatever the init, so check them here.
  for (const cluster_t label : labels)
    if (label != kInvalidCluster && label >= static_cast<cluster_t>(opts.k))
      throw std::invalid_argument("seeded_kmeans: label >= k");

  DenseMatrix initial = opts.init == Init::kProvided
                            ? init_centroids(data, opts)
                            : seeded_init(data, opts, labels);
  Result res = detail::run_node(
      SeededStep(labels, data.cols(), kernels::ops_for(opts.simd)), data,
      opts, std::move(initial));
  metrics.attach(res);
  return res;
}

}  // namespace knor

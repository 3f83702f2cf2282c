// Blocked-GEMM Lloyd's — the MATLAB/BLAS comparator of Table 3, an assign
// step of the shared ||Lloyd's driver (core/engine_impl.hpp, DESIGN.md §12).
//
// Phase I is expressed algebraically: d^2(x, c) = ||x||^2 - 2 x.c + ||c||^2,
// so the assignment is an argmin over the rank-d product X C^T plus rank-1
// corrections. Instead of materializing the n x k product, centroids are
// packed once per update into a 2D-partitioned TiledMatrix — row-blocks of
// kGemmPanelWidth centroids x col-blocks of the depth, every panel 64-byte
// aligned — and the per-ISA register-tiled gemm_argmin kernel streams
// cache-sized tiles of each run of data rows the driver hands over against
// centroid panels with the fused ||x||^2 + ||c||^2 - 2 x.c argmin
// epilogue: only mr x nr accumulator tiles ever exist, and each panel
// sweep is amortized over a whole row block.
//
// Determinism: the cache tile (--gemm-tile) is a pure performance knob.
// Each (row, centroid) dot accumulates strictly sequentially over the
// depth inside the kernel and panels are swept in ascending centroid
// order, so a row's cluster does not depend on which rows share its block;
// the driver's per-chunk accumulators and fixed-tree fold do the rest —
// centroids and assignments are bitwise invariant across tile shapes,
// thread counts and scheduling policies (the §7/§8 contract, extended by
// §12; pinned in conformance_test and exactness_test).
#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/strict_parse.hpp"
#include "core/engine_impl.hpp"
#include "core/engines.hpp"
#include "core/init.hpp"
#include "core/kernels/simd.hpp"
#include "core/run_metrics.hpp"

namespace knor {

bool parse_gemm_tile(const std::string& name, GemmTile* out) {
  if (name == "auto") {
    *out = GemmTile{};
    return true;
  }
  const auto x = name.find('x');
  if (x == std::string::npos || x == 0 || x + 1 >= name.size()) return false;
  const auto parse_pos = [](const std::string& s, index_t* v) {
    std::uint64_t u = 0;
    if (!knor::parse_u64(s, &u) || u == 0) return false;
    *v = static_cast<index_t>(u);
    return true;
  };
  GemmTile tile;
  if (!parse_pos(name.substr(0, x), &tile.rows) ||
      !parse_pos(name.substr(x + 1), &tile.cols))
    return false;
  *out = tile;
  return true;
}

GemmTile parse_gemm_tile_or_throw(const std::string& name, const char* what) {
  GemmTile tile;
  if (!parse_gemm_tile(name, &tile))
    throw std::invalid_argument(std::string(what) + "=" + name +
                                " is not a GEMM tile (want auto or RxC with "
                                "positive integers, e.g. 64x256)");
  return tile;
}

GemmTile resolve_gemm_tile(GemmTile tile, index_t n, int k) {
  // Auto shape: 64 rows of A shared across each panel sweep, 256 centroids
  // per sweep — at the evaluation's d (8..64 doubles) that keeps the swept
  // centroid panels L2-resident while each row block amortizes their loads.
  if (tile.rows == 0) tile.rows = 64;
  if (tile.cols == 0) tile.cols = 256;
  if (tile.rows > n) tile.rows = n;
  const auto uk = static_cast<index_t>(k);
  if (tile.cols > uk) tile.cols = uk;
  // Whole panels only: round the centroid sweep up to the panel width.
  const index_t w = kernels::kGemmPanelWidth;
  tile.cols = (tile.cols + w - 1) / w * w;
  return tile;
}

namespace {

/// The GEMM assign step: the centroid panels and norms are packed in
/// update(), and each run is scored in `tile.rows` row blocks, each block
/// swept over `tile.cols / kGemmPanelWidth` centroid panels at a time.
class GemmStep {
 public:
  GemmStep(index_t n, index_t d, const Options& opts)
      : d_(d),
        k_(opts.k),
        K_(kernels::ops_for(opts.simd)),
        tile_(resolve_gemm_tile(opts.gemm_tile, n, opts.k)),
        panels_((static_cast<index_t>(k_) + kernels::kGemmPanelWidth - 1) /
                kernels::kGemmPanelWidth),
        panel_step_(tile_.cols / kernels::kGemmPanelWidth),
        cnorm_(static_cast<std::size_t>(k_)),
        score_(static_cast<std::size_t>(detail::Workers(opts).threads),
               std::vector<value_t>(static_cast<std::size_t>(tile_.rows))) {}

  /// Packing discipline: centroids move every iteration until convergence,
  /// so the panels (and the fused epilogue's ||c||^2 terms) are rebuilt
  /// after every update on the driver thread — O(k*d), noise next to the
  /// O(n*k*d) product.
  void update(const DenseMatrix&, DenseMatrix& cur) {
    ctiles_.pack(cur.const_view(), kernels::kGemmPanelWidth, d_);
    for (int c = 0; c < k_; ++c) {
      const value_t* row = cur.row(static_cast<index_t>(c));
      cnorm_[static_cast<std::size_t>(c)] = K_.dot(row, row, d_);
    }
  }

  void assign(int tid, index_t, const value_t* v, index_t m, const cluster_t*,
              cluster_t* best, Counters& cnt) {
    // Running argmin state of one row block (score = fused ||c||^2 - 2 x.c;
    // the ||x||^2 term is row-constant and drops out).
    value_t* score = score_[static_cast<std::size_t>(tid)].data();
    for (index_t i0 = 0; i0 < m; i0 += tile_.rows) {
      const index_t rows = std::min(tile_.rows, m - i0);
      std::fill(score, score + rows, std::numeric_limits<value_t>::infinity());
      std::fill(best + i0, best + i0 + rows, 0);
      // Streamed k-panel argmin: ascending panel ranges keep the
      // ties->lowest-index rule.
      for (index_t p0 = 0; p0 < panels_; p0 += panel_step_)
        K_.gemm_argmin(v + i0 * d_, rows, d_, ctiles_, p0,
                       std::min(panels_, p0 + panel_step_), cnorm_.data(),
                       best + i0, score);
    }
    cnt.dist_computations += static_cast<std::uint64_t>(m) * k_;
  }

  double energy(const value_t* v, const value_t* c) const {
    return K_.dist_sq(v, c, d_);
  }

 private:
  const index_t d_;
  const int k_;
  const kernels::Ops& K_;
  const GemmTile tile_;
  const index_t panels_;
  const index_t panel_step_;
  TiledMatrix ctiles_;
  std::vector<value_t> cnorm_;
  std::vector<std::vector<value_t>> score_;  ///< per worker, tile_.rows
};

}  // namespace

Result gemm_kmeans(ConstMatrixView data, const Options& opts) {
  detail::RunMetricsScope metrics;
  DenseMatrix initial = init_centroids(data, opts);
  Result res = detail::run_node(GemmStep(data.rows(), data.cols(), opts),
                                data, opts, std::move(initial));
  metrics.attach(res);
  return res;
}

}  // namespace knor

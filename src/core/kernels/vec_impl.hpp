// Shared skeleton for the vector ISA variants (SSE2 / AVX2 / AVX-512).
//
// Each ISA translation unit instantiates these templates with a Traits
// type supplying the intrinsics. Keeping the algorithm in ONE place is
// what enforces the determinism contract of simd.hpp:
//
//  * dist_sq_t uses a fixed two-accumulator chunk schedule — main loop in
//    2W-element steps (acc0 then acc1), one optional W-element step into
//    acc0, one optional masked partial step into acc1 — and a fixed
//    horizontal reduction hsum(acc0 + acc1). No data-dependent control
//    flow, so results are bitwise stable run to run.
//
//  * nearest_blocked_t runs the SAME per-centroid schedule for a tile of
//    Traits::kTile centroids at once (8 on AVX-512, 4 on AVX2 and SSE2),
//    sharing each point chunk across the tile. Per centroid it issues the
//    identical FP operation sequence into its own acc0/acc1 pair, and
//    reduce_tile transposes the tile's kTile sums into ONE vector of
//    distances whose lane t is bitwise EQUAL to hsum of sum t — the same
//    association as hsum, only batched across accumulators. So every
//    blocked distance is bitwise EQUAL to dist_sq_t on that centroid row.
//    The tile only buys locality and ILP: the point chunk is loaded once
//    per tile instead of once per centroid, and 2*kTile independent FMA
//    chains keep the pipeline full.
//
//  * The argmin never leaves the registers: running per-lane (best_sq,
//    best_id) vectors take a tile's distances with a masked compare and
//    select, and one cross-lane reduction (lexmin) runs per call — the
//    smallest distance, then the lowest id among the lanes holding it.
//    The blocked scan takes a lane with a strict '<' (ids ascend within a
//    lane, so each lane keeps its lowest tying id); the subset scan takes
//    on the lexicographic (distance, id) order, since its list is in
//    neighbour order, not id order. Either way the winner is the lowest
//    id among the minimal distances, as the per-centroid scan picks it.
//    A NaN distance fails every ordered compare and never wins; ids ride
//    in double lanes, exact for every int k.
//
//  * nearest_subset_t runs the SAME tile body over a list of centroid ids
//    instead of the whole pack — the MTI survivor scan over a sorted
//    candidate prefix — so its distances are bitwise equal to dist_sq_t
//    as well; the incumbent then wins a tie against the listed winner.
//
//  * distances_t runs the blocked scan's tiles and stores each tile's
//    distance vector instead of folding it into an argmin: all k values,
//    each bitwise equal to dist_sq_t (top-m ranking needs them all).
//
//  * The k % kTile (count % kTile) remainder runs as one more tile —
//    a half tile (reduce_half: the same reduction for kTile/2 sums) when
//    at most half a tile remains — whose dead lanes repeat a live row and
//    are masked to +inf (mask_tail). No per-centroid tail, no second
//    winner rule. The subset scan skips the fold when no lane is strictly
//    nearer than the incumbent, which then keeps the point.
//
//  * The masked partial chunk masks the POINT load; the centroid side is a
//    full-width aligned load whose padding lanes the CentroidPack
//    guarantees to be +0.0. Masked-off point lanes are +0.0 too, so the
//    lane difference is exactly +0.0 and fma(0, 0, acc) == acc bitwise —
//    the partial chunk contributes only its live lanes, identically in
//    dist_sq_t (both operands masked) and nearest_blocked_t (point masked,
//    centroid padded).
//
// Traits interface:
//   using vec;                      // the register type
//   static constexpr index_t kW;    // lanes per vector
//   static vec zero();
//   static vec loadu(const value_t*);          // unaligned full load
//   static vec load(const value_t*);           // 64B-aligned full load
//   static vec load_partial(const value_t*, index_t rem);  // rem in [1, kW)
//   static vec diff_fma(vec a, vec b, vec acc);  // acc + (a-b)*(a-b)
//   static vec mul_fma(vec a, vec b, vec acc);   // acc + a*b
//   static vec add(vec, vec);
//   static value_t hsum(vec);       // fixed reduction tree
//   static vec broadcast(value_t);             // splat one scalar
//   static void storeu(value_t*, vec);         // unaligned full store
// and for the argmin epilogue:
//   using dvec;                     // kTile distances (or ids), one lane each
//   static constexpr int kTile;     // centroids per tile
//   static dvec reduce_tile(const vec s[kTile]);
//     // lane t bitwise == hsum(s[t]): the per-accumulator ASSOCIATION
//     // must match hsum exactly
//   static dvec reduce_half(const vec s[kTile / 2]);
//     // lanes t < kTile/2 as reduce_tile, the rest don't-care
//   static dvec mask_tail(dvec d, int live);  // lanes >= live read +inf
//   static dvec splat(value_t);
//   static dvec iota(value_t base);            // lane t = base + t
//   static dvec load_ids(const cluster_t*, int n);
//     // n in [1, kTile] ids, as doubles, reading no further; lanes >= n
//     // are don't-care
//   static void take_less(dvec d, dvec id, dvec& best, dvec& best_id);
//     // per lane: take (d, id) where d < best; ids passed to it ascend
//     // per lane (the blocked scan), which a Traits may exploit
//   static void take_lex(dvec d, dvec id, dvec& best, dvec& best_id);
//     // per lane: take where (d, id) < (best, best_id) lexicographically
//   static cluster_t lexmin(dvec best, dvec best_id, value_t* best_sq);
//     // min lane distance, then the lowest id among the lanes holding it
//   static bool any_below(dvec best, value_t x);  // some lane < x
//   static void store_tile(value_t*, dvec);   // kTile lanes, unaligned
//
//  * gemm_argmin_t (DESIGN.md §12) needs no horizontal reduction at all:
//    each lane of a panel column line IS one centroid, so a lane's
//    accumulator holds that centroid's full dot product — accumulated
//    strictly sequentially over the depth by construction, for every lane
//    width. That single property makes the fused GEMM result bitwise
//    invariant across register-block (mr), cache-tile and panel-range
//    choices per ISA, which is what lets --gemm-tile be a pure
//    performance knob.
#pragma once

#include <cassert>
#include <limits>

#include "common/types.hpp"
#include "core/kernels/isa_tables.hpp"
#include "core/kernels/simd.hpp"

namespace knor::kernels::detail {

template <class V>
value_t dist_sq_t(const value_t* a, const value_t* b, index_t d) {
  typename V::vec acc0 = V::zero(), acc1 = V::zero();
  index_t j = 0;
  for (; j + 2 * V::kW <= d; j += 2 * V::kW) {
    acc0 = V::diff_fma(V::loadu(a + j), V::loadu(b + j), acc0);
    acc1 = V::diff_fma(V::loadu(a + j + V::kW), V::loadu(b + j + V::kW), acc1);
  }
  if (j + V::kW <= d) {
    acc0 = V::diff_fma(V::loadu(a + j), V::loadu(b + j), acc0);
    j += V::kW;
  }
  if (j < d)
    acc1 = V::diff_fma(V::load_partial(a + j, d - j),
                       V::load_partial(b + j, d - j), acc1);
  return V::hsum(V::add(acc0, acc1));
}

template <class V>
value_t dot_t(const value_t* a, const value_t* b, index_t d) {
  typename V::vec acc0 = V::zero(), acc1 = V::zero();
  index_t j = 0;
  for (; j + 2 * V::kW <= d; j += 2 * V::kW) {
    acc0 = V::mul_fma(V::loadu(a + j), V::loadu(b + j), acc0);
    acc1 = V::mul_fma(V::loadu(a + j + V::kW), V::loadu(b + j + V::kW), acc1);
  }
  if (j + V::kW <= d) {
    acc0 = V::mul_fma(V::loadu(a + j), V::loadu(b + j), acc0);
    j += V::kW;
  }
  if (j < d)
    acc1 = V::mul_fma(V::load_partial(a + j, d - j),
                      V::load_partial(b + j, d - j), acc1);
  return V::hsum(V::add(acc0, acc1));
}

template <class V>
cluster_t nearest_t(const value_t* point, const value_t* centroids, int k,
                    index_t d, value_t* out_sq) {
  cluster_t best = 0;
  value_t best_sq = std::numeric_limits<value_t>::infinity();
  for (int c = 0; c < k; ++c) {
    const value_t dc =
        dist_sq_t<V>(point, centroids + static_cast<std::size_t>(c) * d, d);
    if (dc < best_sq) {
      best_sq = dc;
      best = static_cast<cluster_t>(c);
    }
  }
  if (out_sq != nullptr) *out_sq = best_sq;
  return best;
}

/// Squared distances from `point` to the N pack rows `rows` as one dvec:
/// the per-centroid schedule of dist_sq_t run for N rows at once, then the
/// transposed reduction, so lane t is bitwise EQUAL to
/// dist_sq_t(point, rows[t], d). N is the full tile or its half. The
/// shared tile body of the blocked (all centroids) and subset (a listed
/// few) kernels.
template <class V, int N>
[[gnu::always_inline]] inline typename V::dvec tile_dist_sq_t(
    const value_t* point, const value_t* const rows[N], index_t d) {
  // Every per-centroid loop is unrolled completely and early, so each
  // accumulator is a register from the start (a zero-fill loop left rolled
  // can become a memset that pins the accumulators to the stack).
  typename V::vec acc0[N], acc1[N];
#pragma GCC unroll 16
  for (int t = 0; t < N; ++t) {
    acc0[t] = V::zero();
    acc1[t] = V::zero();
  }
  index_t j = 0;
  for (; j + 2 * V::kW <= d; j += 2 * V::kW) {
    const typename V::vec p0 = V::loadu(point + j);
    const typename V::vec p1 = V::loadu(point + j + V::kW);
#pragma GCC unroll 16
    for (int t = 0; t < N; ++t) {
      acc0[t] = V::diff_fma(p0, V::load(rows[t] + j), acc0[t]);
      acc1[t] = V::diff_fma(p1, V::load(rows[t] + j + V::kW), acc1[t]);
    }
  }
  if (j + V::kW <= d) {
    const typename V::vec p0 = V::loadu(point + j);
#pragma GCC unroll 16
    for (int t = 0; t < N; ++t)
      acc0[t] = V::diff_fma(p0, V::load(rows[t] + j), acc0[t]);
    j += V::kW;
  }
  if (j < d) {
    // Point masked, centroid full-width: the pack's zero padding makes
    // the dead lanes contribute exactly nothing (see header comment).
    const typename V::vec pp = V::load_partial(point + j, d - j);
#pragma GCC unroll 16
    for (int t = 0; t < N; ++t)
      acc1[t] = V::diff_fma(pp, V::load(rows[t] + j), acc1[t]);
  }
  typename V::vec sums[N];
#pragma GCC unroll 16
  for (int t = 0; t < N; ++t) sums[t] = V::add(acc0[t], acc1[t]);
  if constexpr (N == V::kTile)
    return V::reduce_tile(sums);
  else
    return V::reduce_half(sums);
}

/// The k % kTile (count % kTile) remainder of a scan: `live` in [1, kTile)
/// rows run as one more tile — a half tile when at most half a tile
/// remains — whose rows past `live` repeat rows[0] and read +inf, so they
/// never win; live lanes keep dist_sq_t's bits.
template <class V>
[[gnu::always_inline]] inline typename V::dvec tail_dist_sq_t(
    const value_t* point, const value_t* const rows[V::kTile], index_t d,
    int live) {
  if (live > V::kTile / 2)
    return V::mask_tail(tile_dist_sq_t<V, V::kTile>(point, rows, d), live);
  return V::mask_tail(tile_dist_sq_t<V, V::kTile / 2>(point, rows, d), live);
}

template <class V>
cluster_t nearest_blocked_t(const value_t* point, const CentroidPack& pack,
                            value_t* out_sq) {
  constexpr int kTile = V::kTile;
  const int k = pack.k();
  const index_t d = pack.d();
  typename V::dvec best = V::splat(std::numeric_limits<value_t>::infinity());
  typename V::dvec best_id = V::splat(0);
  int c = 0;
  for (; c + kTile <= k; c += kTile) {
    const value_t* rows[kTile];
    for (int t = 0; t < kTile; ++t) rows[t] = pack.row(c + t);
    V::take_less(tile_dist_sq_t<V, kTile>(point, rows, d), V::iota(c), best,
                 best_id);
  }
  if (const int live = k - c; live > 0) {
    const value_t* rows[kTile];
    for (int t = 0; t < kTile; ++t) rows[t] = pack.row(t < live ? c + t : c);
    V::take_less(tail_dist_sq_t<V>(point, rows, d, live), V::iota(c), best,
                 best_id);
  }
  value_t best_sq;
  const cluster_t winner = V::lexmin(best, best_id, &best_sq);
  if (out_sq != nullptr) *out_sq = best_sq;
  return winner;
}

template <class V>
void distances_t(const value_t* point, const CentroidPack& pack,
                 value_t* out) {
  constexpr int kTile = V::kTile;
  const int k = pack.k();
  const index_t d = pack.d();
  int c = 0;
  for (; c + kTile <= k; c += kTile) {
    const value_t* rows[kTile];
    for (int t = 0; t < kTile; ++t) rows[t] = pack.row(c + t);
    V::store_tile(out + c, tile_dist_sq_t<V, kTile>(point, rows, d));
  }
  if (const int live = k - c; live > 0) {
    const value_t* rows[kTile];
    for (int t = 0; t < kTile; ++t) rows[t] = pack.row(t < live ? c + t : c);
    value_t tail[kTile];
    V::store_tile(tail, tail_dist_sq_t<V>(point, rows, d, live));
    for (int t = 0; t < live; ++t) out[c + t] = tail[t];
  }
}

template <class V>
cluster_t nearest_subset_t(const value_t* point, const CentroidPack& pack,
                           const cluster_t* ids, int count, cluster_t keep,
                           value_t* io_sq) {
  constexpr int kTile = V::kTile;
  const index_t d = pack.d();
  typename V::dvec best = V::splat(std::numeric_limits<value_t>::infinity());
  typename V::dvec best_id = V::splat(0);
  int i = 0;
  for (; i + kTile <= count; i += kTile) {
    const value_t* rows[kTile];
    for (int t = 0; t < kTile; ++t)
      rows[t] = pack.row(static_cast<int>(ids[i + t]));
    V::take_lex(tile_dist_sq_t<V, kTile>(point, rows, d),
                V::load_ids(ids + i, kTile), best, best_id);
  }
  if (const int live = count - i; live > 0) {
    const value_t* rows[kTile];
    for (int t = 0; t < kTile; ++t)
      rows[t] = pack.row(static_cast<int>(ids[t < live ? i + t : i]));
    V::take_lex(tail_dist_sq_t<V>(point, rows, d, live),
                V::load_ids(ids + i, live), best, best_id);
  }
  // The incumbent wins a tie, so unless some lane is strictly nearer (not
  // so after an empty list: every lane is +inf) it keeps the point and
  // the fold is skipped; otherwise the fold's winner is strictly nearer.
  if (!V::any_below(best, *io_sq)) return keep;
  return V::lexmin(best, best_id, io_sq);
}

/// Data rows per register block of the fused GEMM kernel: 4 rows x
/// (kGemmPanelWidth / kW) accumulators + one broadcast + the shared column
/// line stays inside the 16-register AVX file; SSE2 spills but SSE2 is the
/// compatibility tier, not the performance tier. The value is a pure
/// scheduling choice — per-row state is independent, so results do not
/// depend on it (see gemm_argmin_t).
inline constexpr index_t kGemmMr = 4;

template <class V>
void gemm_argmin_t(const value_t* a, index_t mrows, index_t lda,
                   const TiledMatrix& b, index_t p0, index_t p1,
                   const value_t* cnorm, cluster_t* best, value_t* score) {
  // One column line = kGemmPanelWidth lanes = kNV vectors of this ISA.
  constexpr index_t kNV = kGemmPanelWidth / V::kW;
  static_assert(kGemmPanelWidth % V::kW == 0,
                "panel width must be a whole number of vectors");
  const index_t rs = b.row_stride();
  assert(b.row_block() == kGemmPanelWidth && rs == kGemmPanelWidth);
  const index_t k = b.rows();
  const index_t cp = b.col_panels();
  const index_t cb = b.col_block();

  for (index_t i0 = 0; i0 < mrows; i0 += kGemmMr) {
    const index_t im = mrows - i0 < kGemmMr ? mrows - i0 : kGemmMr;
    for (index_t P = p0; P < p1; ++P) {
      // Constant bounds, fully unrolled: a runtime bound (im) turns the
      // zero-fill into a memset at the head of every panel sweep.
      typename V::vec acc[kGemmMr][kNV];
#pragma GCC unroll 16
      for (index_t i = 0; i < kGemmMr; ++i)
#pragma GCC unroll 16
        for (index_t v = 0; v < kNV; ++v) acc[i][v] = V::zero();
      // Ascending col-panels, ascending columns inside each: lane j of
      // acc[i] accumulates <row i0+i, centroid P*width+j> strictly
      // sequentially over the depth, whatever the pack's col_block is.
      const value_t* base = b.panel(P, 0);
      const std::size_t panel_elems = static_cast<std::size_t>(rs) * cb;
      for (index_t J = 0; J < cp; ++J) {
        const value_t* pp = base + J * panel_elems;
        const index_t cm = b.panel_cols(J);
        const value_t* arow = a + J * cb;
        for (index_t c = 0; c < cm; ++c) {
          const value_t* line = pp + c * rs;
          for (index_t i = 0; i < im; ++i) {
            const typename V::vec av =
                V::broadcast(arow[(i0 + i) * lda + c]);
            for (index_t v = 0; v < kNV; ++v)
              acc[i][v] = V::mul_fma(av, V::load(line + v * V::kW),
                                     acc[i][v]);
          }
        }
      }
      // Fused epilogue: score = ||c||^2 - 2 x.c per live lane, compared in
      // ascending j (strict '<' keeps ties -> lowest index). Padding lanes
      // (j >= k) are simply never visited.
      const index_t jbase = P * kGemmPanelWidth;
      const index_t jcnt =
          k - jbase < kGemmPanelWidth ? k - jbase : kGemmPanelWidth;
      for (index_t i = 0; i < im; ++i) {
        value_t dots[kGemmPanelWidth];
        for (index_t v = 0; v < kNV; ++v)
          V::storeu(dots + v * V::kW, acc[i][v]);
        value_t& bs = score[i0 + i];
        cluster_t& bb = best[i0 + i];
        for (index_t t = 0; t < jcnt; ++t) {
          const value_t s = cnorm[jbase + t] - 2 * dots[t];
          if (s < bs) {
            bs = s;
            bb = static_cast<cluster_t>(jbase + t);
          }
        }
      }
    }
  }
}

template <class V>
Ops make_ops(Isa isa) {
  Ops ops;
  ops.isa = isa;
  ops.dist_sq = &dist_sq_t<V>;
  ops.dot = &dot_t<V>;
  ops.nearest = &nearest_t<V>;
  ops.nearest_blocked = &nearest_blocked_t<V>;
  ops.nearest_subset = &nearest_subset_t<V>;
  ops.distances = &distances_t<V>;
  ops.gemm_argmin = &gemm_argmin_t<V>;
  return ops;
}

}  // namespace knor::kernels::detail

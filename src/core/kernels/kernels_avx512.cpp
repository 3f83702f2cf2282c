// AVX-512F kernel table: 8 doubles per lane, fused multiply-add, native
// masked loads for the partial chunk. Compiled with -mavx512f (see
// CMakeLists); a compiler without AVX-512 support yields a null table and
// the dispatcher clamps to AVX2.
#include "core/kernels/isa_tables.hpp"

#if defined(__AVX512F__)
#define KNOR_HAVE_AVX512 1
#include <immintrin.h>

#include <limits>

#include "core/kernels/vec_impl.hpp"

// GCC 12's _mm512_extractf64x4_pd expands through _mm256_undefined_pd and
// trips -Wuninitialized / -Wmaybe-uninitialized falsely (GCC PR105593).
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace knor::kernels::detail {

#ifdef KNOR_HAVE_AVX512
namespace {

constexpr value_t kInf = std::numeric_limits<value_t>::infinity();

// Stage 1 of the tile reduction: (a.lo + a.hi, b.lo + b.hi) by 256-bit
// halves — each sum's u_j = v_j + v_{j+4}, as in hsum.
inline __m512d halves(__m512d a, __m512d b) {
  return _mm512_add_pd(_mm512_shuffle_f64x2(a, b, 0x44),
                       _mm512_shuffle_f64x2(a, b, 0xee));
}
// Stage 2: adjacent lanes of two stage-1 results, u0+u1 and u2+u3.
inline __m512d pairs(__m512d a, __m512d b) {
  return _mm512_add_pd(_mm512_unpacklo_pd(a, b), _mm512_unpackhi_pd(a, b));
}

struct Avx512Traits {
  using vec = __m512d;
  static constexpr index_t kW = 8;
  static vec zero() { return _mm512_setzero_pd(); }
  static vec loadu(const value_t* p) { return _mm512_loadu_pd(p); }
  static vec load(const value_t* p) { return _mm512_load_pd(p); }
  // rem in [1, 7]: zero-masked load, dead lanes are +0.0.
  static vec load_partial(const value_t* p, index_t rem) {
    const __mmask8 mask = static_cast<__mmask8>((1u << rem) - 1u);
    return _mm512_maskz_loadu_pd(mask, p);
  }
  static vec diff_fma(vec a, vec b, vec acc) {
    const vec diff = _mm512_sub_pd(a, b);
    return _mm512_fmadd_pd(diff, diff, acc);
  }
  static vec mul_fma(vec a, vec b, vec acc) {
    return _mm512_fmadd_pd(a, b, acc);
  }
  static vec add(vec a, vec b) { return _mm512_add_pd(a, b); }
  // Fixed tree: u = low256 + high256, then (u0+u1) + (u2+u3) — chosen so
  // reduce_tile below can batch eight reductions under the SAME
  // association.
  static value_t hsum(vec v) {
    const __m256d u = _mm256_add_pd(_mm512_castpd512_pd256(v),
                                    _mm512_extractf64x4_pd(v, 1));
    const __m256d h = _mm256_hadd_pd(u, u);  // (u0+u1, u0+u1, u2+u3, u2+u3)
    return _mm_cvtsd_f64(_mm_add_sd(_mm256_castpd256_pd128(h),
                                    _mm256_extractf128_pd(h, 1)));
  }

  using dvec = __m512d;
  static constexpr int kTile = 8;

  // Transposed tile reduction, bitwise identical to hsum per accumulator,
  // in three shuffle-and-add stages (14 shuffles, 7 adds for 8 sums):
  //   1. shuffle_f64x2 pairs the low and high 256-bit halves of two sums:
  //      u_j = v_j + v_{j+4}, four lanes per sum;
  //   2. unpacklo/unpackhi pair adjacent u lanes: u0+u1 and u2+u3;
  //   3. shuffle_f64x2 pairs the two halves: (u0+u1) + (u2+u3).
  // Fed the sums in order (0,1,2,3,4,5,6,7) the stages leave the lanes in
  // order (0,2,1,3,4,6,5,7); feeding them in that (self-inverse) order
  // instead puts lane t = sum t, at no cost.
  static dvec reduce_tile(const vec s[8]) {
    const vec p01 = halves(s[0], s[2]), p23 = halves(s[1], s[3]);
    const vec p45 = halves(s[4], s[6]), p67 = halves(s[5], s[7]);
    const vec q0 = pairs(p01, p23), q1 = pairs(p45, p67);
    return _mm512_add_pd(_mm512_shuffle_f64x2(q0, q1, 0x88),
                         _mm512_shuffle_f64x2(q0, q1, 0xdd));
  }
  // Four sums through the same stages, into lanes 0-3.
  static dvec reduce_half(const vec s[4]) {
    const vec q = pairs(halves(s[0], s[2]), halves(s[1], s[3]));
    return _mm512_add_pd(_mm512_shuffle_f64x2(q, q, 0x08),
                         _mm512_shuffle_f64x2(q, q, 0x0d));
  }
  static dvec splat(value_t x) { return _mm512_set1_pd(x); }
  static dvec iota(value_t base) {
    return _mm512_add_pd(splat(base),
                         _mm512_setr_pd(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static dvec mask_tail(dvec d, int live) {
    const auto lanes = static_cast<__mmask8>((1u << live) - 1u);
    return _mm512_mask_mov_pd(splat(kInf), lanes, d);
  }
  static dvec load_ids(const cluster_t* p, int n) {
    const __m512i v = _mm512_maskz_loadu_epi32(
        static_cast<__mmask16>((1u << n) - 1u), p);  // reads n ids only
    return _mm512_cvtepu32_pd(_mm512_castsi512_si256(v));
  }
  static void take_less(dvec d, dvec id, dvec& best, dvec& best_id) {
    const __mmask8 m = _mm512_cmp_pd_mask(d, best, _CMP_LT_OQ);
    best = _mm512_mask_mov_pd(best, m, d);
    best_id = _mm512_mask_mov_pd(best_id, m, id);
  }
  static void take_lex(dvec d, dvec id, dvec& best, dvec& best_id) {
    const __mmask8 m =
        _mm512_cmp_pd_mask(d, best, _CMP_LT_OQ) |
        _mm512_mask_cmp_pd_mask(_mm512_cmp_pd_mask(d, best, _CMP_EQ_OQ), id,
                                best_id, _CMP_LT_OQ);
    best = _mm512_mask_mov_pd(best, m, d);
    best_id = _mm512_mask_mov_pd(best_id, m, id);
  }
  // Three lexicographic folds, 8 -> 4 -> 2 -> 1 lanes: 256-bit halves,
  // then 128-bit blocks, then adjacent lanes; lane 0 holds the winner.
  static cluster_t lexmin(dvec best, dvec best_id, value_t* best_sq) {
    take_lex(_mm512_shuffle_f64x2(best, best, 0x4e),
             _mm512_shuffle_f64x2(best_id, best_id, 0x4e), best, best_id);
    take_lex(_mm512_shuffle_f64x2(best, best, 0xb1),
             _mm512_shuffle_f64x2(best_id, best_id, 0xb1), best, best_id);
    take_lex(_mm512_permute_pd(best, 0x55), _mm512_permute_pd(best_id, 0x55),
             best, best_id);
    *best_sq = _mm512_cvtsd_f64(best);
    return static_cast<cluster_t>(_mm512_cvtsd_f64(best_id));
  }

  static bool any_below(dvec best, value_t x) {
    return _mm512_cmp_pd_mask(best, splat(x), _CMP_LT_OQ) != 0;
  }

  static vec broadcast(value_t x) { return _mm512_set1_pd(x); }
  static void storeu(value_t* p, vec v) { _mm512_storeu_pd(p, v); }
  static void store_tile(value_t* p, dvec v) { _mm512_storeu_pd(p, v); }
};

}  // namespace

Ops avx512_ops() { return make_ops<Avx512Traits>(Isa::kAvx512); }
#else
Ops avx512_ops() { return Ops{}; }
#endif

}  // namespace knor::kernels::detail

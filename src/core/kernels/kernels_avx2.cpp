// AVX2+FMA kernel table: 4 doubles per lane, fused multiply-add. Compiled
// with -mavx2 -mfma (see CMakeLists); when the compiler cannot target AVX2
// this TU degrades to a null table and the dispatcher clamps to SSE2.
#include "core/kernels/isa_tables.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#define KNOR_HAVE_AVX2 1
#include <immintrin.h>

#include <limits>

#include "core/kernels/vec_impl.hpp"
#endif

namespace knor::kernels::detail {

#ifdef KNOR_HAVE_AVX2
namespace {

constexpr value_t kInf = std::numeric_limits<value_t>::infinity();

struct Avx2Traits {
  using vec = __m256d;
  static constexpr index_t kW = 4;
  static vec zero() { return _mm256_setzero_pd(); }
  static vec loadu(const value_t* p) { return _mm256_loadu_pd(p); }
  static vec load(const value_t* p) { return _mm256_load_pd(p); }
  // rem in [1, 3]: masked lanes read as +0.0 without touching memory.
  static vec load_partial(const value_t* p, index_t rem) {
    const __m256i mask = _mm256_setr_epi64x(
        -1, rem > 1 ? -1 : 0, rem > 2 ? -1 : 0, 0);
    return _mm256_maskload_pd(p, mask);
  }
  static vec diff_fma(vec a, vec b, vec acc) {
    const vec diff = _mm256_sub_pd(a, b);
    return _mm256_fmadd_pd(diff, diff, acc);
  }
  static vec mul_fma(vec a, vec b, vec acc) {
    return _mm256_fmadd_pd(a, b, acc);
  }
  static vec add(vec a, vec b) { return _mm256_add_pd(a, b); }
  // Fixed tree: (v0+v1) + (v2+v3) — chosen so reduce_tile below can
  // batch four reductions with hadd/permute under the SAME association.
  static value_t hsum(vec v) {
    const vec h = _mm256_hadd_pd(v, v);  // (v0+v1, v0+v1, v2+v3, v2+v3)
    return _mm_cvtsd_f64(_mm_add_sd(_mm256_castpd256_pd128(h),
                                    _mm256_extractf128_pd(h, 1)));
  }

  using dvec = __m256d;
  static constexpr int kTile = 4;

  // Transposed tile reduction: hadd pairs lanes within each accumulator
  // ((s0+s1) and (s2+s3)); a lane swap and a blend line the 23-pairs up
  // against the 01-pairs, and one add finishes — per accumulator exactly
  // (v0+v1) + (v2+v3), bitwise identical to hsum, lane t = sum t.
  static dvec reduce_tile(const vec s[4]) {
    const vec t0 = _mm256_hadd_pd(s[0], s[1]);  // (a01, b01, a23, b23)
    const vec t1 = _mm256_hadd_pd(s[2], s[3]);  // (c01, d01, c23, d23)
    const vec x = _mm256_permute2f128_pd(t0, t1, 0x21);  // (a23 b23 c01 d01)
    const vec y = _mm256_blend_pd(t0, t1, 0xc);          // (a01 b01 c23 d23)
    return _mm256_add_pd(x, y);
  }
  // Two sums the same way, into lanes 0-1.
  static dvec reduce_half(const vec s[2]) {
    const vec t = _mm256_hadd_pd(s[0], s[1]);  // (a01, b01, a23, b23)
    return _mm256_zextpd128_pd256(_mm_add_pd(_mm256_castpd256_pd128(t),
                                             _mm256_extractf128_pd(t, 1)));
  }
  static dvec splat(value_t x) { return _mm256_set1_pd(x); }
  static dvec iota(value_t base) {
    return _mm256_add_pd(splat(base), _mm256_setr_pd(0, 1, 2, 3));
  }
  static dvec mask_tail(dvec d, int live) {
    const vec dead = _mm256_cmp_pd(_mm256_setr_pd(0, 1, 2, 3),
                                   splat(live), _CMP_GE_OQ);
    return _mm256_blendv_pd(d, splat(kInf), dead);
  }
  static dvec load_ids(const cluster_t* p, int n) {
    const __m128i* q = reinterpret_cast<const __m128i*>(p);
    if (n == 4) return _mm256_cvtepi32_pd(_mm_loadu_si128(q));
    const __m128i live =  // reads n ids only
        _mm_cmpgt_epi32(_mm_set1_epi32(n), _mm_setr_epi32(0, 1, 2, 3));
    return _mm256_cvtepi32_pd(
        _mm_maskload_epi32(reinterpret_cast<const int*>(p), live));
  }
  // Ids ascend within a lane, so a taken id is never below the lane's
  // current one: max(best_id, m & id) takes it without a blend.
  static void take_less(dvec d, dvec id, dvec& best, dvec& best_id) {
    const vec m = _mm256_cmp_pd(d, best, _CMP_LT_OQ);
    best = _mm256_min_pd(d, best);
    best_id = _mm256_max_pd(best_id, _mm256_and_pd(m, id));
  }
  static void take_lex(dvec d, dvec id, dvec& best, dvec& best_id) {
    const vec m = _mm256_or_pd(
        _mm256_cmp_pd(d, best, _CMP_LT_OQ),
        _mm256_and_pd(_mm256_cmp_pd(d, best, _CMP_EQ_OQ),
                      _mm256_cmp_pd(id, best_id, _CMP_LT_OQ)));
    best = _mm256_min_pd(d, best);
    best_id = _mm256_or_pd(_mm256_and_pd(m, id), _mm256_andnot_pd(m, best_id));
  }
  // Two lexicographic folds, 4 -> 2 -> 1 lanes: 128-bit halves, then
  // adjacent lanes; lane 0 holds the winner.
  static cluster_t lexmin(dvec best, dvec best_id, value_t* best_sq) {
    take_lex(_mm256_permute2f128_pd(best, best, 0x01),
             _mm256_permute2f128_pd(best_id, best_id, 0x01), best, best_id);
    take_lex(_mm256_permute_pd(best, 0x5), _mm256_permute_pd(best_id, 0x5),
             best, best_id);
    *best_sq = _mm256_cvtsd_f64(best);
    return static_cast<cluster_t>(_mm256_cvtsd_f64(best_id));
  }

  static bool any_below(dvec best, value_t x) {
    return _mm256_movemask_pd(_mm256_cmp_pd(best, splat(x), _CMP_LT_OQ)) != 0;
  }

  static vec broadcast(value_t x) { return _mm256_set1_pd(x); }
  static void storeu(value_t* p, vec v) { _mm256_storeu_pd(p, v); }
  static void store_tile(value_t* p, dvec v) { _mm256_storeu_pd(p, v); }
};

}  // namespace

Ops avx2_ops() { return make_ops<Avx2Traits>(Isa::kAvx2); }
#else
Ops avx2_ops() { return Ops{}; }
#endif

}  // namespace knor::kernels::detail

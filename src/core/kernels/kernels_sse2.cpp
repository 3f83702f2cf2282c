// SSE2 kernel table: 2 doubles per lane-pair, no FMA (mul + add, like the
// scalar form). SSE2 is the x86-64 baseline so this TU needs no extra
// compiler flags; on non-x86 targets it compiles to a null table.
#include "core/kernels/isa_tables.hpp"

#if defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#define KNOR_HAVE_SSE2 1
#include <emmintrin.h>

#include <cstdint>
#include <limits>

#include "core/kernels/vec_impl.hpp"
#endif

namespace knor::kernels::detail {

#ifdef KNOR_HAVE_SSE2
namespace {

constexpr value_t kInf = std::numeric_limits<value_t>::infinity();

struct Sse2Traits {
  using vec = __m128d;
  static constexpr index_t kW = 2;
  static vec zero() { return _mm_setzero_pd(); }
  static vec loadu(const value_t* p) { return _mm_loadu_pd(p); }
  static vec load(const value_t* p) { return _mm_load_pd(p); }
  // rem can only be 1 at W=2: low lane live, high lane +0.0.
  static vec load_partial(const value_t* p, index_t) { return _mm_set_sd(*p); }
  static vec diff_fma(vec a, vec b, vec acc) {
    const vec diff = _mm_sub_pd(a, b);
    return _mm_add_pd(acc, _mm_mul_pd(diff, diff));
  }
  static vec mul_fma(vec a, vec b, vec acc) {
    return _mm_add_pd(acc, _mm_mul_pd(a, b));
  }
  static vec add(vec a, vec b) { return _mm_add_pd(a, b); }
  // Fixed tree: lane0 + lane1.
  static value_t hsum(vec v) {
    return _mm_cvtsd_f64(v) + _mm_cvtsd_f64(_mm_unpackhi_pd(v, v));
  }

  // A tile's distances (or ids) as two 2-lane vectors: 4 centroids, 8
  // accumulators. The running (best, best_id) state lives in `lo` alone:
  // take_less / take_lex fold both halves of a tile into it, and one fold
  // of its two lanes finishes lexmin.
  struct dvec {
    vec lo, hi;
  };
  static constexpr int kTile = 4;

  // (a0 + a1, b0 + b1): hsum of two sums, lane t = sum t.
  static vec reduce_pair(vec a, vec b) {
    return _mm_add_pd(_mm_unpacklo_pd(a, b), _mm_unpackhi_pd(a, b));
  }
  static dvec reduce_tile(const vec s[4]) {
    return {reduce_pair(s[0], s[1]), reduce_pair(s[2], s[3])};
  }
  static dvec reduce_half(const vec s[2]) {
    const vec r = reduce_pair(s[0], s[1]);
    return {r, r};
  }
  static dvec splat(value_t x) { return {_mm_set1_pd(x), _mm_set1_pd(x)}; }
  static dvec iota(value_t base) {
    return {_mm_add_pd(_mm_set1_pd(base), _mm_setr_pd(0, 1)),
            _mm_add_pd(_mm_set1_pd(base), _mm_setr_pd(2, 3))};
  }
  static dvec mask_tail(dvec d, int live) {
    const vec inf = _mm_set1_pd(kInf);
    const vec n = _mm_set1_pd(live);
    return {select(_mm_cmplt_pd(_mm_setr_pd(0, 1), n), d.lo, inf),
            select(_mm_cmplt_pd(_mm_setr_pd(2, 3), n), d.hi, inf)};
  }
  static dvec load_ids(const cluster_t* p, int n) {
    const auto pair = [](const cluster_t* q) {
      return _mm_cvtepi32_pd(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q)));
    };
    if (n == 4) return {pair(p), pair(p + 2)};
    alignas(16) std::int32_t v[4] = {0, 0, 0, 0};  // reads n ids only
    for (int t = 0; t < n; ++t) v[t] = static_cast<std::int32_t>(p[t]);
    const __m128i q = _mm_load_si128(reinterpret_cast<const __m128i*>(v));
    return {_mm_cvtepi32_pd(q), _mm_cvtepi32_pd(_mm_unpackhi_epi64(q, q))};
  }
  static vec select(vec m, vec a, vec b) {  // m ? a : b
    return _mm_or_pd(_mm_and_pd(m, a), _mm_andnot_pd(m, b));
  }
  // Ids ascend within a lane, so a taken id is never below the lane's
  // current one: max(best_id, m & id) selects it without a blend.
  static void take_less(vec d, vec id, vec& best, vec& best_id) {
    const vec m = _mm_cmplt_pd(d, best);
    best = _mm_min_pd(d, best);
    best_id = _mm_max_pd(best_id, _mm_and_pd(m, id));
  }
  // Lane 0 sees ids c, c+2, lane 1 sees c+1, c+3: still ascending.
  static void take_less(dvec d, dvec id, dvec& best, dvec& best_id) {
    take_less(d.lo, id.lo, best.lo, best_id.lo);
    take_less(d.hi, id.hi, best.lo, best_id.lo);
  }
  static void take_lex(vec d, vec id, vec& best, vec& best_id) {
    const vec m =
        _mm_or_pd(_mm_cmplt_pd(d, best),
                  _mm_and_pd(_mm_cmpeq_pd(d, best), _mm_cmplt_pd(id, best_id)));
    best = _mm_min_pd(d, best);
    best_id = select(m, id, best_id);
  }
  static void take_lex(dvec d, dvec id, dvec& best, dvec& best_id) {
    take_lex(d.lo, id.lo, best.lo, best_id.lo);
    take_lex(d.hi, id.hi, best.lo, best_id.lo);
  }
  static cluster_t lexmin(dvec best, dvec best_id, value_t* best_sq) {
    take_lex(_mm_unpackhi_pd(best.lo, best.lo),
             _mm_unpackhi_pd(best_id.lo, best_id.lo), best.lo, best_id.lo);
    *best_sq = _mm_cvtsd_f64(best.lo);
    return static_cast<cluster_t>(_mm_cvtsd_f64(best_id.lo));
  }
  static bool any_below(dvec best, value_t x) {
    return _mm_movemask_pd(_mm_cmplt_pd(best.lo, _mm_set1_pd(x))) != 0;
  }
  static vec broadcast(value_t x) { return _mm_set1_pd(x); }
  static void storeu(value_t* p, vec v) { _mm_storeu_pd(p, v); }
  static void store_tile(value_t* p, dvec v) {
    _mm_storeu_pd(p, v.lo);
    _mm_storeu_pd(p + 2, v.hi);
  }
};

}  // namespace

Ops sse2_ops() { return make_ops<Sse2Traits>(Isa::kSse2); }
#else
Ops sse2_ops() { return Ops{}; }
#endif

}  // namespace knor::kernels::detail

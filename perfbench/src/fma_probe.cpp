// FMA-throughput probe: the compute ceiling of the roofline. Each thread
// runs kChains independent fused multiply-add chains (enough to cover FMA
// latency on two ports) in the widest vector unit available; a chain step
// is one FMA = 2 flops per lane. Compiled with the ISA flags CMakeLists.txt
// grants this TU alone; the wide paths run only when CPUID agrees.
#include <string>
#include <thread>
#include <vector>

#if defined(PB_HAVE_AVX512) || defined(PB_HAVE_AVX2_FMA)
#include <immintrin.h>
#endif

#include "bench.hpp"

namespace pb {
namespace {

constexpr int kChains = 16;
constexpr long kSteps = 40'000'000;  // ~0.1 s per thread at 2 FMAs per cycle
volatile double g_fma_sink = 0;

#ifdef PB_HAVE_AVX512
double run_avx512() {
  __m512d acc[kChains];
  for (int i = 0; i < kChains; ++i) acc[i] = _mm512_set1_pd(1.0 + i * 1e-3);
  const __m512d mul = _mm512_set1_pd(0.999999);
  const __m512d add = _mm512_set1_pd(1e-7);
  for (long s = 0; s < kSteps; ++s)
    for (int i = 0; i < kChains; ++i)
      acc[i] = _mm512_fmadd_pd(acc[i], mul, add);
  alignas(64) double lanes[8];
  double out = 0;
  for (int i = 0; i < kChains; ++i) {
    _mm512_store_pd(lanes, acc[i]);
    for (const double v : lanes) out += v;
  }
  g_fma_sink = out;
  return 2.0 * 8 * kChains * static_cast<double>(kSteps);
}
#endif

#ifdef PB_HAVE_AVX2_FMA
double run_avx2() {
  __m256d acc[kChains];
  for (int i = 0; i < kChains; ++i) acc[i] = _mm256_set1_pd(1.0 + i * 1e-3);
  const __m256d mul = _mm256_set1_pd(0.999999);
  const __m256d add = _mm256_set1_pd(1e-7);
  for (long s = 0; s < kSteps; ++s)
    for (int i = 0; i < kChains; ++i)
      acc[i] = _mm256_fmadd_pd(acc[i], mul, add);
  alignas(32) double lanes[4];
  double out = 0;
  for (int i = 0; i < kChains; ++i) {
    _mm256_store_pd(lanes, acc[i]);
    out += lanes[0] + lanes[1] + lanes[2] + lanes[3];
  }
  g_fma_sink = out;
  return 2.0 * 4 * kChains * static_cast<double>(kSteps);
}
#endif

double run_scalar() {
  double acc[kChains];
  for (int i = 0; i < kChains; ++i) acc[i] = 1.0 + i * 1e-3;
  for (long s = 0; s < kSteps; ++s)
    for (int i = 0; i < kChains; ++i) acc[i] = acc[i] * 0.999999 + 1e-7;
  double out = 0;
  for (int i = 0; i < kChains; ++i) out += acc[i];
  g_fma_sink = out;
  return 2.0 * kChains * static_cast<double>(kSteps);
}

}  // namespace

double fma_peak_gflops(int threads, std::string* unit_used) {
  double (*body)() = run_scalar;
  *unit_used = "scalar";
#ifdef PB_HAVE_AVX2_FMA
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    body = run_avx2;
    *unit_used = "avx2+fma";
  }
#endif
#ifdef PB_HAVE_AVX512
  if (__builtin_cpu_supports("avx512f")) {
    body = run_avx512;
    *unit_used = "avx512f";
  }
#endif
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<double> flops(static_cast<std::size_t>(threads));
    std::vector<std::thread> pool;
    const double t = timed([&] {
      for (int t = 0; t < threads; ++t)
        pool.emplace_back(
            [&flops, body, t] { flops[static_cast<std::size_t>(t)] = body(); });
      for (std::thread& th : pool) th.join();
    });
    double total = 0;
    for (const double f : flops) total += f;
    best = std::max(best, total / t / 1e9);
  }
  return best;
}

}  // namespace pb

// Property tests for the SIMD distance-kernel layer (core/kernels):
//  * every ISA variant matches a long-double reference within a tight
//    error bound across random d, including every remainder-lane case;
//  * each ISA is bitwise self-deterministic call to call;
//  * the scalar table reproduces the legacy core/distance.hpp kernels
//    bit-for-bit;
//  * the blocked nearest-centroid kernel and the subset kernel (the MTI
//    survivor scan) are bitwise-identical to independent dist_sq calls of
//    the same ISA (the contract that keeps MTI-pruned and full-scan paths
//    in exact agreement), and the subset kernel's tie rule is pinned;
//  * the all-distances kernel (top-m ranking) is bitwise equal to dist_sq
//    through every tile tail;
//  * CentroidPack rows are 64-byte aligned with zero padding for every
//    d in 1..33 (the odd-d regression sweep);
//  * Options::simd steers the engines and every ISA yields identical
//    clusterings on integer-valued data.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "common/prng.hpp"
#include "core/distance.hpp"
#include "core/kernels/simd.hpp"
#include "core/knori.hpp"
#include "data/generator.hpp"

namespace knor {
namespace {

using kernels::CentroidPack;
using kernels::Isa;
using kernels::Ops;

std::vector<value_t> random_vec(Prng& rng, index_t d) {
  std::vector<value_t> v(static_cast<std::size_t>(d));
  for (auto& x : v) x = 20.0 * rng.next_double() - 10.0;
  return v;
}

long double ref_dist_sq(const value_t* a, const value_t* b, index_t d) {
  long double s = 0;
  for (index_t j = 0; j < d; ++j) {
    const long double diff =
        static_cast<long double>(a[j]) - static_cast<long double>(b[j]);
    s += diff * diff;
  }
  return s;
}

long double ref_dot(const value_t* a, const value_t* b, index_t d) {
  long double s = 0;
  for (index_t j = 0; j < d; ++j)
    s += static_cast<long double>(a[j]) * static_cast<long double>(b[j]);
  return s;
}

/// All dims that exercise every remainder-lane count of every ISA (W up
/// to 8, two-accumulator main loop up to 16), plus a few larger ones.
std::vector<index_t> sweep_dims() {
  std::vector<index_t> dims;
  for (index_t d = 1; d <= 33; ++d) dims.push_back(d);
  dims.insert(dims.end(), {64, 127, 128, 257});
  return dims;
}

TEST(SimdDispatch, ParseAndToStringRoundTrip) {
  for (const Isa isa :
       {Isa::kAuto, Isa::kScalar, Isa::kSse2, Isa::kAvx2, Isa::kAvx512}) {
    Isa parsed = Isa::kAuto;
    EXPECT_TRUE(kernels::parse_isa(kernels::to_string(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  Isa parsed = Isa::kAuto;
  EXPECT_FALSE(kernels::parse_isa("quantum", &parsed));
  EXPECT_FALSE(kernels::parse_isa("", &parsed));
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndResolves) {
  EXPECT_TRUE(kernels::available(Isa::kScalar));
  const auto isas = kernels::available_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), Isa::kScalar);
  for (const Isa isa : isas) {
    const Ops& ops = kernels::ops_for(isa);
    EXPECT_EQ(ops.isa, isa);
    ASSERT_NE(ops.dist_sq, nullptr);
    ASSERT_NE(ops.dot, nullptr);
    ASSERT_NE(ops.nearest, nullptr);
    ASSERT_NE(ops.nearest_blocked, nullptr);
    ASSERT_NE(ops.nearest_subset, nullptr);
  }
  // Unavailable requests clamp downward instead of failing, and kAuto
  // always lands on something dispatchable (KNOR_SIMD may steer it, so no
  // strict equality with detect_best() here).
  EXPECT_NE(kernels::ops_for(Isa::kAvx512).dist_sq, nullptr);
  EXPECT_TRUE(kernels::available(kernels::resolve(Isa::kAuto)));
  EXPECT_TRUE(kernels::available(kernels::detect_best()));
}

TEST(SimdKernels, DistSqAndDotMatchLongDoubleReference) {
  Prng rng(0x51d0, 1);
  for (const Isa isa : kernels::available_isas()) {
    const Ops& ops = kernels::ops_for(isa);
    for (const index_t d : sweep_dims()) {
      const auto a = random_vec(rng, d);
      const auto b = random_vec(rng, d);
      const long double ref = ref_dist_sq(a.data(), b.data(), d);
      const value_t got = ops.dist_sq(a.data(), b.data(), d);
      // Positive-term summation: relative error <= #terms * eps with slack
      // (FMA variants are tighter).
      const double bound =
          4.0 * static_cast<double>(d + 1) * DBL_EPSILON *
          std::max(static_cast<double>(ref), 1.0);
      EXPECT_NEAR(got, static_cast<double>(ref), bound)
          << kernels::to_string(isa) << " dist_sq d=" << d;

      const long double dref = ref_dot(a.data(), b.data(), d);
      const value_t dgot = ops.dot(a.data(), b.data(), d);
      const double dbound =
          4.0 * static_cast<double>(d + 1) * DBL_EPSILON *
          std::max(static_cast<double>(std::fabs(dref)), 100.0 * d);
      EXPECT_NEAR(dgot, static_cast<double>(dref), dbound)
          << kernels::to_string(isa) << " dot d=" << d;
    }
  }
}

TEST(SimdKernels, BitwiseSelfDeterminismAcrossCalls) {
  Prng rng(0xb175, 2);
  for (const Isa isa : kernels::available_isas()) {
    const Ops& ops = kernels::ops_for(isa);
    for (const index_t d : {index_t(7), index_t(16), index_t(31)}) {
      const int k = 11;
      const auto point = random_vec(rng, d);
      const auto cents = random_vec(rng, static_cast<index_t>(k) * d);
      const value_t first = ops.dist_sq(point.data(), cents.data(), d);
      CentroidPack pack;
      pack.pack(cents.data(), k, d);
      value_t first_sq = 0;
      const cluster_t first_best =
          ops.nearest_blocked(point.data(), pack, &first_sq);
      for (int call = 0; call < 5; ++call) {
        const value_t again = ops.dist_sq(point.data(), cents.data(), d);
        EXPECT_EQ(std::memcmp(&first, &again, sizeof(value_t)), 0)
            << kernels::to_string(isa);
        // Repacking must not perturb the result either.
        CentroidPack repack;
        repack.pack(cents.data(), k, d);
        value_t sq = 0;
        EXPECT_EQ(ops.nearest_blocked(point.data(), repack, &sq), first_best);
        EXPECT_EQ(std::memcmp(&sq, &first_sq, sizeof(value_t)), 0)
            << kernels::to_string(isa);
      }
    }
  }
}

TEST(SimdKernels, ScalarTableMatchesLegacyBitForBit) {
  const Ops& ops = kernels::ops_for(Isa::kScalar);
  ASSERT_EQ(ops.isa, Isa::kScalar);
  Prng rng(0x5ca1a9, 3);
  for (const index_t d : sweep_dims()) {
    const int k = 7;
    const auto point = random_vec(rng, d);
    const auto cents = random_vec(rng, static_cast<index_t>(k) * d);
    const value_t legacy = dist_sq(point.data(), cents.data(), d);
    const value_t viaops = ops.dist_sq(point.data(), cents.data(), d);
    EXPECT_EQ(std::memcmp(&legacy, &viaops, sizeof(value_t)), 0) << d;

    const value_t legacy_dot = dot(point.data(), cents.data(), d);
    const value_t ops_dot = ops.dot(point.data(), cents.data(), d);
    EXPECT_EQ(std::memcmp(&legacy_dot, &ops_dot, sizeof(value_t)), 0) << d;

    value_t legacy_sq = 0, ops_sq = 0, blocked_sq = 0;
    const cluster_t legacy_best =
        nearest_centroid(point.data(), cents.data(), k, d, &legacy_sq);
    EXPECT_EQ(ops.nearest(point.data(), cents.data(), k, d, &ops_sq),
              legacy_best)
        << d;
    EXPECT_EQ(std::memcmp(&legacy_sq, &ops_sq, sizeof(value_t)), 0) << d;
    CentroidPack pack;
    pack.pack(cents.data(), k, d);
    EXPECT_EQ(ops.nearest_blocked(point.data(), pack, &blocked_sq),
              legacy_best)
        << d;
    EXPECT_EQ(std::memcmp(&legacy_sq, &blocked_sq, sizeof(value_t)), 0) << d;
  }
}

// The contract that keeps MTI-pruned (per-centroid dist_sq) and full-scan
// (blocked) paths in exact agreement: for every ISA, the blocked kernel's
// per-centroid distances are bitwise IDENTICAL to that ISA's dist_sq.
TEST(SimdKernels, BlockedMatchesPerCentroidDistSqBitwise) {
  Prng rng(0xb10c, 4);
  for (const Isa isa : kernels::available_isas()) {
    const Ops& ops = kernels::ops_for(isa);
    for (const index_t d : sweep_dims()) {
      for (const int k : {1, 2, 3, 4, 5, 7, 8, 9, 64}) {
        const auto point = random_vec(rng, d);
        const auto cents = random_vec(rng, static_cast<index_t>(k) * d);
        // Reference argmin over the ISA's own dist_sq, legacy tie rule.
        cluster_t ref_best = 0;
        value_t ref_sq = ops.dist_sq(point.data(), cents.data(), d);
        for (int c = 1; c < k; ++c) {
          const value_t dc = ops.dist_sq(
              point.data(), cents.data() + static_cast<std::size_t>(c) * d,
              d);
          if (dc < ref_sq) {
            ref_sq = dc;
            ref_best = static_cast<cluster_t>(c);
          }
        }
        CentroidPack pack;
        pack.pack(cents.data(), k, d);
        value_t blocked_sq = 0;
        const cluster_t blocked_best =
            ops.nearest_blocked(point.data(), pack, &blocked_sq);
        ASSERT_EQ(blocked_best, ref_best)
            << kernels::to_string(isa) << " d=" << d << " k=" << k;
        ASSERT_EQ(std::memcmp(&blocked_sq, &ref_sq, sizeof(value_t)), 0)
            << kernels::to_string(isa) << " d=" << d << " k=" << k;
        value_t generic_sq = 0;
        EXPECT_EQ(ops.nearest(point.data(), cents.data(), k, d, &generic_sq),
                  ref_best);
        EXPECT_EQ(std::memcmp(&generic_sq, &ref_sq, sizeof(value_t)), 0);
      }
    }
  }
}

// Top-m's kernel: Ops::distances writes all k distances, each bitwise
// equal to the ISA's dist_sq, and nothing past out[k). k runs through the
// full tiles and every half-tile and tile tail of every ISA (kTile <= 8);
// d through each ISA's partial chunk (1, kW - 1, kW, 2kW + 1 for kW 2, 4
// and 8) and 33.
TEST(SimdKernels, DistancesMatchPerCentroidDistSqBitwise) {
  Prng rng(0xd157, 9);
  constexpr value_t kSentinel = -12345.0;
  for (const Isa isa : kernels::available_isas()) {
    const Ops& ops = kernels::ops_for(isa);
    for (const index_t d : {1, 2, 3, 4, 5, 7, 8, 9, 17, 33}) {
      for (int k = 1; k <= 17; ++k) {
        const auto point = random_vec(rng, d);
        const auto cents = random_vec(rng, static_cast<index_t>(k) * d);
        CentroidPack pack;
        pack.pack(cents.data(), k, d);
        std::vector<value_t> out(static_cast<std::size_t>(k) + 8, kSentinel);
        ops.distances(point.data(), pack, out.data());
        for (int c = 0; c < k; ++c) {
          const value_t want = ops.dist_sq(
              point.data(), cents.data() + static_cast<std::size_t>(c) * d,
              d);
          ASSERT_EQ(std::memcmp(&out[static_cast<std::size_t>(c)], &want,
                                sizeof(value_t)),
                    0)
              << kernels::to_string(isa) << " d=" << d << " k=" << k
              << " c=" << c;
        }
        for (std::size_t i = static_cast<std::size_t>(k); i < out.size(); ++i)
          ASSERT_EQ(out[i], kSentinel)
              << kernels::to_string(isa) << " d=" << d << " k=" << k;
      }
    }
  }
}

/// Reference for Ops::nearest_subset: the incumbent `keep` (squared
/// distance keep_sq) wins every tie; listed ids are visited in ascending id
/// order with a strict '<', so the lowest id wins a tie among them.
cluster_t ref_subset(const Ops& ops, const value_t* point,
                     const std::vector<value_t>& cents, index_t d,
                     std::vector<cluster_t> ids, cluster_t keep,
                     value_t* io_sq) {
  std::sort(ids.begin(), ids.end());
  cluster_t best = keep;
  for (const cluster_t c : ids) {
    const value_t dc = ops.dist_sq(
        point, cents.data() + static_cast<std::size_t>(c) * d, d);
    if (dc < *io_sq) {
      *io_sq = dc;
      best = c;
    }
  }
  return best;
}

// The MTI survivor scan: for every ISA, the subset kernel over a shuffled
// id list (sizes 0, 1, 3, 4, 5 and k-1, so every k % 4 tile remainder
// occurs) is bitwise equal to per-id dist_sq. Each listed position is
// checked on its own by moving the point next to that centroid, so every
// tile slot and every remainder slot must produce dist_sq's exact bits.
TEST(SimdKernels, SubsetMatchesPerIdDistSqBitwise) {
  Prng rng(0x5b5e7, 6);
  for (const Isa isa : kernels::available_isas()) {
    const Ops& ops = kernels::ops_for(isa);
    ASSERT_NE(ops.nearest_subset, nullptr) << kernels::to_string(isa);
    for (index_t d = 1; d <= 33; ++d) {
      for (const int k : {2, 5, 6, 7, 8, 13}) {
        const auto cents = random_vec(rng, static_cast<index_t>(k) * d);
        CentroidPack pack;
        pack.pack(cents.data(), k, d);
        const auto keep = static_cast<cluster_t>(rng.next_below(k));
        std::vector<cluster_t> others;
        for (int c = 0; c < k; ++c)
          if (static_cast<cluster_t>(c) != keep)
            others.push_back(static_cast<cluster_t>(c));
        for (const int size : {0, 1, 3, 4, 5, k - 1}) {
          if (size > k - 1) continue;
          for (std::size_t i = others.size(); i > 1; --i)  // shuffle
            std::swap(others[i - 1], others[rng.next_below(i)]);
          const std::vector<cluster_t> ids(others.begin(),
                                           others.begin() + size);
          const std::string where = std::string(kernels::to_string(isa)) +
                                    " d=" + std::to_string(d) +
                                    " k=" + std::to_string(k) +
                                    " size=" + std::to_string(size);
          // A random point against keep + the list.
          const auto point = random_vec(rng, d);
          value_t ref_sq = ops.dist_sq(
              point.data(), cents.data() + static_cast<std::size_t>(keep) * d,
              d);
          value_t got_sq = ref_sq;
          const cluster_t want = ref_subset(ops, point.data(), cents, d, ids,
                                            keep, &ref_sq);
          ASSERT_EQ(ops.nearest_subset(point.data(), pack, ids.data(), size,
                                       keep, &got_sq),
                    want)
              << where;
          ASSERT_EQ(std::memcmp(&got_sq, &ref_sq, sizeof(value_t)), 0)
              << where;
          // Every listed slot wins once: the point sits just off centroid
          // ids[p], and the incumbent is out of the race (+inf).
          for (int p = 0; p < size; ++p) {
            std::vector<value_t> near(
                cents.begin() + static_cast<std::ptrdiff_t>(ids[p] * d),
                cents.begin() + static_cast<std::ptrdiff_t>((ids[p] + 1) * d));
            for (auto& x : near) x += 1e-3 * (rng.next_double() - 0.5);
            value_t sq = std::numeric_limits<value_t>::infinity();
            ASSERT_EQ(ops.nearest_subset(near.data(), pack, ids.data(), size,
                                         keep, &sq),
                      ids[p])
                << where << " slot " << p;
            const value_t want_sq =
                ops.dist_sq(near.data(),
                            cents.data() + static_cast<std::size_t>(ids[p]) * d,
                            d);
            ASSERT_EQ(std::memcmp(&sq, &want_sq, sizeof(value_t)), 0)
                << where << " slot " << p;
          }
        }
      }
    }
  }
}

// The subset kernel's winner rule on integer data, where every ISA computes
// exact distances and ties are real: the incumbent wins every tie; among
// listed ids the lowest wins, whatever its position (tile or remainder).
TEST(SimdKernels, SubsetTiesKeepIncumbentThenLowestId) {
  // Point at the origin; centroid c sits at distance^2 dist2[c].
  const index_t d = 3;
  const value_t dist2[8] = {4, 1, 1, 1, 9, 1, 4, 1};
  std::vector<value_t> cents(8 * d, 0);
  for (int c = 0; c < 8; ++c) {
    // Integer coordinates with the requested squared norm.
    const value_t r = dist2[c] == 9 ? 3 : dist2[c] == 4 ? 2 : 1;
    cents[static_cast<std::size_t>(c) * d + static_cast<std::size_t>(c % 3)] =
        c % 2 == 0 ? r : -r;
  }
  CentroidPack pack;
  pack.pack(cents.data(), 8, d);
  const std::vector<value_t> origin(d, 0);
  for (const Isa isa : kernels::available_isas()) {
    const Ops& ops = kernels::ops_for(isa);
    const char* name = kernels::to_string(isa);
    // Incumbent 3 (distance^2 1) ties with 7, 5, 2, 1: it keeps the point.
    {
      const std::vector<cluster_t> ids = {7, 5, 2, 1, 6, 0};
      value_t sq = 1;
      EXPECT_EQ(ops.nearest_subset(origin.data(), pack, ids.data(), 6, 3, &sq),
                3u)
          << name;
      EXPECT_EQ(sq, 1.0) << name;
    }
    // Incumbent 4 (distance^2 9) loses; 1, 2, 3, 5, 7 tie at 1 and the
    // lowest id wins — here placed in the remainder after a full tile.
    {
      const std::vector<cluster_t> ids = {7, 6, 5, 3, 0, 1, 2};
      value_t sq = 9;
      EXPECT_EQ(ops.nearest_subset(origin.data(), pack, ids.data(), 7, 4, &sq),
                1u)
          << name;
      EXPECT_EQ(sq, 1.0) << name;
    }
    // ...and placed last inside the first tile.
    {
      const std::vector<cluster_t> ids = {7, 5, 3, 1, 2, 6};
      value_t sq = 9;
      EXPECT_EQ(ops.nearest_subset(origin.data(), pack, ids.data(), 6, 4, &sq),
                1u)
          << name;
    }
    // An empty list returns the incumbent untouched.
    {
      value_t sq = 9;
      EXPECT_EQ(ops.nearest_subset(origin.data(), pack, nullptr, 0, 4, &sq),
                4u)
          << name;
      EXPECT_EQ(sq, 9.0) << name;
    }
  }
}

// Sizes around every tile boundary of every ISA (tiles of 4 and 8, half
// tiles, per-centroid tails): each must keep dist_sq's bits and the
// per-centroid winner.
TEST(SimdKernels, TileBoundarySizeSweepMatchesPerCentroidScan) {
  Prng rng(0x712e, 7);
  for (const Isa isa : kernels::available_isas()) {
    const Ops& ops = kernels::ops_for(isa);
    for (const index_t d : {index_t(3), index_t(16), index_t(21)}) {
      for (const int k : {15, 16, 17, 255}) {
        const auto cents = random_vec(rng, static_cast<index_t>(k) * d);
        CentroidPack pack;
        pack.pack(cents.data(), k, d);
        for (int trial = 0; trial < 4; ++trial) {
          const auto point = random_vec(rng, d);
          cluster_t ref_best = 0;
          value_t ref_sq = std::numeric_limits<value_t>::infinity();
          for (int c = 0; c < k; ++c) {
            const value_t dc = ops.dist_sq(
                point.data(), cents.data() + static_cast<std::size_t>(c) * d,
                d);
            if (dc < ref_sq) {
              ref_sq = dc;
              ref_best = static_cast<cluster_t>(c);
            }
          }
          value_t sq = 0;
          ASSERT_EQ(ops.nearest_blocked(point.data(), pack, &sq), ref_best)
              << kernels::to_string(isa) << " d=" << d << " k=" << k;
          ASSERT_EQ(std::memcmp(&sq, &ref_sq, sizeof(value_t)), 0)
              << kernels::to_string(isa) << " d=" << d << " k=" << k;
        }
      }
      const int k = 40;
      const auto cents = random_vec(rng, static_cast<index_t>(k) * d);
      CentroidPack pack;
      pack.pack(cents.data(), k, d);
      for (const int count : {7, 8, 9, 15, 16, 17}) {
        std::vector<cluster_t> ids;
        for (int c = 1; c < k; ++c) ids.push_back(static_cast<cluster_t>(c));
        for (std::size_t i = ids.size(); i > 1; --i)  // shuffle
          std::swap(ids[i - 1], ids[rng.next_below(i)]);
        ids.resize(static_cast<std::size_t>(count));
        for (int trial = 0; trial < 4; ++trial) {
          const auto point = random_vec(rng, d);
          value_t ref_sq = ops.dist_sq(point.data(), cents.data(), d);
          value_t got_sq = ref_sq;
          const cluster_t want =
              ref_subset(ops, point.data(), cents, d, ids, 0, &ref_sq);
          ASSERT_EQ(ops.nearest_subset(point.data(), pack, ids.data(), count,
                                       0, &got_sq),
                    want)
              << kernels::to_string(isa) << " d=" << d << " count=" << count;
          ASSERT_EQ(std::memcmp(&got_sq, &ref_sq, sizeof(value_t)), 0)
              << kernels::to_string(isa) << " d=" << d << " count=" << count;
        }
      }
    }
  }
}

/// Centroids at integer squared distance dist2[c] from the origin, one
/// nonzero coordinate each (exact under every ISA, so ties are real).
std::vector<value_t> centroids_at(const std::vector<value_t>& dist2,
                                  index_t d) {
  std::vector<value_t> cents(dist2.size() * d, 0);
  for (std::size_t c = 0; c < dist2.size(); ++c)
    cents[c * d + c % d] = std::sqrt(dist2[c]);
  return cents;
}

// Ties resolved in registers: for every pair of positions — inside one
// tile, across two tiles, in the half tile and in the per-centroid tail —
// the blocked scan returns the lower id, and the subset scan returns the
// lower listed id whatever the list order, unless the incumbent ties too.
TEST(SimdKernels, TiesInEveryLanePickLowestIdAndIncumbentWins) {
  const index_t d = 3;
  const int k = 21;  // tiles of 8 + half tile + tail, or 5 tiles of 4 + tail
  const std::vector<value_t> origin(d, 0);
  Prng rng(0x7135, 8);
  for (const Isa isa : kernels::available_isas()) {
    const Ops& ops = kernels::ops_for(isa);
    const char* name = kernels::to_string(isa);
    for (int i = 0; i < k; ++i) {
      for (int j = i + 1; j < k; ++j) {
        std::vector<value_t> dist2(k, 4);
        dist2[static_cast<std::size_t>(i)] = 1;
        dist2[static_cast<std::size_t>(j)] = 1;
        const auto cents = centroids_at(dist2, d);
        CentroidPack pack;
        pack.pack(cents.data(), k, d);
        value_t sq = 0;
        ASSERT_EQ(ops.nearest_blocked(origin.data(), pack, &sq),
                  static_cast<cluster_t>(i))
            << name << " tie " << i << "," << j;
        ASSERT_EQ(sq, 1.0) << name;
        // Subset: every centroid but keep = 0 listed, shuffled; the two
        // tying candidates sit wherever the shuffle put them.
        if (i == 0) continue;
        std::vector<cluster_t> ids;
        for (int c = 1; c < k; ++c) ids.push_back(static_cast<cluster_t>(c));
        for (std::size_t p = ids.size(); p > 1; --p)
          std::swap(ids[p - 1], ids[rng.next_below(p)]);
        value_t io = 4;  // keep (centroid 0) at distance^2 4: it loses
        ASSERT_EQ(ops.nearest_subset(origin.data(), pack, ids.data(), k - 1,
                                     0, &io),
                  static_cast<cluster_t>(i))
            << name << " subset tie " << i << "," << j;
        ASSERT_EQ(io, 1.0) << name;
        io = 1;  // keep ties the winners: it keeps the point
        ASSERT_EQ(ops.nearest_subset(origin.data(), pack, ids.data(), k - 1,
                                     0, &io),
                  0u)
            << name << " incumbent tie " << i << "," << j;
        ASSERT_EQ(io, 1.0) << name;
      }
    }
  }
}

// NaN and inf distances: a NaN never wins, in any lane; an all-NaN or
// all-inf scan returns centroid 0 at +inf (blocked) or the incumbent with
// its distance untouched (subset).
TEST(SimdKernels, NanNeverWinsAndAllNanOrInfScansKeepTheirDefault) {
  const index_t d = 5;
  const value_t nan = std::numeric_limits<value_t>::quiet_NaN();
  const value_t inf = std::numeric_limits<value_t>::infinity();
  const std::vector<value_t> origin(d, 0);
  for (const Isa isa : kernels::available_isas()) {
    const Ops& ops = kernels::ops_for(isa);
    const char* name = kernels::to_string(isa);
    for (const int k : {1, 3, 4, 8, 13, 17}) {
      std::vector<cluster_t> ids;
      for (int c = 1; c < k; ++c) ids.push_back(static_cast<cluster_t>(k - c));
      // One NaN centroid at each position, all others at distance^2 >= 1;
      // the finite minimum sits right after the NaN (or first).
      for (int p = 0; p < k; ++p) {
        std::vector<value_t> dist2(static_cast<std::size_t>(k), 9);
        const int win = (p + 1) % k;
        dist2[static_cast<std::size_t>(win)] = 1;
        auto cents = centroids_at(dist2, d);
        cents[static_cast<std::size_t>(p) * d + 1] = nan;
        CentroidPack pack;
        pack.pack(cents.data(), k, d);
        value_t sq = 0;
        const cluster_t got = ops.nearest_blocked(origin.data(), pack, &sq);
        if (win != p) {
          EXPECT_EQ(got, static_cast<cluster_t>(win))
              << name << " k=" << k << " nan at " << p;
          EXPECT_EQ(sq, 1.0) << name;
        } else {  // k == 1: the only centroid is NaN
          EXPECT_EQ(got, 0u) << name;
          EXPECT_EQ(sq, inf) << name;
        }
        // Subset over ids k-1..1 with keep = 0 at distance^2 16: the
        // listed non-NaN minimum wins, lowest id first.
        cluster_t want = 0;
        value_t want_sq = 16;
        for (int c = 1; c < k; ++c)
          if (c != p && dist2[static_cast<std::size_t>(c)] < want_sq) {
            want_sq = dist2[static_cast<std::size_t>(c)];
            want = static_cast<cluster_t>(c);
          }
        value_t io = 16;
        EXPECT_EQ(ops.nearest_subset(origin.data(), pack, ids.data(), k - 1,
                                     0, &io),
                  want)
            << name << " subset k=" << k << " nan at " << p;
        EXPECT_EQ(io, want_sq) << name;
      }
      for (const value_t bad : {nan, inf}) {
        std::vector<value_t> cents(static_cast<std::size_t>(k) * d, 0);
        for (int c = 0; c < k; ++c) cents[static_cast<std::size_t>(c) * d] = bad;
        CentroidPack pack;
        pack.pack(cents.data(), k, d);
        value_t sq = 0;
        EXPECT_EQ(ops.nearest_blocked(origin.data(), pack, &sq), 0u)
            << name << " k=" << k << " all " << bad;
        EXPECT_EQ(sq, inf) << name << " k=" << k << " all " << bad;
        for (const value_t keep_sq : {value_t(7), inf}) {
          value_t io = keep_sq;
          EXPECT_EQ(ops.nearest_subset(origin.data(), pack, ids.data(), k - 1,
                                       0, &io),
                    0u)
              << name << " k=" << k << " all " << bad;
          EXPECT_EQ(io, keep_sq) << name << " k=" << k << " all " << bad;
        }
      }
    }
  }
}

// Odd-d regression sweep: pack rows must be 64-byte aligned with +0.0
// padding so the aligned full-width loads of the blocked kernel are safe.
TEST(SimdKernels, CentroidPackAlignedAndZeroPaddedForAllSmallD) {
  Prng rng(0xa119, 5);
  for (index_t d = 1; d <= 33; ++d) {
    const int k = 5;
    const auto cents = random_vec(rng, static_cast<index_t>(k) * d);
    CentroidPack pack;
    pack.pack(cents.data(), k, d);
    EXPECT_EQ(pack.d(), d);
    EXPECT_EQ(pack.k(), k);
    EXPECT_EQ(pack.stride() % CentroidPack::kLaneAlign, 0u) << d;
    EXPECT_GE(pack.stride(), d);
    for (int c = 0; c < k; ++c) {
      const value_t* row = pack.row(c);
      EXPECT_TRUE(is_cacheline_aligned(row)) << "d=" << d << " c=" << c;
      EXPECT_EQ(std::memcmp(row, cents.data() + static_cast<std::size_t>(c) * d,
                            d * sizeof(value_t)),
                0);
      for (index_t j = d; j < pack.stride(); ++j)
        EXPECT_EQ(row[j], 0.0) << "padding lane d=" << d << " j=" << j;
    }
  }
}

// Options::simd steers the whole engine; on integer-valued data every ISA
// must produce bitwise-identical centroids (exact sums are order- and
// FMA-independent), and identical assignments/iteration counts.
TEST(SimdEngine, AllIsasAgreeOnIntegerData) {
  data::GeneratorSpec spec;
  spec.n = 900;
  spec.d = 7;  // odd d: exercises every remainder path in the engines
  spec.true_clusters = 4;
  spec.separation = 9.0;
  spec.seed = 20170627;
  DenseMatrix m = data::generate(spec);
  for (index_t r = 0; r < m.rows(); ++r)
    for (index_t c = 0; c < m.cols(); ++c) m.at(r, c) = std::round(m.at(r, c));

  Options base;
  base.k = 4;
  base.max_iters = 40;
  base.threads = 3;
  base.numa_nodes = 2;

  Options scalar_opts = base;
  scalar_opts.simd = Isa::kScalar;
  const Result ref = kmeans(m.const_view(), scalar_opts);
  ASSERT_GT(ref.iters, 1u);

  for (const Isa isa : kernels::available_isas()) {
    for (const bool prune : {false, true}) {
      Options opts = base;
      opts.simd = isa;
      opts.prune = prune;
      const Result res = kmeans(m.const_view(), opts);
      EXPECT_EQ(res.iters, ref.iters) << kernels::to_string(isa);
      EXPECT_EQ(res.assignments, ref.assignments) << kernels::to_string(isa);
      EXPECT_EQ(res.cluster_sizes, ref.cluster_sizes)
          << kernels::to_string(isa);
      EXPECT_EQ(std::memcmp(res.centroids.data(), ref.centroids.data(),
                            ref.centroids.size() * sizeof(value_t)),
                0)
          << kernels::to_string(isa) << " centroids differ bitwise";
    }
  }
  kernels::set_isa(Isa::kAuto);  // restore for other tests in this binary
}

// ----------------------------------------------------- fused GEMM kernel

/// Integer-valued rows: every product and partial sum below is an exactly
/// representable double, so the fused kernel's result is EXACTLY equal to
/// the naive reference for every ISA (no reduction-order slack to hide in).
std::vector<value_t> random_int_vec(Prng& rng, index_t d) {
  std::vector<value_t> v(static_cast<std::size_t>(d));
  for (auto& x : v) x = std::round(20.0 * rng.next_double() - 10.0);
  return v;
}

TEST(GemmArgmin, MatchesNaiveReferenceExactlyOnIntegerData) {
  Prng rng(0x9e33, 4);
  for (const Isa isa : kernels::available_isas()) {
    const Ops& ops = kernels::ops_for(isa);
    ASSERT_NE(ops.gemm_argmin, nullptr) << kernels::to_string(isa);
    for (const index_t d : {index_t(3), index_t(8), index_t(17)}) {
      for (const int k : {1, 7, 8, 9, 23}) {
        const index_t n = 13;  // exercises the partial register block
        const auto rows = random_int_vec(rng, n * d);
        const auto cents = random_int_vec(rng, static_cast<index_t>(k) * d);
        DenseMatrix cmat(static_cast<index_t>(k), d);
        std::memcpy(cmat.data(), cents.data(),
                    cents.size() * sizeof(value_t));
        std::vector<value_t> cnorm(static_cast<std::size_t>(k));
        for (int c = 0; c < k; ++c) {
          long double s = 0;
          for (index_t j = 0; j < d; ++j) {
            const long double x = cents[static_cast<std::size_t>(c) * d + j];
            s += x * x;
          }
          cnorm[static_cast<std::size_t>(c)] = static_cast<value_t>(s);
        }
        TiledMatrix tiles;
        tiles.pack(cmat.const_view(), kernels::kGemmPanelWidth, d);
        std::vector<cluster_t> best(static_cast<std::size_t>(n), 0);
        std::vector<value_t> score(
            static_cast<std::size_t>(n),
            std::numeric_limits<value_t>::infinity());
        ops.gemm_argmin(rows.data(), n, d, tiles, 0, tiles.row_panels(),
                        cnorm.data(), best.data(), score.data());
        for (index_t i = 0; i < n; ++i) {
          cluster_t want = 0;
          value_t want_s = std::numeric_limits<value_t>::infinity();
          for (int c = 0; c < k; ++c) {
            value_t dot = 0;
            for (index_t j = 0; j < d; ++j)
              dot += rows[static_cast<std::size_t>(i) * d + j] *
                     cents[static_cast<std::size_t>(c) * d + j];
            const value_t s = cnorm[static_cast<std::size_t>(c)] - 2 * dot;
            if (s < want_s) {
              want_s = s;
              want = static_cast<cluster_t>(c);
            }
          }
          EXPECT_EQ(best[static_cast<std::size_t>(i)], want)
              << kernels::to_string(isa) << " d=" << d << " k=" << k
              << " row " << i;
          EXPECT_EQ(score[static_cast<std::size_t>(i)], want_s)
              << kernels::to_string(isa) << " d=" << d << " k=" << k
              << " row " << i;
        }
      }
    }
  }
}

TEST(GemmArgmin, BitwiseInvariantAcrossPackAndPanelSplits) {
  // The §12 contract on REAL (non-integer) data: per ISA, the (best, score)
  // outputs are bitwise identical whatever the pack's col_block and however
  // the panel range [0, P) is split across calls — tile shape is a pure
  // performance knob.
  Prng rng(0x711e, 5);
  const index_t n = 11, d = 19;
  const int k = 29;
  for (const Isa isa : kernels::available_isas()) {
    const Ops& ops = kernels::ops_for(isa);
    const auto rows = random_vec(rng, n * d);
    const auto cents = random_vec(rng, static_cast<index_t>(k) * d);
    DenseMatrix cmat(static_cast<index_t>(k), d);
    std::memcpy(cmat.data(), cents.data(), cents.size() * sizeof(value_t));
    std::vector<value_t> cnorm(static_cast<std::size_t>(k));
    for (int c = 0; c < k; ++c)
      cnorm[static_cast<std::size_t>(c)] =
          ops.dot(cmat.row(static_cast<index_t>(c)),
                  cmat.row(static_cast<index_t>(c)), d);

    std::vector<cluster_t> ref_best;
    std::vector<value_t> ref_score;
    for (const index_t col_block : {index_t(1), index_t(5), index_t(19)}) {
      for (const index_t step : {index_t(1), index_t(2), index_t(64)}) {
        TiledMatrix tiles;
        tiles.pack(cmat.const_view(), kernels::kGemmPanelWidth, col_block);
        const index_t P = tiles.row_panels();
        std::vector<cluster_t> best(static_cast<std::size_t>(n), 0);
        std::vector<value_t> score(
            static_cast<std::size_t>(n),
            std::numeric_limits<value_t>::infinity());
        for (index_t p0 = 0; p0 < P; p0 += step)
          ops.gemm_argmin(rows.data(), n, d, tiles, p0,
                          P - p0 < step ? P : p0 + step, cnorm.data(),
                          best.data(), score.data());
        if (ref_best.empty()) {
          ref_best = best;
          ref_score = score;
        } else {
          EXPECT_EQ(best, ref_best)
              << kernels::to_string(isa) << " cb=" << col_block
              << " step=" << step;
          EXPECT_EQ(std::memcmp(score.data(), ref_score.data(),
                                score.size() * sizeof(value_t)),
                    0)
              << kernels::to_string(isa) << " cb=" << col_block
              << " step=" << step;
        }
      }
    }
  }
}

// ------------------------------------------- per-run ISA state isolation

TEST(IsaIsolation, ConcurrentEnginesWithDifferentIsasDoNotInterfere) {
  // Satellite pin for the global-ISA-state bugfix: no engine entry point
  // mutates the process-global dispatch any more, so two runs requesting
  // DIFFERENT ISAs can execute concurrently and each must reproduce its
  // own sequential result bitwise. Before the fix, each run's set_isa()
  // retargeted the other's kernels mid-flight.
  const auto isas = kernels::available_isas();
  if (isas.size() < 2) GTEST_SKIP() << "only one ISA available";
  const Isa lo = isas.front(), hi = isas.back();

  data::GeneratorSpec spec;
  spec.n = 2000;
  spec.d = 9;
  spec.true_clusters = 5;
  spec.seed = 20170627;
  const DenseMatrix m = data::generate(spec);

  Options base;
  base.k = 5;
  base.max_iters = 25;
  base.threads = 2;
  base.numa_nodes = 2;
  Options lo_opts = base, hi_opts = base;
  lo_opts.simd = lo;
  hi_opts.simd = hi;

  const Result lo_ref = kmeans(m.const_view(), lo_opts);
  const Result hi_ref = kmeans(m.const_view(), hi_opts);

  for (int round = 0; round < 3; ++round) {
    Result lo_res, hi_res;
    std::thread a([&] { lo_res = kmeans(m.const_view(), lo_opts); });
    std::thread b([&] { hi_res = kmeans(m.const_view(), hi_opts); });
    a.join();
    b.join();
    for (const auto* pair :
         {&lo_res, &hi_res}) {
      const Result& ref = pair == &lo_res ? lo_ref : hi_ref;
      const Result& res = *pair;
      ASSERT_EQ(res.iters, ref.iters) << round;
      EXPECT_EQ(res.assignments, ref.assignments) << round;
      EXPECT_EQ(std::memcmp(res.centroids.data(), ref.centroids.data(),
                            ref.centroids.size() * sizeof(value_t)),
                0)
          << "round " << round << " centroids differ bitwise";
      EXPECT_EQ(std::memcmp(&res.energy, &ref.energy, sizeof(double)), 0)
          << round;
    }
  }
}

}  // namespace
}  // namespace knor

// Unit tests for the core k-means machinery: distance kernels,
// initialization, local centroid accumulators, MTI state, and degenerate
// input handling of every engine.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "common/prng.hpp"
#include "core/distance.hpp"
#include "core/engine_impl.hpp"
#include "core/engines.hpp"
#include "core/init.hpp"
#include "core/knori.hpp"
#include "core/local_centroids.hpp"
#include "core/mti.hpp"
#include "data/dataset.hpp"
#include "data/generator.hpp"
#include "numa/partitioner.hpp"
#include "numa/topology.hpp"

namespace knor {
namespace {

TEST(Distance, SquaredEuclideanMatchesDefinition) {
  const value_t a[5] = {1, 2, 3, 4, 5};
  const value_t b[5] = {0, 1, 1, 1, 1};
  // diffs: 1,1,2,3,4 -> squares 1+1+4+9+16 = 31
  EXPECT_DOUBLE_EQ(dist_sq(a, b, 5), 31.0);
  EXPECT_DOUBLE_EQ(euclidean(a, b, 5), std::sqrt(31.0));
}

TEST(Distance, HandlesShortAndUnrolledTails) {
  // Exercise d < 4 (tail only), d == 4 (unrolled only) and mixed d.
  const value_t a[9] = {1, 1, 1, 1, 1, 1, 1, 1, 1};
  const value_t b[9] = {0, 0, 0, 0, 0, 0, 0, 0, 0};
  for (index_t d : {1, 2, 3, 4, 5, 8, 9})
    EXPECT_DOUBLE_EQ(dist_sq(a, b, d), static_cast<double>(d)) << d;
  EXPECT_DOUBLE_EQ(dist_sq(a, b, 0), 0.0);
}

TEST(Distance, NearestCentroidLowestIndexTie) {
  // Two identical centroids: the tie must resolve to the lower index.
  const value_t point[2] = {0, 0};
  const value_t centroids[6] = {5, 5, 1, 1, 1, 1};  // c1 == c2
  value_t d = 0;
  EXPECT_EQ(nearest_centroid(point, centroids, 3, 2, &d), 1u);
  EXPECT_DOUBLE_EQ(d, 2.0);  // out-param is the SQUARED distance
}

TEST(SampleRows, DistinctAndInRange) {
  const auto rows = sample_rows(100, 20, 7);
  std::set<index_t> unique(rows.begin(), rows.end());
  EXPECT_EQ(unique.size(), 20u);
  for (index_t r : rows) EXPECT_LT(r, 100u);
}

TEST(SampleRows, DeterministicAndThrowsWhenKExceedsN) {
  EXPECT_EQ(sample_rows(50, 10, 3), sample_rows(50, 10, 3));
  EXPECT_THROW(sample_rows(5, 6, 1), std::invalid_argument);
}

class InitTest : public ::testing::TestWithParam<Init> {};

TEST_P(InitTest, ProducesKDistinctFiniteCentroids) {
  data::GeneratorSpec spec;
  spec.n = 2000;
  spec.d = 4;
  spec.true_clusters = 5;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 5;
  opts.init = GetParam();
  opts.seed = 11;
  const DenseMatrix c = init_centroids(m.const_view(), opts);
  ASSERT_EQ(c.rows(), 5u);
  ASSERT_EQ(c.cols(), 4u);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_TRUE(std::isfinite(c.data()[i]));
  // No two centroids identical (true for continuous data).
  for (index_t a = 0; a < 5; ++a)
    for (index_t b = a + 1; b < 5; ++b)
      EXPECT_GT(dist_sq(c.row(a), c.row(b), 4), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Methods, InitTest,
                         ::testing::Values(Init::kForgy, Init::kRandom,
                                           Init::kKmeansPP),
                         [](const auto& info) {
                           switch (info.param) {
                             case Init::kForgy: return "Forgy";
                             case Init::kRandom: return "Random";
                             case Init::kKmeansPP: return "KmeansPP";
                             default: return "Other";
                           }
                         });

TEST(Init, KmeansPPSpreadsCentres) {
  // On well-separated data, k-means++ should pick one centre per component
  // far more often than forgy; verify spread: min pairwise distance of
  // kmeans++ centres exceeds that of a uniformly-random pick on average.
  data::GeneratorSpec spec;
  spec.n = 6000;
  spec.d = 4;
  spec.true_clusters = 6;
  spec.separation = 12.0;
  const DenseMatrix m = data::generate(spec);
  auto min_pairwise = [&](const DenseMatrix& c) {
    value_t best = std::numeric_limits<value_t>::infinity();
    for (index_t a = 0; a < c.rows(); ++a)
      for (index_t b = a + 1; b < c.rows(); ++b)
        best = std::min(best, dist_sq(c.row(a), c.row(b), c.cols()));
    return best;
  };
  double pp = 0, forgy = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Options opts;
    opts.k = 6;
    opts.seed = seed;
    opts.init = Init::kKmeansPP;
    pp += min_pairwise(init_centroids(m.const_view(), opts));
    opts.init = Init::kForgy;
    forgy += min_pairwise(init_centroids(m.const_view(), opts));
  }
  EXPECT_GT(pp, forgy);
}

TEST(Init, ProvidedCentroidsValidated) {
  data::GeneratorSpec spec;
  spec.n = 10;
  spec.d = 3;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 2;
  opts.init = Init::kProvided;
  opts.initial_centroids = DenseMatrix(2, 4);  // wrong d
  EXPECT_THROW(init_centroids(m.const_view(), opts), std::invalid_argument);
  opts.initial_centroids = DenseMatrix(2, 3);
  opts.initial_centroids.at(1, 2) = 5.0;
  const DenseMatrix c = init_centroids(m.const_view(), opts);
  EXPECT_EQ(c.at(1, 2), 5.0);
}

TEST(Init, InvalidConfigurationsThrow) {
  data::GeneratorSpec spec;
  spec.n = 5;
  spec.d = 2;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 0;
  EXPECT_THROW(init_centroids(m.const_view(), opts), std::invalid_argument);
  opts.k = 6;  // > n
  EXPECT_THROW(init_centroids(m.const_view(), opts), std::invalid_argument);
}

TEST(LocalCentroids, AddMergeFinalize) {
  LocalCentroids a(2, 3), b(2, 3);
  const value_t v1[3] = {1, 2, 3};
  const value_t v2[3] = {3, 4, 5};
  const value_t v3[3] = {10, 10, 10};
  a.add(0, v1);
  b.add(0, v2);
  b.add(1, v3);
  a.merge(b);
  EXPECT_EQ(a.count(0), 2u);
  EXPECT_EQ(a.count(1), 1u);
  DenseMatrix out(2, 3), prev(2, 3);
  const auto sizes = a.finalize_into(out, prev);
  EXPECT_EQ(sizes[0], 2u);
  EXPECT_DOUBLE_EQ(out.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(out.at(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(out.at(1, 1), 10.0);
}

TEST(LocalCentroids, EmptyClusterKeepsPrevious) {
  LocalCentroids acc(2, 2);
  const value_t v[2] = {4, 6};
  acc.add(0, v);
  DenseMatrix prev(2, 2);
  prev.at(1, 0) = -7.0;
  prev.at(1, 1) = 8.0;
  DenseMatrix out(2, 2);
  const auto sizes = acc.finalize_into(out, prev);
  EXPECT_EQ(sizes[1], 0u);
  EXPECT_DOUBLE_EQ(out.at(1, 0), -7.0);
  EXPECT_DOUBLE_EQ(out.at(1, 1), 8.0);
}

TEST(LocalCentroids, ClearResets) {
  LocalCentroids acc(1, 2);
  const value_t v[2] = {1, 1};
  acc.add(0, v);
  acc.clear();
  EXPECT_EQ(acc.count(0), 0u);
  EXPECT_DOUBLE_EQ(acc.sum(0)[0], 0.0);
}

TEST(MtiState, BoundsStartInfinite) {
  MtiState mti(10, 3);
  for (index_t i = 0; i < 10; ++i)
    EXPECT_TRUE(std::isinf(mti.ub(i)));
}

TEST(MtiState, PrepareSortsNeighboursDriftAndSeparation) {
  // Centroids at (0,0), (4,0), (0,3): distances 4, 3, 5.
  DenseMatrix cur(3, 2);
  cur.at(1, 0) = 4;
  cur.at(2, 1) = 3;
  MtiState mti(1, 3);
  mti.prepare(DenseMatrix{}, cur);
  // Each list holds the other k-1 centroids by ascending distance, with
  // half-distances alongside.
  EXPECT_EQ(mti.neighbours(0)[0], 2u);
  EXPECT_EQ(mti.neighbours(0)[1], 1u);
  EXPECT_DOUBLE_EQ(mti.half(0)[0], 1.5);  // d(0,2)/2
  EXPECT_DOUBLE_EQ(mti.half(0)[1], 2.0);  // d(0,1)/2
  EXPECT_EQ(mti.neighbours(1)[0], 0u);
  EXPECT_EQ(mti.neighbours(1)[1], 2u);
  EXPECT_DOUBLE_EQ(mti.half(1)[1], 2.5);  // d(1,2)/2
  EXPECT_EQ(mti.neighbours(2)[0], 0u);
  EXPECT_EQ(mti.neighbours(2)[1], 1u);
  EXPECT_DOUBLE_EQ(mti.s_half(0), 1.5);  // min(4,3)/2
  EXPECT_DOUBLE_EQ(mti.s_half(1), 2.0);  // min(4,5)/2
  EXPECT_DOUBLE_EQ(mti.drift(0), 0.0);   // no previous centroids

  DenseMatrix prev = cur;
  cur.at(0, 0) = 1;  // centroid 0 moved by 1
  mti.prepare(prev, cur);
  EXPECT_DOUBLE_EQ(mti.drift(0), 1.0);
  EXPECT_DOUBLE_EQ(mti.drift(1), 0.0);
}

TEST(MtiState, Clause1UsesHalfSeparation) {
  DenseMatrix cur(2, 1);
  cur.at(0, 0) = 0;
  cur.at(1, 0) = 10;
  MtiState mti(1, 2);
  mti.prepare(DenseMatrix{}, cur);
  EXPECT_TRUE(mti.clause1(0, 4.9));   // 4.9 <= 5.0
  EXPECT_FALSE(mti.clause1(0, 5.1));  // cannot prove
}

TEST(MtiState, EqualDistancesSortByIdAndPrefixIsStrict) {
  // Centroid 0 at the origin, 1..3 all at distance 2: ties order by id,
  // and a cutoff equal to the half-distance cuts nothing in (strict <).
  DenseMatrix cur(4, 2);
  cur.at(1, 0) = 2;
  cur.at(2, 1) = 2;
  cur.at(3, 0) = -2;
  MtiState mti(1, 4);
  mti.prepare(DenseMatrix{}, cur);
  EXPECT_EQ(mti.neighbours(0)[0], 1u);
  EXPECT_EQ(mti.neighbours(0)[1], 2u);
  EXPECT_EQ(mti.neighbours(0)[2], 3u);
  EXPECT_EQ(mti.prefix(0, 1.0), 0);
  EXPECT_EQ(mti.prefix(0, std::nextafter(1.0, 2.0)), 3);
}

TEST(MtiState, PrefixMatchesBruteForceCount) {
  // For random centroids and random cutoffs, the cut length equals the
  // number of other centroids with 1/2 d(a, c) < cutoff, and the list
  // holds every other centroid exactly once.
  Prng rng(2024, 5);
  for (const int k : {2, 3, 7, 16, 33}) {
    const index_t d = 1 + rng.next_below(9);
    DenseMatrix cur(static_cast<index_t>(k), d);
    for (index_t i = 0; i < cur.size(); ++i)
      cur.data()[i] = std::floor(8 * rng.next_double());  // forces ties
    MtiState mti(1, k);
    mti.prepare(DenseMatrix{}, cur);
    for (int a = 0; a < k; ++a) {
      std::vector<int> seen(static_cast<std::size_t>(k), 0);
      for (int j = 0; j < k - 1; ++j)
        ++seen[mti.neighbours(static_cast<cluster_t>(a))[j]];
      for (int c = 0; c < k; ++c)
        EXPECT_EQ(seen[static_cast<std::size_t>(c)], c == a ? 0 : 1);
      for (int trial = 0; trial < 20; ++trial) {
        // Half the cutoffs land exactly on a listed half-distance.
        const value_t cutoff =
            trial % 2 == 0
                ? 6 * rng.next_double()
                : mti.half(static_cast<cluster_t>(a))[rng.next_below(
                      static_cast<std::uint64_t>(k - 1))];
        int brute = 0;
        for (int c = 0; c < k; ++c) {
          if (c == a) continue;
          const value_t h =
              value_t(0.5) *
              std::sqrt(kernels::ops().dist_sq(
                  cur.row(static_cast<index_t>(a)),
                  cur.row(static_cast<index_t>(c)), d));
          if (h < cutoff) ++brute;
        }
        EXPECT_EQ(mti.prefix(static_cast<cluster_t>(a), cutoff), brute)
            << "k=" << k << " a=" << a << " cutoff=" << cutoff;
      }
    }
  }
}

TEST(MtiState, SingleClusterSeparationIsZero) {
  DenseMatrix cur(1, 2);
  MtiState mti(4, 1);
  mti.prepare(DenseMatrix{}, cur);
  EXPECT_DOUBLE_EQ(mti.s_half(0), 0.0);
}

// --- Degenerate input handling across engines -----------------------------

struct EngineCase {
  const char* name;
  Result (*run)(ConstMatrixView, const Options&);
};

Result run_knori(ConstMatrixView m, const Options& o) { return kmeans(m, o); }

class DegenerateTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(DegenerateTest, KEqualsOneAssignsEverythingToOneCluster) {
  data::GeneratorSpec spec;
  spec.n = 500;
  spec.d = 3;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 1;
  opts.threads = 2;
  opts.max_iters = 10;
  const Result res = GetParam().run(m.const_view(), opts);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.cluster_sizes[0], 500u);
  for (cluster_t a : res.assignments) EXPECT_EQ(a, 0u);
}

TEST_P(DegenerateTest, KEqualsNIsPerfect) {
  data::GeneratorSpec spec;
  spec.n = 16;
  spec.d = 2;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 16;
  opts.threads = 2;
  opts.max_iters = 20;
  const Result res = GetParam().run(m.const_view(), opts);
  EXPECT_NEAR(res.energy, 0.0, 1e-18);
}

TEST_P(DegenerateTest, IdenticalPointsDoNotCrash) {
  DenseMatrix m(100, 3);  // all zeros
  Options opts;
  opts.k = 4;
  opts.threads = 2;
  opts.max_iters = 5;
  const Result res = GetParam().run(m.const_view(), opts);
  EXPECT_NEAR(res.energy, 0.0, 1e-18);
  index_t total = 0;
  for (index_t s : res.cluster_sizes) total += s;
  EXPECT_EQ(total, 100u);
}

TEST_P(DegenerateTest, OneDimensionalData) {
  data::GeneratorSpec spec;
  spec.n = 1000;
  spec.d = 1;
  spec.dist = data::Distribution::kUnivariateRandom;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 3;
  opts.threads = 2;
  opts.max_iters = 50;
  const Result res = GetParam().run(m.const_view(), opts);
  EXPECT_GT(res.energy, 0.0);
  EXPECT_EQ(res.assignments.size(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, DegenerateTest,
    ::testing::Values(EngineCase{"serial", &lloyd_serial},
                      EngineCase{"knori", &run_knori},
                      EngineCase{"locked", &lloyd_locked},
                      EngineCase{"elkan", &elkan_ti},
                      EngineCase{"gemm", &gemm_kmeans}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(Knori, EmptyDatasetThrows) {
  DenseMatrix empty;
  Options opts;
  EXPECT_THROW(kmeans(empty.const_view(), opts), std::invalid_argument);
}

TEST(Knori, MoreThreadsThanRows) {
  data::GeneratorSpec spec;
  spec.n = 7;
  spec.d = 2;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 2;
  opts.threads = 16;
  opts.max_iters = 10;
  const Result res = kmeans(m.const_view(), opts);
  EXPECT_EQ(res.assignments.size(), 7u);
  EXPECT_TRUE(res.converged);
}

TEST(Knori, ToleranceTerminatesEarly) {
  data::GeneratorSpec spec;
  spec.n = 5000;
  spec.d = 8;
  spec.dist = data::Distribution::kUniformRandom;
  const DenseMatrix m = data::generate(spec);
  Options strict, loose;
  strict.k = loose.k = 8;
  strict.threads = loose.threads = 2;
  strict.max_iters = loose.max_iters = 200;
  loose.tolerance = 0.05;  // stop at <= 5% membership churn
  const Result exact = kmeans(m.const_view(), strict);
  const Result early = kmeans(m.const_view(), loose);
  EXPECT_LT(early.iters, exact.iters);
  EXPECT_TRUE(early.converged);
}

TEST(Knori, CountersAreConsistent) {
  data::GeneratorSpec spec;
  spec.n = 4000;
  spec.d = 6;
  spec.true_clusters = 6;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 6;
  opts.threads = 3;
  opts.max_iters = 30;
  const Result res = kmeans(m.const_view(), opts);
  // Every point touched every iteration: local+remote accesses == n*iters.
  EXPECT_EQ(res.counters.local_accesses + res.counters.remote_accesses,
            static_cast<std::uint64_t>(4000) * res.iters);
  // With pruning, fewer distances than the naive n*k*iters.
  EXPECT_LT(res.counters.dist_computations,
            static_cast<std::uint64_t>(4000) * 6 * res.iters);
  EXPECT_GT(res.counters.clause1_skips, 0u);
  // Scheduler stats cover all tasks.
  EXPECT_GT(res.counters.tasks_own, 0u);
}

// knori runs over the caller's rows in place on a single-node host and over
// a partition copy on a multi-node one. Both adapters must drive the engine
// to the same bits: rows, node map (here a simulated 2-node topology whose
// 3 thread blocks split n unevenly), locality counters and scheduling.
TEST(Knori, InPlaceViewMatchesPartitionCopyBitwise) {
  data::GeneratorSpec spec;
  spec.n = 3001;  // not a multiple of T
  spec.d = 7;
  spec.true_clusters = 5;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 5;
  opts.threads = 3;
  opts.numa_nodes = 2;
  opts.max_iters = 12;
  opts.sched = sched::SchedPolicy::kStatic;  // task counters are exact
  const numa::Topology topo = numa::Topology::simulated(opts.numa_nodes);
  const numa::Partitioner parts(m.rows(), opts.threads, topo);
  const DenseMatrix init = init_centroids(m.const_view(), opts);

  Result copied, in_place;
  {
    sched::Scheduler sched(opts.threads, topo, /*bind=*/false, opts.sched);
    const data::NumaDataset ds(m.const_view(), parts, sched);
    copied = detail::run_parallel_lloyd(detail::NumaData{&ds}, m.rows(),
                                        m.cols(), opts, init, sched, parts);
  }
  {
    sched::Scheduler sched(opts.threads, topo, /*bind=*/false, opts.sched);
    in_place = detail::run_parallel_lloyd(
        detail::PartitionedView{m.const_view(), &parts}, m.rows(), m.cols(),
        opts, init, sched, parts);
  }
  ASSERT_EQ(copied.iters, in_place.iters);
  ASSERT_EQ(copied.centroids.rows(), in_place.centroids.rows());
  EXPECT_EQ(std::memcmp(copied.centroids.data(), in_place.centroids.data(),
                        copied.centroids.rows() * copied.centroids.cols() *
                            sizeof(value_t)),
            0);
  EXPECT_EQ(copied.assignments, in_place.assignments);
  EXPECT_EQ(std::memcmp(&copied.energy, &in_place.energy, sizeof(double)), 0);
  const Counters& a = copied.counters;
  const Counters& b = in_place.counters;
  EXPECT_EQ(a.dist_computations, b.dist_computations);
  EXPECT_EQ(a.clause1_skips, b.clause1_skips);
  EXPECT_EQ(a.clause2_skips, b.clause2_skips);
  EXPECT_EQ(a.clause3_skips, b.clause3_skips);
  EXPECT_EQ(a.local_accesses, b.local_accesses);
  EXPECT_EQ(a.remote_accesses, b.remote_accesses);
  EXPECT_EQ(a.tasks_own, b.tasks_own);
  EXPECT_EQ(a.tasks_same_node, b.tasks_same_node);
  EXPECT_EQ(a.tasks_remote_node, b.tasks_remote_node);
  // The simulated second node is real to the accounting: some reads are
  // remote, and every row is read every iteration.
  EXPECT_GT(b.remote_accesses, 0u);
  EXPECT_EQ(b.local_accesses + b.remote_accesses,
            static_cast<std::uint64_t>(m.rows()) * in_place.iters);
}

TEST(Minibatch, ReducesEnergyTowardExact) {
  data::GeneratorSpec spec;
  spec.n = 8000;
  spec.d = 6;
  spec.true_clusters = 8;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 8;
  opts.seed = 21;
  MinibatchOptions mb;
  mb.batch_size = 512;
  mb.max_iters = 150;
  const Result approx = minibatch(m.const_view(), opts, mb);
  const Result exact = lloyd_serial(m.const_view(), opts);
  // Approximation within 2x of the exact solution's energy on easy data.
  EXPECT_LT(approx.energy, 2.0 * exact.energy);
  index_t total = 0;
  for (index_t s : approx.cluster_sizes) total += s;
  EXPECT_EQ(total, 8000u);
}

TEST(Minibatch, MatchesPerSampleUpdateOracle) {
  // The per-sample mini-batch update (Sculley, WWW'10), written out: each
  // batch is assigned against frozen centroids, then every sample moves
  // its centre by eta = 1/count. minibatch() computes the same running
  // means through a decay-1 StreamEngine, so the two agree up to FP
  // association on the same init and sampler stream.
  data::GeneratorSpec spec;
  spec.n = 3000;
  spec.d = 5;
  spec.true_clusters = 6;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 6;
  opts.seed = 9;
  opts.threads = 2;
  MinibatchOptions mb;
  mb.batch_size = 200;
  mb.max_iters = 25;
  const Result res = minibatch(m.const_view(), opts, mb);

  const kernels::Ops& K = kernels::ops_for(opts.simd);
  DenseMatrix cur = init_centroids(m.const_view(), opts);
  std::vector<index_t> counts(static_cast<std::size_t>(opts.k), 0);
  std::vector<index_t> batch(mb.batch_size);
  std::vector<cluster_t> assign(mb.batch_size);
  Prng rng(opts.seed, /*stream=*/0xba7c);
  for (int it = 0; it < mb.max_iters; ++it) {
    for (auto& b : batch) b = rng.next_below(m.rows());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      value_t best_sq = K.dist_sq(m.row(batch[i]), cur.row(0), m.cols());
      assign[i] = 0;
      for (int c = 1; c < opts.k; ++c) {
        const value_t sq = K.dist_sq(m.row(batch[i]),
                                     cur.row(static_cast<index_t>(c)),
                                     m.cols());
        if (sq < best_sq) {
          best_sq = sq;
          assign[i] = static_cast<cluster_t>(c);
        }
      }
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      value_t* centre = cur.row(assign[i]);
      const value_t eta = value_t(1) / static_cast<value_t>(++counts[assign[i]]);
      for (index_t j = 0; j < m.cols(); ++j)
        centre[j] += eta * (m.row(batch[i])[j] - centre[j]);
    }
  }

  EXPECT_EQ(res.iters, 25u);
  EXPECT_EQ(res.counters.dist_computations, (25u * 200u + 3000u) * 6u);
  for (index_t c = 0; c < cur.rows(); ++c)
    for (index_t j = 0; j < cur.cols(); ++j)
      EXPECT_NEAR(res.centroids.at(c, j), cur.at(c, j),
                  1e-9 * (1.0 + std::fabs(cur.at(c, j))))
          << "c=" << c << " j=" << j;
}

TEST(Result, SummaryMentionsKeyFields) {
  data::GeneratorSpec spec;
  spec.n = 100;
  spec.d = 2;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 2;
  opts.threads = 1;
  const Result res = kmeans(m.const_view(), opts);
  const std::string s = res.summary();
  EXPECT_NE(s.find("iters="), std::string::npos);
  EXPECT_NE(s.find("energy="), std::string::npos);
}

}  // namespace
}  // namespace knor

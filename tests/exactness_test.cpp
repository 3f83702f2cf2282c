// Exactness properties: every exact engine in the library must produce the
// same clustering as the serial Lloyd's reference — same iteration count,
// same assignments, same energy (to FP-reduction tolerance) — across a
// parameterized sweep of datasets, k, and thread counts. These are the
// tests that license the word "algorithmically identical" used throughout
// the paper's evaluation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/engines.hpp"
#include "core/knori.hpp"
#include "data/generator.hpp"
#include "numa/partitioner.hpp"

namespace knor {
namespace {

struct SweepParam {
  data::Distribution dist;
  index_t n;
  index_t d;
  int k;
  int threads;
  std::uint64_t seed;
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto& p = info.param;
  std::string dist = p.dist == data::Distribution::kNaturalClusters ? "nat"
                     : p.dist == data::Distribution::kUniformRandom ? "uni"
                                                                    : "gauss";
  return dist + "_n" + std::to_string(p.n) + "_d" + std::to_string(p.d) +
         "_k" + std::to_string(p.k) + "_t" + std::to_string(p.threads) +
         "_s" + std::to_string(p.seed);
}

class ExactnessSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  void SetUp() override {
    const auto& p = GetParam();
    data::GeneratorSpec spec;
    spec.dist = p.dist;
    spec.n = p.n;
    spec.d = p.d;
    spec.seed = p.seed;
    spec.true_clusters = std::max(2, p.k);
    data_ = data::generate(spec);
    opts_.k = p.k;
    opts_.threads = p.threads;
    opts_.max_iters = 60;
    opts_.seed = p.seed * 7 + 1;
    opts_.numa_nodes = 2;  // simulated 2-node topology
    ref_ = lloyd_serial(data_.const_view(), opts_);
  }

  void expect_same_clustering(const Result& res, const char* what,
                              double assign_slack = 0.0) {
    EXPECT_EQ(res.iters, ref_.iters) << what;
    EXPECT_EQ(res.converged, ref_.converged) << what;
    const double rel =
        std::abs(res.energy - ref_.energy) / std::max(1e-30, ref_.energy);
    EXPECT_LT(rel, 1e-9) << what;
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < ref_.assignments.size(); ++i)
      if (res.assignments[i] != ref_.assignments[i]) ++mismatched;
    const auto allowed = static_cast<std::size_t>(
        assign_slack * static_cast<double>(ref_.assignments.size()));
    EXPECT_LE(mismatched, allowed) << what;
    EXPECT_EQ(res.cluster_sizes.size(), ref_.cluster_sizes.size()) << what;
  }

  DenseMatrix data_;
  Options opts_;
  Result ref_;
};

TEST_P(ExactnessSweep, ParallelMatchesSerial) {
  Options opts = opts_;
  opts.prune = false;
  expect_same_clustering(kmeans(data_.const_view(), opts), "knori-");
}

TEST_P(ExactnessSweep, MtiPruningPreservesClustering) {
  Options opts = opts_;
  opts.prune = true;
  const Result res = kmeans(data_.const_view(), opts);
  expect_same_clustering(res, "knori");
  // And pruning must actually prune (beyond trivial sizes).
  if (GetParam().n >= 1000 && GetParam().k > 1) {
    EXPECT_LT(res.counters.dist_computations,
              static_cast<std::uint64_t>(GetParam().n) * GetParam().k *
                  res.iters);
  }
}

TEST_P(ExactnessSweep, NumaObliviousMatchesSerial) {
  Options opts = opts_;
  opts.numa_aware = false;
  expect_same_clustering(kmeans(data_.const_view(), opts), "oblivious");
}

TEST_P(ExactnessSweep, LockedBaselineMatchesSerial) {
  expect_same_clustering(lloyd_locked(data_.const_view(), opts_), "locked");
}

TEST_P(ExactnessSweep, ElkanTiMatchesSerial) {
  expect_same_clustering(elkan_ti(data_.const_view(), opts_), "elkan");
}

TEST_P(ExactnessSweep, GemmMatchesSerial) {
  // The algebraic formulation reorders FP ops; permit a vanishing fraction
  // of tie-flips on top of the energy agreement.
  expect_same_clustering(gemm_kmeans(data_.const_view(), opts_), "gemm",
                         /*assign_slack=*/0.001);
}

TEST_P(ExactnessSweep, GemmTileShapeAndThreadGridBitwiseInvariant) {
  // --gemm-tile is a pure performance knob and threads never change the
  // reduction shape: every (tile, T) cell must reproduce the first cell's
  // centroids, assignments and energy BITWISE (real-valued data — no
  // integer-exactness crutch; this is per-ISA self-determinism).
  Result first;
  bool have_first = false;
  for (const char* tile : {"auto", "1x8", "3x16", "128x512"}) {
    for (const int threads : {1, 4}) {
      Options opts = opts_;
      opts.threads = threads;
      opts.gemm_tile = parse_gemm_tile_or_throw(tile, "tile");
      Result res = gemm_kmeans(data_.const_view(), opts);
      if (!have_first) {
        first = std::move(res);
        have_first = true;
        continue;
      }
      const std::string what =
          std::string("gemm tile=") + tile + " T=" + std::to_string(threads);
      ASSERT_EQ(res.iters, first.iters) << what;
      EXPECT_EQ(res.assignments, first.assignments) << what;
      EXPECT_EQ(res.cluster_sizes, first.cluster_sizes) << what;
      EXPECT_EQ(std::memcmp(res.centroids.data(), first.centroids.data(),
                            first.centroids.size() * sizeof(value_t)),
                0)
          << what << ": centroids differ bitwise";
      EXPECT_EQ(std::memcmp(&res.energy, &first.energy, sizeof(double)), 0)
          << what;
    }
  }

  // Simulated two-node topology at T = 3 with 41-row chunks: chunks
  // straddle thread blocks, so the driver hands the GEMM step runs cut at
  // segment boundaries. Against T = 1 on the same chunk grid (one block,
  // whole-chunk runs) nothing may move.
  Options opts = opts_;
  opts.numa_nodes = 2;
  opts.task_size = 41;
  opts.threads = 3;
  const numa::Partitioner parts(data_.rows(), opts.threads,
                                numa::Topology::simulated(opts.numa_nodes));
  ASSERT_NE(parts.thread_rows(0).end % opts.task_size, 0u)
      << "no chunk straddles the first thread block";
  const Result split = gemm_kmeans(data_.const_view(), opts);
  opts.threads = 1;
  const Result whole = gemm_kmeans(data_.const_view(), opts);
  ASSERT_EQ(split.iters, whole.iters);
  EXPECT_EQ(split.assignments, whole.assignments);
  EXPECT_EQ(split.cluster_sizes, whole.cluster_sizes);
  EXPECT_EQ(std::memcmp(split.centroids.data(), whole.centroids.data(),
                        whole.centroids.size() * sizeof(value_t)),
            0)
      << "split runs: centroids differ bitwise";
  EXPECT_EQ(std::memcmp(&split.energy, &whole.energy, sizeof(double)), 0)
      << "split runs: energy differs bitwise";
}

TEST_P(ExactnessSweep, SchedulerPoliciesAgree) {
  for (const auto policy :
       {sched::SchedPolicy::kFifo, sched::SchedPolicy::kStatic}) {
    Options opts = opts_;
    opts.sched = policy;
    expect_same_clustering(kmeans(data_.const_view(), opts),
                           sched::to_string(policy));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactnessSweep,
    ::testing::Values(
        SweepParam{data::Distribution::kNaturalClusters, 2000, 8, 5, 4, 1},
        SweepParam{data::Distribution::kNaturalClusters, 5000, 16, 10, 3, 2},
        SweepParam{data::Distribution::kNaturalClusters, 1000, 4, 2, 8, 3},
        SweepParam{data::Distribution::kNaturalClusters, 3000, 32, 20, 2, 4},
        SweepParam{data::Distribution::kUniformRandom, 2000, 8, 8, 4, 5},
        SweepParam{data::Distribution::kUniformRandom, 1500, 3, 4, 5, 6},
        SweepParam{data::Distribution::kUnivariateRandom, 2500, 6, 6, 4, 7},
        SweepParam{data::Distribution::kNaturalClusters, 513, 7, 3, 7, 8},
        SweepParam{data::Distribution::kNaturalClusters, 4096, 2, 12, 4, 9}),
    param_name);

// --- Invariant checks beyond clustering equality ---------------------------

TEST(Invariants, EnergyMonotoneNonIncreasingUnderLloydSteps) {
  // Run iteration-by-iteration via kProvided init and verify the energy
  // sequence never increases (a defining property of Lloyd's).
  data::GeneratorSpec spec;
  spec.n = 3000;
  spec.d = 8;
  spec.true_clusters = 6;
  const DenseMatrix m = data::generate(spec);

  Options opts;
  opts.k = 6;
  opts.threads = 2;
  opts.max_iters = 1;
  opts.seed = 5;
  double prev_energy = std::numeric_limits<double>::infinity();
  DenseMatrix centroids;
  for (int step = 0; step < 15; ++step) {
    if (step > 0) {
      opts.init = Init::kProvided;
      opts.initial_centroids = centroids;
    }
    Result res = kmeans(m.const_view(), opts);
    EXPECT_LE(res.energy, prev_energy * (1 + 1e-12)) << "step " << step;
    prev_energy = res.energy;
    centroids = std::move(res.centroids);
  }
}

TEST(Invariants, MtiUpperBoundsAreTrueBounds) {
  // After any iteration, each point's recorded distance to its assigned
  // centroid must be <= the running MTI upper bound. We verify indirectly:
  // pruned and unpruned runs agree per iteration (same iters/assignments),
  // which can only hold if the bounds never under-estimate.
  data::GeneratorSpec spec;
  spec.n = 4000;
  spec.d = 12;
  spec.true_clusters = 9;
  const DenseMatrix m = data::generate(spec);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Options a, b;
    a.k = b.k = 9;
    a.threads = b.threads = 4;
    a.max_iters = b.max_iters = 40;
    a.seed = b.seed = seed;
    a.prune = true;
    b.prune = false;
    const Result pruned = kmeans(m.const_view(), a);
    const Result full = kmeans(m.const_view(), b);
    ASSERT_EQ(pruned.iters, full.iters) << seed;
    for (std::size_t i = 0; i < pruned.assignments.size(); ++i)
      ASSERT_EQ(pruned.assignments[i], full.assignments[i])
          << "seed " << seed << " row " << i;
  }
}

TEST(Invariants, ClusterSizesSumToN) {
  data::GeneratorSpec spec;
  spec.n = 2500;
  spec.d = 5;
  const DenseMatrix m = data::generate(spec);
  Options opts;
  opts.k = 7;
  opts.threads = 3;
  const Result res = kmeans(m.const_view(), opts);
  index_t total = 0;
  for (index_t s : res.cluster_sizes) total += s;
  EXPECT_EQ(total, 2500u);
}

TEST(Invariants, ThreadCountDoesNotChangeResultBitwise) {
  // The per-chunk reduction is keyed to the (n, task_size) chunk grid and
  // folded with a fixed tree, so centroids and energy must be *bitwise*
  // identical across thread counts — not merely close.
  data::GeneratorSpec spec;
  spec.n = 3000;
  spec.d = 10;
  spec.true_clusters = 8;
  const DenseMatrix m = data::generate(spec);
  Options base;
  base.k = 8;
  base.threads = 1;
  base.max_iters = 40;
  const Result one = kmeans(m.const_view(), base);
  for (int threads : {2, 3, 5, 8}) {
    Options opts = base;
    opts.threads = threads;
    const Result res = kmeans(m.const_view(), opts);
    EXPECT_EQ(res.iters, one.iters) << threads;
    EXPECT_EQ(res.energy, one.energy) << threads;  // bitwise
    ASSERT_EQ(res.assignments, one.assignments) << threads;
    ASSERT_EQ(std::memcmp(res.centroids.data(), one.centroids.data(),
                          one.centroids.size() * sizeof(value_t)),
              0)
        << threads;
  }
}

TEST(Invariants, SeedChangesInitButNotValidity) {
  data::GeneratorSpec spec;
  spec.n = 2000;
  spec.d = 4;
  spec.true_clusters = 4;
  const DenseMatrix m = data::generate(spec);
  double first_energy = -1;
  bool any_different = false;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Options opts;
    opts.k = 4;
    opts.threads = 2;
    opts.seed = seed;
    const Result res = kmeans(m.const_view(), opts);
    index_t total = 0;
    for (index_t s : res.cluster_sizes) total += s;
    EXPECT_EQ(total, 2000u);
    if (first_energy < 0)
      first_energy = res.energy;
    else if (std::abs(res.energy - first_energy) > 1e-9)
      any_different = true;
  }
  (void)any_different;  // different seeds may or may not reach local optima
}

}  // namespace
}  // namespace knor

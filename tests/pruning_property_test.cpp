// Property tests for the pruning paths: on randomized generator datasets,
// MTI-pruned ||Lloyd's (knori), the same pruned-assign step under knors
// (semi-external memory) and knord (ranks), and Elkan's full triangle-
// inequality algorithm must reproduce unpruned serial Lloyd's EXACTLY —
// identical assignments and iteration counts for every seed — and the
// energy of every exact engine must be monotone non-increasing along the
// iteration sequence. Pruning bugs (a bound that under-estimates, a drift
// applied in the wrong direction, a stale or mis-sorted neighbour list, a
// prefix cut one entry short) show up here as a flipped assignment on some
// seed long before they corrupt a benchmark.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>

#include "common/prng.hpp"
#include "core/engines.hpp"
#include "core/knori.hpp"
#include "data/generator.hpp"
#include "data/matrix_io.hpp"
#include "dist/knord.hpp"
#include "sem/sem_kmeans.hpp"

namespace knor {
namespace {

struct RandomCase {
  data::GeneratorSpec spec;
  Options opts;
};

/// Randomized-but-reproducible case: dataset shape, k, threads and engine
/// seed all drawn from the case seed.
RandomCase make_case(std::uint64_t seed) {
  Prng rng(seed, /*stream=*/0x9daf);
  RandomCase c;
  c.spec.dist = seed % 3 == 0 ? data::Distribution::kUniformRandom
                              : data::Distribution::kNaturalClusters;
  c.spec.n = 300 + rng.next_below(1200);
  c.spec.d = 2 + rng.next_below(14);
  c.spec.true_clusters = 2 + static_cast<int>(rng.next_below(8));
  c.spec.separation = 4.0 + static_cast<double>(rng.next_below(8));
  c.spec.seed = seed * 1000003 + 17;
  c.opts.k = 2 + static_cast<int>(rng.next_below(10));
  c.opts.threads = 1 + static_cast<int>(rng.next_below(6));
  c.opts.max_iters = 40;
  c.opts.seed = seed * 31 + 5;
  c.opts.numa_nodes = 2;
  return c;
}

TEST(PruningProperty, MtiAndElkanMatchSerialOn50Seeds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const RandomCase c = make_case(seed);
    const DenseMatrix m = data::generate(c.spec);

    Options serial_opts = c.opts;
    serial_opts.prune = false;
    const Result ref = lloyd_serial(m.const_view(), serial_opts);

    Options mti_opts = c.opts;
    mti_opts.prune = true;
    const Result mti = kmeans(m.const_view(), mti_opts);
    ASSERT_EQ(mti.iters, ref.iters) << "mti seed " << seed;
    ASSERT_EQ(mti.assignments, ref.assignments) << "mti seed " << seed;
    ASSERT_EQ(mti.cluster_sizes, ref.cluster_sizes) << "mti seed " << seed;

    const Result elkan = elkan_ti(m.const_view(), c.opts);
    ASSERT_EQ(elkan.iters, ref.iters) << "elkan seed " << seed;
    ASSERT_EQ(elkan.assignments, ref.assignments) << "elkan seed " << seed;

    // Pruning must never cost extra distances (MTI's worst case per point
    // is the same k as a full scan), and on clustered data it must
    // strictly prune once the clustering stabilizes.
    if (ref.iters > 2) {
      const std::uint64_t full = static_cast<std::uint64_t>(c.spec.n) *
                                 static_cast<std::uint64_t>(c.opts.k) *
                                 ref.iters;
      EXPECT_LE(mti.counters.dist_computations, full) << "seed " << seed;
      EXPECT_LE(elkan.counters.dist_computations, full) << "seed " << seed;
      if (c.spec.dist == data::Distribution::kNaturalClusters) {
        EXPECT_LT(mti.counters.dist_computations, full) << "seed " << seed;
        EXPECT_LT(elkan.counters.dist_computations, full) << "seed " << seed;
      }
    }
  }
}

// knors runs the shared pruned-assign step on rows fetched through the
// page cache / row cache / prefetch ring: tiny caches and batches force
// every path (hits, refreshes, double-buffered fetches).
TEST(PruningProperty, SemMtiMatchesSerial) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("knor_prune_prop_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "m.kmat").string();
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const RandomCase c = make_case(seed);
    data::write_matrix(path, data::generate(c.spec));
    const DenseMatrix m = data::read_matrix(path);

    Options serial_opts = c.opts;
    serial_opts.prune = false;
    const Result ref = lloyd_serial(m.const_view(), serial_opts);

    Options sem_opts = c.opts;
    sem_opts.prune = true;
    sem::SemOptions so;
    so.page_size = 512;
    so.page_cache_bytes = 8 << 10;
    so.row_cache_bytes = 4 << 10;
    so.cache_update_interval = 2;
    so.io_batch_rows = 64;
    const Result got = sem::kmeans(path, sem_opts, so);
    ASSERT_EQ(got.iters, ref.iters) << "sem seed " << seed;
    ASSERT_EQ(got.assignments, ref.assignments) << "sem seed " << seed;
    ASSERT_EQ(got.cluster_sizes, ref.cluster_sizes) << "sem seed " << seed;
    EXPECT_EQ(got.thread_busy_s.size(),
              static_cast<std::size_t>(c.opts.threads));
  }
  std::filesystem::remove_all(dir);
}

// knord inherits the pruned-assign step through each rank's engine; the
// per-rank bounds and neighbour lists must agree with the global clustering.
TEST(PruningProperty, DistMtiMatchesSerial) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const RandomCase c = make_case(seed);
    const DenseMatrix m = data::generate(c.spec);

    Options serial_opts = c.opts;
    serial_opts.prune = false;
    const Result ref = lloyd_serial(m.const_view(), serial_opts);

    Options dist_opts = c.opts;
    dist_opts.prune = true;
    dist::DistOptions dopts;
    dopts.ranks = 2 + static_cast<int>(seed % 2);
    dopts.threads_per_rank = 1 + static_cast<int>(seed % 3 == 0);
    const Result got = dist::kmeans(m.const_view(), dist_opts, dopts);
    ASSERT_EQ(got.iters, ref.iters) << "dist seed " << seed;
    ASSERT_EQ(got.assignments, ref.assignments) << "dist seed " << seed;
    ASSERT_EQ(got.cluster_sizes, ref.cluster_sizes) << "dist seed " << seed;
  }
}

/// Energy after 1..steps Lloyd iterations: re-runs with growing max_iters
/// share their iteration prefix because the engines are deterministic, so
/// the sequence is exactly the per-iteration energy trajectory.
template <typename Engine>
std::vector<double> energy_trajectory(const DenseMatrix& m,
                                      const Options& base, int steps,
                                      Engine&& engine) {
  std::vector<double> energies;
  Options opts = base;
  for (int it = 1; it <= steps; ++it) {
    opts.max_iters = it;
    const Result res = engine(m.const_view(), opts);
    energies.push_back(res.energy);
    if (res.converged) break;
  }
  return energies;
}

TEST(PruningProperty, EnergyMonotoneNonIncreasingPerIteration) {
  // The defining property of Lloyd steps, checked per iteration for the
  // pruned engines as well — a loose bound that mis-assigns a point shows
  // up as an energy increase even when the run still "converges".
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RandomCase c = make_case(seed);
    const DenseMatrix m = data::generate(c.spec);
    Options base = c.opts;
    base.max_iters = 12;

    const auto check = [&](const std::vector<double>& e, const char* what) {
      ASSERT_FALSE(e.empty()) << what;
      for (std::size_t i = 1; i < e.size(); ++i)
        EXPECT_LE(e[i], e[i - 1] * (1 + 1e-12))
            << what << " seed " << seed << " iter " << i;
    };

    Options mti_opts = base;
    mti_opts.prune = true;
    check(energy_trajectory(m, mti_opts, 12,
                            [](ConstMatrixView v, const Options& o) {
                              return kmeans(v, o);
                            }),
          "mti");
    check(energy_trajectory(m, base, 12,
                            [](ConstMatrixView v, const Options& o) {
                              return elkan_ti(v, o);
                            }),
          "elkan");
    check(energy_trajectory(m, base, 12,
                            [](ConstMatrixView v, const Options& o) {
                              return lloyd_serial(v, o);
                            }),
          "serial");
  }
}

}  // namespace
}  // namespace knor

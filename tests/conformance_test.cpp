// Cross-backend conformance oracle: the same dataset, seed and starting
// centroids pushed through every backend — knori (in-memory, all policies
// and thread counts), knors (semi-external memory), and knord (distributed,
// 1..4 ranks) plus the flat MPI baseline — must produce IDENTICAL
// centroids (bitwise), assignments, cluster sizes and iteration counts.
// This is the diff target future refactors of any hot path run against.
//
// Why bitwise equality is attainable across backends: the dataset is
// integer-valued (generated, then rounded), so every centroid-sum partial
// is an exactly-representable double and FP addition is associative over
// them — any grouping (per-chunk fold, per-rank allreduce) yields the same
// exact sums, the same quotients sum/count, and therefore the same centroid
// doubles everywhere. Within a single backend the per-chunk reduction makes
// results bitwise stable even on non-integer data (tests/exactness_test.cpp
// pins that); integer data extends the guarantee across backends with
// different reduction shapes. knors and knori share one driver and one
// reduction shape, so they must agree bitwise on non-integer data too.
// Energy is a sum of distances to *fractional* centroids, so it is only
// compared to 1e-12 relative tolerance.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/engines.hpp"
#include "core/knori.hpp"
#include "data/generator.hpp"
#include "data/matrix_io.hpp"
#include "dist/knord.hpp"
#include "sem/sem_kmeans.hpp"

namespace knor {
namespace {

constexpr index_t kN = 1200;
constexpr index_t kD = 6;
constexpr int kK = 5;

DenseMatrix integer_dataset() {
  data::GeneratorSpec spec;
  spec.n = kN;
  spec.d = kD;
  spec.true_clusters = kK;
  spec.separation = 9.0;
  spec.seed = 20170627;  // HPDC'17
  DenseMatrix m = data::generate(spec);
  for (index_t r = 0; r < m.rows(); ++r)
    for (index_t c = 0; c < m.cols(); ++c)
      m.at(r, c) = std::round(m.at(r, c));
  return m;
}

/// Deterministic integer starting centroids: k rows spread over the data.
DenseMatrix initial_centroids(const DenseMatrix& m) {
  DenseMatrix init(static_cast<index_t>(kK), kD);
  for (int c = 0; c < kK; ++c) {
    const index_t r = (m.rows() * static_cast<index_t>(c)) /
                          static_cast<index_t>(kK) +
                      7;  // off the block boundary
    std::memcpy(init.row(static_cast<index_t>(c)), m.row(r),
                kD * sizeof(value_t));
  }
  return init;
}

Options base_options(const DenseMatrix& init) {
  Options opts;
  opts.k = kK;
  opts.max_iters = 60;
  opts.init = Init::kProvided;
  opts.initial_centroids = init;
  opts.numa_nodes = 2;  // simulated 2-node topology everywhere
  return opts;
}

class ConformanceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new DenseMatrix(integer_dataset());
    init_ = new DenseMatrix(initial_centroids(*data_));
    Options opts = base_options(*init_);
    ref_ = new Result(lloyd_serial(data_->const_view(), opts));
    // The oracle must be non-trivial: actual iterations and convergence.
    ASSERT_TRUE(ref_->converged);
    ASSERT_GT(ref_->iters, 2u);
  }
  static void TearDownTestSuite() {
    delete data_;
    delete init_;
    delete ref_;
    data_ = nullptr;
    init_ = nullptr;
    ref_ = nullptr;
  }

  void expect_identical(const Result& res, const std::string& what) {
    EXPECT_EQ(res.iters, ref_->iters) << what;
    EXPECT_EQ(res.converged, ref_->converged) << what;
    ASSERT_EQ(res.assignments.size(), ref_->assignments.size()) << what;
    ASSERT_EQ(res.assignments, ref_->assignments) << what;
    EXPECT_EQ(res.cluster_sizes, ref_->cluster_sizes) << what;
    ASSERT_EQ(res.centroids.rows(), ref_->centroids.rows()) << what;
    ASSERT_EQ(res.centroids.cols(), ref_->centroids.cols()) << what;
    EXPECT_EQ(std::memcmp(res.centroids.data(), ref_->centroids.data(),
                          ref_->centroids.size() * sizeof(value_t)),
              0)
        << what << ": centroids differ bitwise";
    const double rel = std::abs(res.energy - ref_->energy) /
                       std::max(1e-30, ref_->energy);
    EXPECT_LT(rel, 1e-12) << what;
  }

  static DenseMatrix* data_;
  static DenseMatrix* init_;
  static Result* ref_;
};

DenseMatrix* ConformanceTest::data_ = nullptr;
DenseMatrix* ConformanceTest::init_ = nullptr;
Result* ConformanceTest::ref_ = nullptr;

TEST_F(ConformanceTest, KnoriAcrossThreadsPruningAndPolicies) {
  for (const int threads : {1, 3, 8}) {
    for (const bool prune : {false, true}) {
      Options opts = base_options(*init_);
      opts.threads = threads;
      opts.prune = prune;
      expect_identical(kmeans(data_->const_view(), opts),
                       "knori T=" + std::to_string(threads) +
                           (prune ? " mti" : " full"));
    }
  }
  for (const auto policy :
       {sched::SchedPolicy::kFifo, sched::SchedPolicy::kStatic}) {
    Options opts = base_options(*init_);
    opts.threads = 4;
    opts.sched = policy;
    expect_identical(kmeans(data_->const_view(), opts),
                     std::string("knori policy=") + sched::to_string(policy));
  }
  // Explicit task sizes pick different chunk grids — with integer data the
  // grid must not matter either.
  for (const index_t task_size : {64u, 500u, 8192u}) {
    Options opts = base_options(*init_);
    opts.threads = 4;
    opts.task_size = task_size;
    expect_identical(kmeans(data_->const_view(), opts),
                     "knori task_size=" + std::to_string(task_size));
  }
  Options oblivious = base_options(*init_);
  oblivious.threads = 4;
  oblivious.numa_aware = false;
  expect_identical(kmeans(data_->const_view(), oblivious), "knori oblivious");
}

TEST_F(ConformanceTest, SemMatchesInMemory) {
  const std::string path =
      ::testing::TempDir() + "conformance_integer.kmat";
  data::write_matrix(path, *data_);
  for (const bool prune : {false, true}) {
    for (const bool row_cache : {false, true}) {
      Options opts = base_options(*init_);
      opts.threads = 3;
      opts.prune = prune;
      sem::SemOptions sopts;
      sopts.page_cache_bytes = 1 << 16;  // small: force real I/O paths
      sopts.row_cache_enabled = row_cache;
      sem::SemStats stats;
      expect_identical(sem::kmeans(path, opts, sopts, &stats),
                       std::string("sem") + (prune ? " mti" : " full") +
                           (row_cache ? " +rc" : " -rc"));
    }
  }
  std::remove(path.c_str());

  // Non-integer data: knors runs knori's driver over a file instead of
  // memory — same per-row step, same row order within a chunk, same fold —
  // so everything, energy included, must match bitwise. Small I/O batches
  // and a row cache holding about half the rows interleave cached and
  // fetched rows inside a task.
  data::GeneratorSpec spec;
  spec.n = 20000;
  spec.d = 12;
  spec.true_clusters = 8;
  spec.seed = 17;
  const std::string real_path = ::testing::TempDir() + "conformance_real.kmat";
  data::write_generated(real_path, spec);
  const DenseMatrix real = data::generate(spec);
  for (const bool prune : {false, true}) {
    Options opts;
    opts.k = 8;
    opts.seed = 5;
    opts.max_iters = 15;
    opts.prune = prune;
    opts.threads = 4;
    const Result ref = kmeans(real.const_view(), opts);
    for (const int threads : {1, 4}) {
      for (const bool row_cache : {false, true}) {
        opts.threads = threads;
        sem::SemOptions sopts;
        sopts.page_cache_bytes = 1 << 16;
        sopts.row_cache_enabled = row_cache;
        sopts.io_batch_rows = 16;
        const Result res = sem::kmeans(real_path, opts, sopts);
        const std::string what = std::string("real sem") +
                                 (prune ? " mti" : " full") +
                                 (row_cache ? " +rc" : " -rc") +
                                 " T=" + std::to_string(threads);
        EXPECT_EQ(res.iters, ref.iters) << what;
        ASSERT_EQ(res.assignments, ref.assignments) << what;
        EXPECT_EQ(std::memcmp(res.centroids.data(), ref.centroids.data(),
                              ref.centroids.size() * sizeof(value_t)),
                  0)
            << what << ": centroids differ bitwise";
        EXPECT_EQ(std::memcmp(&res.energy, &ref.energy, sizeof(double)), 0)
            << what << ": energy " << res.energy << " vs " << ref.energy;
      }
    }
  }
  std::remove(real_path.c_str());
}

TEST_F(ConformanceTest, KnordMatchesAcrossRankCounts) {
  for (const int ranks : {1, 2, 3, 4}) {
    Options opts = base_options(*init_);
    dist::DistOptions dopts;
    dopts.ranks = ranks;
    dopts.threads_per_rank = 2;
    expect_identical(dist::kmeans(data_->const_view(), opts, dopts),
                     "knord ranks=" + std::to_string(ranks));
  }
  // The flat MPI baseline reduces with the same collectives.
  Options opts = base_options(*init_);
  dist::DistOptions dopts;
  dopts.ranks = 3;
  expect_identical(dist::mpi_kmeans(data_->const_view(), opts, dopts),
                   "mpi baseline ranks=3");
}

TEST_F(ConformanceTest, GemmTiledMatchesReferenceAcrossIsasAndTiles) {
  // The blocked-GEMM engine computes the argmin through the algebraic
  // identity d^2 = ||x||^2 - 2 x.c + ||c||^2 — on integer data the dots,
  // norms and centroid sums are all exact, so the tiled engine must land
  // on the SAME bitwise centroids as the serial reference for every ISA
  // and every cache-tile shape (DESIGN.md §12: the tile is a pure
  // performance knob, the ISA a bitwise-self-deterministic one).
  for (const kernels::Isa isa : kernels::available_isas()) {
    for (const char* tile :
         {"auto", "1x8", "3x16", "64x8", "8x256", "7x24"}) {
      Options opts = base_options(*init_);
      opts.threads = 3;
      opts.simd = isa;
      opts.gemm_tile = parse_gemm_tile_or_throw(tile, "tile");
      expect_identical(gemm_kmeans(data_->const_view(), opts),
                       std::string("gemm isa=") + kernels::to_string(isa) +
                           " tile=" + tile);
    }
  }
  // And across thread counts / policies at a fixed tile.
  for (const int threads : {1, 2, 8}) {
    Options opts = base_options(*init_);
    opts.threads = threads;
    opts.sched = sched::SchedPolicy::kFifo;
    expect_identical(gemm_kmeans(data_->const_view(), opts),
                     "gemm T=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace knor

// Tests for the future-work variants (paper §9): spherical k-means and
// semi-supervised (seeded) k-means, the schedule invariance they and Elkan
// share on the shared driver, plus the knors checkpoint/resume path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>

#include "core/engines.hpp"
#include "core/knori.hpp"
#include "core/variants.hpp"
#include "data/generator.hpp"
#include "data/matrix_io.hpp"
#include "sem/checkpoint.hpp"
#include "sem/sem_kmeans.hpp"

namespace knor {
namespace {

DenseMatrix sphere_data(index_t n, index_t d, int components,
                        std::uint64_t seed = 3) {
  data::GeneratorSpec spec;
  spec.n = n;
  spec.d = d;
  spec.true_clusters = components;
  spec.separation = 10.0;
  spec.seed = seed;
  return data::generate(spec);
}

TEST(Spherical, CentroidsOnUnitSphere) {
  const DenseMatrix m = sphere_data(3000, 8, 5);
  Options opts;
  opts.k = 5;
  opts.threads = 2;
  opts.max_iters = 30;
  const Result res = spherical_kmeans(m.const_view(), opts);
  for (index_t c = 0; c < res.centroids.rows(); ++c) {
    value_t norm_sq = 0;
    for (index_t j = 0; j < 8; ++j)
      norm_sq += res.centroids.at(c, j) * res.centroids.at(c, j);
    EXPECT_NEAR(norm_sq, 1.0, 1e-9) << "centroid " << c;
  }
}

TEST(Spherical, EnergyIsCosineDissimilarityInRange) {
  const DenseMatrix m = sphere_data(2000, 6, 4);
  Options opts;
  opts.k = 4;
  opts.threads = 2;
  const Result res = spherical_kmeans(m.const_view(), opts);
  // 1 - cos in [0, 2] per point.
  EXPECT_GE(res.energy, 0.0);
  EXPECT_LE(res.energy, 2.0 * 2000);
  index_t total = 0;
  for (index_t s : res.cluster_sizes) total += s;
  EXPECT_EQ(total, 2000u);
}

TEST(Spherical, ScaleInvariant) {
  // Spherical clustering depends only on direction: scaling every row by a
  // positive constant must not change the clustering.
  const DenseMatrix m = sphere_data(2000, 8, 4);
  DenseMatrix scaled_m = m;
  for (std::size_t i = 0; i < scaled_m.size(); ++i) scaled_m.data()[i] *= 37.5;
  Options opts;
  opts.k = 4;
  opts.threads = 2;
  opts.max_iters = 25;
  const Result a = spherical_kmeans(m.const_view(), opts);
  const Result b = spherical_kmeans(scaled_m.const_view(), opts);
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (std::size_t i = 0; i < a.assignments.size(); ++i)
    ASSERT_EQ(a.assignments[i], b.assignments[i]) << i;
}

/// Fits with `fit` at T in {1, 4} under every scheduler policy and
/// requires iterations, assignments, centroids and energy bitwise equal to
/// the T = 1 work-stealing run: the shared driver's per-chunk sums and
/// chunk-ordered energy leave nothing to the schedule.
template <typename Fit>
void expect_schedule_invariant(Options opts, Fit&& fit) {
  opts.threads = 1;
  opts.sched = sched::SchedPolicy::kNumaAware;
  const Result ref = fit(opts);
  for (const auto policy :
       {sched::SchedPolicy::kNumaAware, sched::SchedPolicy::kFifo,
        sched::SchedPolicy::kStatic})
    for (const int threads : {1, 4}) {
      opts.sched = policy;
      opts.threads = threads;
      const Result res = fit(opts);
      const std::string what =
          std::string(sched::to_string(policy)) + " T=" +
          std::to_string(threads);
      EXPECT_EQ(res.iters, ref.iters) << what;
      EXPECT_EQ(res.assignments, ref.assignments) << what;
      ASSERT_EQ(res.centroids.size(), ref.centroids.size()) << what;
      EXPECT_EQ(std::memcmp(res.centroids.data(), ref.centroids.data(),
                            ref.centroids.size() * sizeof(value_t)),
                0)
          << what;
      EXPECT_EQ(std::memcmp(&res.energy, &ref.energy, sizeof(double)), 0)
          << what;
    }
}

TEST(Spherical, ThreadCountInvariant) {
  const DenseMatrix m = sphere_data(3000, 8, 5);
  Options opts;
  opts.k = 5;
  opts.max_iters = 30;
  expect_schedule_invariant(opts, [&](const Options& o) {
    return spherical_kmeans(m.const_view(), o);
  });
}

TEST(Spherical, ZeroRowRejected) {
  DenseMatrix m(10, 3);  // all zeros
  Options opts;
  opts.k = 2;
  EXPECT_THROW(spherical_kmeans(m.const_view(), opts), std::invalid_argument);
}

TEST(Seeded, LabeledPointsNeverMove) {
  const DenseMatrix m = sphere_data(4000, 6, 4);
  std::vector<cluster_t> labels(4000, kInvalidCluster);
  // Label every 10th point with an arbitrary (even adversarial) cluster.
  for (index_t r = 0; r < 4000; r += 10)
    labels[r] = static_cast<cluster_t>(r / 10 % 4);
  Options opts;
  opts.k = 4;
  opts.threads = 2;
  opts.max_iters = 40;
  const Result res = seeded_kmeans(m.const_view(), opts, labels);
  for (index_t r = 0; r < 4000; ++r) {
    if (labels[r] != kInvalidCluster) {
      ASSERT_EQ(res.assignments[r], labels[r]) << r;
    }
  }
}

TEST(Seeded, NoLabelsBehavesLikeKmeans) {
  const DenseMatrix m = sphere_data(3000, 8, 5);
  const std::vector<cluster_t> labels(3000, kInvalidCluster);
  Options opts;
  opts.k = 5;
  opts.threads = 2;
  opts.max_iters = 50;
  const Result seeded = seeded_kmeans(m.const_view(), opts, labels);
  const Result plain = kmeans(m.const_view(), opts);
  // Different init paths may reach different local optima; both must be
  // valid clusterings with comparable energy on easy data.
  EXPECT_LT(seeded.energy, 3 * plain.energy);
  index_t total = 0;
  for (index_t s : seeded.cluster_sizes) total += s;
  EXPECT_EQ(total, 3000u);
}

TEST(Seeded, SeedsGuideClusterIdentity) {
  // Plant 6 components and seed cluster c with points from component c.
  // The recovered clustering must map component c to cluster c (no label
  // permutation ambiguity — the point of semi-supervision).
  data::GeneratorSpec spec;
  spec.n = 6000;
  spec.d = 8;
  spec.true_clusters = 6;
  spec.separation = 12.0;
  const DenseMatrix m = data::generate(spec);
  std::vector<cluster_t> labels(6000, kInvalidCluster);
  int labeled = 0;
  for (index_t r = 0; r < 6000 && labeled < 300; ++r) {
    labels[r] =
        static_cast<cluster_t>(data::true_component_of_row(spec, r));
    ++labeled;
  }
  Options opts;
  opts.k = 6;
  opts.threads = 2;
  opts.max_iters = 60;
  const Result res = seeded_kmeans(m.const_view(), opts, labels);
  index_t agree = 0;
  for (index_t r = 0; r < 6000; ++r)
    if (res.assignments[r] ==
        static_cast<cluster_t>(data::true_component_of_row(spec, r)))
      ++agree;
  EXPECT_GT(static_cast<double>(agree) / 6000.0, 0.95);
}

TEST(Seeded, ThreadCountInvariant) {
  const DenseMatrix m = sphere_data(4000, 6, 4);
  std::vector<cluster_t> labels(4000, kInvalidCluster);
  for (index_t r = 0; r < 4000; r += 10)
    labels[r] = static_cast<cluster_t>(r / 10 % 4);
  Options opts;
  opts.k = 4;
  opts.max_iters = 40;
  expect_schedule_invariant(opts, [&](const Options& o) {
    return seeded_kmeans(m.const_view(), o, labels);
  });
}

TEST(Seeded, LabeledRowsComputeNoDistances) {
  // A labeled row keeps its label without a distance: each iteration
  // scans only the unlabeled rows, k distances apiece.
  const DenseMatrix m = sphere_data(3000, 6, 4);
  std::vector<cluster_t> labels(3000, kInvalidCluster);
  for (index_t r = 0; r < 3000; r += 2)
    labels[r] = static_cast<cluster_t>(r / 2 % 4);
  Options opts;
  opts.k = 4;
  opts.threads = 2;
  opts.max_iters = 20;
  const Result res = seeded_kmeans(m.const_view(), opts, labels);
  ASSERT_GT(res.iters, 0u);
  EXPECT_EQ(res.counters.dist_computations,
            static_cast<std::uint64_t>(res.iters) * 1500 * 4);
}

TEST(Elkan, ThreadCountInvariant) {
  const DenseMatrix m = sphere_data(3000, 8, 5);
  Options opts;
  opts.k = 5;
  opts.max_iters = 30;
  expect_schedule_invariant(opts, [&](const Options& o) {
    return elkan_ti(m.const_view(), o);
  });
}

TEST(Seeded, InvalidInputsThrow) {
  const DenseMatrix m = sphere_data(100, 4, 2);
  Options opts;
  opts.k = 2;
  std::vector<cluster_t> wrong_size(50, kInvalidCluster);
  EXPECT_THROW(seeded_kmeans(m.const_view(), opts, wrong_size),
               std::invalid_argument);
  std::vector<cluster_t> bad_label(100, kInvalidCluster);
  bad_label[0] = 7;  // >= k
  EXPECT_THROW(seeded_kmeans(m.const_view(), opts, bad_label),
               std::invalid_argument);
  // Caller-provided centroids skip the seeded init; the label check holds.
  Options provided = opts;
  provided.init = Init::kProvided;
  provided.initial_centroids = DenseMatrix(2, 4);
  EXPECT_THROW(seeded_kmeans(m.const_view(), provided, bad_label),
               std::invalid_argument);
}

// --- Checkpoint/resume ------------------------------------------------------

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("knor_ckpt_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(CheckpointTest, SaveLoadRoundTrip) {
  sem::Checkpoint ckpt;
  ckpt.iteration = 17;
  ckpt.centroids = DenseMatrix(3, 4);
  ckpt.centroids.at(2, 3) = 5.5;
  ckpt.assignments = {0, 1, 2, 1, 0};
  ckpt.upper_bounds = {1.0, 2.0, 3.0, 4.0, 5.0};
  ckpt.sums = DenseMatrix(3, 4);
  ckpt.sums.at(0, 0) = -2.0;
  ckpt.counts = {2, 2, 1};
  const std::string path = dir_ / "a.ckpt";
  sem::save_checkpoint(path, ckpt);
  EXPECT_TRUE(sem::checkpoint_exists(path));

  const sem::Checkpoint loaded = sem::load_checkpoint(path);
  EXPECT_EQ(loaded.iteration, 17u);
  EXPECT_EQ(loaded.centroids.at(2, 3), 5.5);
  EXPECT_EQ(loaded.assignments, ckpt.assignments);
  EXPECT_EQ(loaded.upper_bounds, ckpt.upper_bounds);
  EXPECT_EQ(loaded.sums.at(0, 0), -2.0);
  EXPECT_EQ(loaded.counts, ckpt.counts);
}

TEST_F(CheckpointTest, CorruptFilesRejected) {
  const std::string path = dir_ / "bad.ckpt";
  EXPECT_FALSE(sem::checkpoint_exists(path));
  EXPECT_THROW(sem::load_checkpoint(path), std::runtime_error);
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("NOTACKPT and some trailing bytes", f);
    std::fclose(f);
  }
  EXPECT_FALSE(sem::checkpoint_exists(path));
  EXPECT_THROW(sem::load_checkpoint(path), std::runtime_error);
}

class CheckpointResume : public CheckpointTest,
                         public ::testing::WithParamInterface<bool> {};

TEST_P(CheckpointResume, ResumedRunMatchesUninterrupted) {
  const bool prune = GetParam();
  data::GeneratorSpec spec;
  spec.n = 5000;
  spec.d = 8;
  // Uniform data converges slowly, guaranteeing the run is still going at
  // the interruption point (iteration 8).
  spec.dist = data::Distribution::kUniformRandom;
  const std::string matrix = dir_ / "m.kmat";
  data::write_generated(matrix, spec);

  Options opts;
  opts.k = 6;
  opts.threads = 2;
  opts.max_iters = 30;
  opts.prune = prune;

  sem::SemOptions plain;
  const Result uninterrupted = sem::kmeans(matrix, opts, plain);

  // Interrupted run: checkpoint every 4 iterations, "crash" at 8 by capping
  // max_iters, then resume to completion.
  sem::SemOptions with_ckpt = plain;
  with_ckpt.checkpoint_path = dir_ / "run.ckpt";
  with_ckpt.checkpoint_interval = 4;
  Options first_leg = opts;
  first_leg.max_iters = 8;
  sem::kmeans(matrix, first_leg, with_ckpt);
  ASSERT_TRUE(sem::checkpoint_exists(with_ckpt.checkpoint_path));

  sem::SemOptions resume_opts = with_ckpt;
  resume_opts.resume = true;
  const Result resumed = sem::kmeans(matrix, opts, resume_opts);

  EXPECT_EQ(resumed.iters + 8, uninterrupted.iters);
  EXPECT_LT(std::abs(resumed.energy - uninterrupted.energy) /
                uninterrupted.energy,
            1e-9);
  for (std::size_t i = 0; i < uninterrupted.assignments.size(); ++i)
    ASSERT_EQ(resumed.assignments[i], uninterrupted.assignments[i]) << i;
}

// A checkpoint may carry no sums block: knord writes one with pruning off,
// and the format makes the block optional. Pruning off rebuilds the sums
// every iteration, so the resume must still be bitwise exact; pruning on
// cannot rebuild them, so the resume must be refused, naming the sums.
TEST_P(CheckpointResume, CheckpointWithoutSumsResumesExactlyOrIsRejected) {
  const bool prune = GetParam();
  data::GeneratorSpec spec;
  spec.n = 3000;
  spec.d = 5;
  spec.dist = data::Distribution::kUniformRandom;
  const std::string matrix = dir_ / "m.kmat";
  data::write_generated(matrix, spec);

  Options opts;
  opts.k = 6;
  opts.threads = 2;
  opts.max_iters = 30;
  opts.prune = prune;
  const Result uninterrupted = sem::kmeans(matrix, opts, sem::SemOptions{});

  sem::SemOptions with_ckpt;
  with_ckpt.checkpoint_path = dir_ / "run.ckpt";
  with_ckpt.checkpoint_interval = 8;
  Options first_leg = opts;
  first_leg.max_iters = 8;
  sem::kmeans(matrix, first_leg, with_ckpt);
  sem::Checkpoint ckpt = sem::load_checkpoint(with_ckpt.checkpoint_path);
  ASSERT_EQ(ckpt.iteration, 8u);
  ckpt.sums = DenseMatrix();
  ckpt.counts.clear();
  sem::save_checkpoint(with_ckpt.checkpoint_path, ckpt);

  sem::SemOptions resume_opts = with_ckpt;
  resume_opts.resume = true;
  if (prune) {
    try {
      sem::kmeans(matrix, opts, resume_opts);
      ADD_FAILURE() << "pruned resume without sums was accepted";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("sums"), std::string::npos)
          << e.what();
    }
    return;
  }
  const Result resumed = sem::kmeans(matrix, opts, resume_opts);
  EXPECT_EQ(resumed.iters + 8, uninterrupted.iters);
  ASSERT_EQ(resumed.assignments, uninterrupted.assignments);
  EXPECT_EQ(std::memcmp(resumed.centroids.data(),
                        uninterrupted.centroids.data(),
                        uninterrupted.centroids.size() * sizeof(value_t)),
            0);
}

// Counter parity on resume: the driver counts on from the checkpoint, but
// a resumed call reports (Result::iters) and publishes (core.iterations in
// Result::metrics) only the iterations it ran itself.
TEST_P(CheckpointResume, ResumedRunPublishesOnlyItsOwnIterations) {
  data::GeneratorSpec spec;
  spec.n = 3000;
  spec.d = 5;
  spec.dist = data::Distribution::kUniformRandom;
  const std::string matrix = dir_ / "m.kmat";
  data::write_generated(matrix, spec);

  Options opts;
  opts.k = 6;
  opts.threads = 2;
  opts.max_iters = 30;
  opts.prune = GetParam();
  const Result uninterrupted = sem::kmeans(matrix, opts, sem::SemOptions{});
  EXPECT_EQ(uninterrupted.metrics.value_or("core.iterations", -1),
            static_cast<std::int64_t>(uninterrupted.iters));

  sem::SemOptions with_ckpt;
  with_ckpt.checkpoint_path = dir_ / "run.ckpt";
  with_ckpt.checkpoint_interval = 8;
  Options first_leg = opts;
  first_leg.max_iters = 8;
  sem::kmeans(matrix, first_leg, with_ckpt);
  ASSERT_EQ(sem::load_checkpoint(with_ckpt.checkpoint_path).iteration, 8u);

  sem::SemOptions resume_opts = with_ckpt;
  resume_opts.resume = true;
  const Result resumed = sem::kmeans(matrix, opts, resume_opts);
  EXPECT_EQ(resumed.iters + 8, uninterrupted.iters);
  EXPECT_EQ(resumed.metrics.value_or("core.iterations", -1),
            static_cast<std::int64_t>(resumed.iters));
}

INSTANTIATE_TEST_SUITE_P(PruneModes, CheckpointResume, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "mti" : "nomti";
                         });

TEST_F(CheckpointTest, ShapeMismatchRejectedOnResume) {
  data::GeneratorSpec spec;
  spec.n = 500;
  spec.d = 4;
  const std::string matrix = dir_ / "m.kmat";
  data::write_generated(matrix, spec);

  Options opts;
  opts.k = 3;
  opts.threads = 1;
  opts.max_iters = 6;
  sem::SemOptions sopts;
  sopts.checkpoint_path = dir_ / "s.ckpt";
  sopts.checkpoint_interval = 2;
  sem::kmeans(matrix, opts, sopts);

  Options wrong_k = opts;
  wrong_k.k = 4;
  sem::SemOptions resume_opts = sopts;
  resume_opts.resume = true;
  EXPECT_THROW(sem::kmeans(matrix, wrong_k, resume_opts), std::runtime_error);
}

}  // namespace
}  // namespace knor

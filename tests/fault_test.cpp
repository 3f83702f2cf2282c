// Fault-tolerant elastic knord (DESIGN.md §13): deterministic fault
// injection, checkpointed recovery and deterministic re-sharding.
//
// The load-bearing assertion throughout: a run that crashes mid-flight and
// recovers onto fewer ranks must produce clustering BITWISE identical to an
// uninterrupted dist::kmeans run — for any crash iteration, any survivor
// count, any thread count and any SIMD ISA. The dataset is integer-valued
// (the conformance oracle's trick): every partial centroid sum is an
// exactly-representable double, so FP addition is associative over them and
// the recovery re-shard — which only regroups partial sums across a
// different rank count — cannot perturb a single bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "data/generator.hpp"
#include "dist/fault.hpp"
#include "dist/knord.hpp"
#include "dist/membership.hpp"
#include "sem/checkpoint.hpp"

namespace knor::dist {
namespace {

constexpr index_t kN = 1200;
constexpr index_t kD = 6;
constexpr int kK = 5;
constexpr int kWorld = 4;

DenseMatrix integer_dataset() {
  data::GeneratorSpec spec;
  spec.n = kN;
  spec.d = kD;
  spec.true_clusters = kK;
  spec.separation = 9.0;
  spec.seed = 20170627;
  DenseMatrix m = data::generate(spec);
  for (index_t r = 0; r < m.rows(); ++r)
    for (index_t c = 0; c < m.cols(); ++c)
      m.at(r, c) = std::round(m.at(r, c));
  return m;
}

DenseMatrix initial_centroids(const DenseMatrix& m) {
  DenseMatrix init(static_cast<index_t>(kK), kD);
  for (int c = 0; c < kK; ++c) {
    const index_t r = (m.rows() * static_cast<index_t>(c)) /
                          static_cast<index_t>(kK) +
                      7;
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
  opts.numa_nodes = 2;
  return opts;
}

DistOptions base_dist() {
  DistOptions dopts;
  dopts.ranks = kWorld;
  dopts.threads_per_rank = 2;
  return dopts;
}

class FaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new DenseMatrix(integer_dataset());
    init_ = new DenseMatrix(initial_centroids(*data_));
    ref_ = new Result(
        kmeans(data_->const_view(), base_options(*init_), base_dist()));
    // The oracle must exercise real recovery windows: enough iterations
    // that crashes at 1..iters-1 all fire.
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

  Options opts() const { return base_options(*init_); }

  void expect_identical(const Result& res, const std::string& what) {
    EXPECT_EQ(res.iters, ref_->iters) << what;
    EXPECT_EQ(res.converged, ref_->converged) << what;
    ASSERT_EQ(res.assignments, ref_->assignments) << what;
    EXPECT_EQ(res.cluster_sizes, ref_->cluster_sizes) << what;
    ASSERT_EQ(res.centroids.rows(), ref_->centroids.rows()) << what;
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

DenseMatrix* FaultTest::data_ = nullptr;
DenseMatrix* FaultTest::init_ = nullptr;
Result* FaultTest::ref_ = nullptr;

// --- the hard requirement: bitwise identity for ANY crash point and ANY
// --- survivor count ---------------------------------------------------------

TEST_F(FaultTest, CrashSweepEveryIterationAndSurvivorCount) {
  // Crash 1, 2 or 3 of the 4 nodes at every boundary the run has. The
  // final boundary (== ref iters) converges before the observer runs, so
  // those crashes never fire — the sweep covers that edge too.
  for (const int crashes : {1, 2, 3}) {
    for (std::uint64_t at = 1; at <= ref_->iters; ++at) {
      FtOptions fopts;
      for (int c = 0; c < crashes; ++c)
        fopts.plan.crashes.push_back({at, c + 1});
      const Result res =
          ft_kmeans(data_->const_view(), opts(), base_dist(), fopts);
      const std::string what = "crash@" + std::to_string(at) + " x" +
                               std::to_string(crashes);
      expect_identical(res, what);
      const std::int64_t fired = at < ref_->iters ? 1 : 0;
      EXPECT_EQ(res.metrics.value_or("dist.recoveries", 0), fired) << what;
      EXPECT_EQ(res.metrics.value_or("dist.faults_injected", 0),
                fired * crashes)
          << what;
    }
  }
}

TEST_F(FaultTest, CrashRecoveryAcrossThreadCountsAndIsas) {
  for (const kernels::Isa isa : kernels::available_isas()) {
    for (const int tpr : {1, 3}) {
      Options o = opts();
      o.simd = isa;
      DistOptions dopts = base_dist();
      dopts.threads_per_rank = tpr;
      FtOptions fopts;
      fopts.plan = FaultPlan::parse("crash@2:r1;crash@2:r3");
      const Result res = ft_kmeans(data_->const_view(), o, dopts, fopts);
      expect_identical(res, std::string("isa=") + kernels::to_string(isa) +
                                " tpr=" + std::to_string(tpr));
    }
  }
}

TEST_F(FaultTest, DoubleFaultRecoversTwice) {
  // Two crashes at DIFFERENT boundaries: the first recovery replays onto 3
  // ranks, the second onto 2 — two full recovery cycles in one run.
  FtOptions fopts;
  fopts.plan = FaultPlan::parse("crash@1:r1;crash@2:r2");
  const Result res =
      ft_kmeans(data_->const_view(), opts(), base_dist(), fopts);
  expect_identical(res, "double fault");
  EXPECT_EQ(res.metrics.value_or("dist.recoveries", -1), 2);
}

TEST_F(FaultTest, CrashBeforeFirstCheckpointRestartsFromScratch) {
  // checkpoint_every = 3 and a crash at boundary 1: no checkpoint exists
  // yet, so recovery re-runs from the initial centroids on the survivors.
  FtOptions fopts;
  fopts.checkpoint_every = 3;
  fopts.plan = FaultPlan::parse("crash@1:r2");
  const Result res =
      ft_kmeans(data_->const_view(), opts(), base_dist(), fopts);
  expect_identical(res, "crash before first checkpoint");
  EXPECT_EQ(res.metrics.value_or("dist.recoveries", -1), 1);
}

TEST_F(FaultTest, SparseCheckpointsReplayTheGap) {
  // With ckpt-every=2 a crash at boundary 3 restores the boundary-2
  // checkpoint and replays iteration 3 — the replay must be invisible.
  if (ref_->iters < 4u) GTEST_SKIP() << "needs >= 4 iterations";
  FtOptions fopts;
  fopts.checkpoint_every = 2;
  fopts.plan = FaultPlan::parse("crash@3:r1");
  const Result res =
      ft_kmeans(data_->const_view(), opts(), base_dist(), fopts);
  expect_identical(res, "sparse checkpoints");
  EXPECT_EQ(res.metrics.value_or("dist.recoveries", -1), 1);
}

// --- durable checkpoints ----------------------------------------------------

TEST_F(FaultTest, RecoveryThroughCheckpointFile) {
  const std::string path = ::testing::TempDir() + "ft_recovery.ckpt";
  std::remove(path.c_str());
  FtOptions fopts;
  fopts.checkpoint_path = path;
  fopts.plan = FaultPlan::parse("crash@2:r3");
  const Result res =
      ft_kmeans(data_->const_view(), opts(), base_dist(), fopts);
  expect_identical(res, "file-backed recovery");
  // The surviving cluster kept checkpointing: the file carries the dist
  // block of the post-recovery epoch (leader = lowest live node).
  const sem::Checkpoint ckpt = sem::load_checkpoint(path);
  EXPECT_EQ(ckpt.dist_epoch, 1u);
  EXPECT_EQ(ckpt.dist_world, kWorld);
  ASSERT_EQ(ckpt.dist_nodes.size(), 3u);
  EXPECT_EQ(ckpt.dist_nodes[0], 0);  // r3 gone: {0, 1, 2} survive
  EXPECT_EQ(ckpt.dist_nodes[2], 2);
  std::remove(path.c_str());
}

TEST_F(FaultTest, ResumeContinuesFromCheckpointFile) {
  const std::string path = ::testing::TempDir() + "ft_resume.ckpt";
  std::remove(path.c_str());
  // Phase 1: stop after 2 iterations (simulated whole-cluster outage).
  Options truncated = opts();
  truncated.max_iters = 2;
  FtOptions fopts;
  fopts.checkpoint_path = path;
  ft_kmeans(data_->const_view(), truncated, base_dist(), fopts);
  ASSERT_TRUE(sem::checkpoint_exists(path));
  // Phase 2: --resume onto a DIFFERENT rank count; the finished run must
  // be indistinguishable from never having stopped.
  DistOptions dopts = base_dist();
  dopts.ranks = 3;
  fopts.resume = true;
  const std::uint64_t resumed_at = sem::load_checkpoint(path).iteration;
  const Result res = ft_kmeans(data_->const_view(), opts(), dopts, fopts);
  expect_identical(res, "resume from file");
  // Result::iters counts the whole logical run; each rank publishes only
  // the iterations it ran after the checkpoint.
  EXPECT_EQ(res.metrics.value_or("core.iterations", -1),
            static_cast<std::int64_t>((res.iters - resumed_at) * 3));
  std::remove(path.c_str());
}

TEST_F(FaultTest, CorruptCheckpointsAreRejected) {
  const std::string path = ::testing::TempDir() + "ft_corrupt.ckpt";
  FtOptions fopts;
  fopts.checkpoint_path = path;
  ft_kmeans(data_->const_view(), opts(), base_dist(), fopts);

  // Flip one payload byte: the FNV-1a content checksum must catch it.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 100, SEEK_SET);
    const int byte = std::fgetc(f);
    std::fseek(f, 100, SEEK_SET);
    std::fputc(byte ^ 0x40, f);
    std::fclose(f);
  }
  EXPECT_TRUE(sem::checkpoint_exists(path));  // magic is intact
  EXPECT_THROW(sem::load_checkpoint(path), std::runtime_error);
  // A resume from the corrupt file must refuse loudly, not cluster from
  // garbage.
  fopts.resume = true;
  EXPECT_THROW(ft_kmeans(data_->const_view(), opts(), base_dist(), fopts),
               std::runtime_error);

  // Truncation is caught too (by length or by checksum).
  fopts.resume = false;
  ft_kmeans(data_->const_view(), opts(), base_dist(), fopts);
  std::filesystem::resize_file(path, 96);
  EXPECT_THROW(sem::load_checkpoint(path), std::runtime_error);

  // And a clobbered magic is not a checkpoint at all.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fputs("NOTACKPT", f);
    std::fclose(f);
  }
  EXPECT_FALSE(sem::checkpoint_exists(path));
  EXPECT_THROW(sem::load_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST_F(FaultTest, HostileCheckpointSizeFieldsAreRejected) {
  // Header-declared element counts are bounded against the bytes actually
  // on disk BEFORE any buffer is sized from them: a 64-bit field patched to
  // 2^60 must be rejected by name, never allocated (fuzz corpus:
  // tests/fuzz/corpus/checkpoint).
  const std::string path = ::testing::TempDir() + "ft_hostile.ckpt";
  sem::Checkpoint ckpt;
  ckpt.iteration = 3;
  ckpt.centroids = *init_;
  ckpt.assignments.assign(static_cast<std::size_t>(kN), 0);
  sem::save_checkpoint(path, ckpt);

  const auto patch_u64 = [&](long offset, std::uint64_t value) {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&value, sizeof(value), 1, f), 1u);
    std::fclose(f);
  };
  const auto expect_hostile = [&](const char* field) {
    try {
      sem::load_checkpoint(path);
      FAIL() << "hostile " << field << " field was accepted";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("hostile size field"), std::string::npos) << msg;
      EXPECT_NE(msg.find(field), std::string::npos) << msg;
    }
  };

  patch_u64(16, 1ull << 60);  // n: would wrap n*sizeof(cluster_t) as size_t
  expect_hostile("assignment count");
  patch_u64(16, static_cast<std::uint64_t>(kN));
  patch_u64(24, 1ull << 44);  // k: beyond any plausible field, pre-bounded
  expect_hostile("centroids k*d");

  // Hand-craft a minimal v2 file whose dist block claims 2^59 node ids.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    unsigned char header[64] = {};
    std::memcpy(header, "KNORCKP2", 8);
    const std::uint64_t fields[4] = {0, 0, 1, 1};  // iter, n, k, d
    std::memcpy(header + 8, fields, sizeof(fields));
    header[43] = 1;  // dist block present
    ASSERT_EQ(std::fwrite(header, 1, sizeof(header), f), sizeof(header));
    const double centroid = 0.0;
    ASSERT_EQ(std::fwrite(&centroid, sizeof(centroid), 1, f), 1u);
    const std::uint64_t dist_fields[3] = {0, 4, 1ull << 59};
    ASSERT_EQ(std::fwrite(dist_fields, sizeof(std::uint64_t), 3, f), 3u);
    std::fclose(f);
  }
  expect_hostile("dist node count");
  std::remove(path.c_str());
}

TEST_F(FaultTest, VersionOneCheckpointsStillLoad) {
  // A v1 file is a v2 file without the checksum or dist block; the loader
  // must keep accepting them (the pre-existing SEM checkpoint fleet).
  const std::string path = ::testing::TempDir() + "ft_v1.ckpt";
  sem::Checkpoint ckpt;
  ckpt.iteration = 7;
  ckpt.centroids = *init_;
  ckpt.assignments.assign(static_cast<std::size_t>(kN), 0);
  sem::save_checkpoint(path, ckpt);
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 7, SEEK_SET);
    std::fputc('1', f);  // KNORCKP2 -> KNORCKP1
    std::fclose(f);
  }
  ASSERT_TRUE(sem::checkpoint_exists(path));
  const sem::Checkpoint loaded = sem::load_checkpoint(path);
  EXPECT_EQ(loaded.iteration, 7u);
  EXPECT_EQ(loaded.n(), kN);
  std::remove(path.c_str());
}

// --- elasticity -------------------------------------------------------------

TEST_F(FaultTest, GracefulLeaveAndRejoin) {
  // r3 leaves at boundary 1 and rejoins at boundary 2: two deterministic
  // re-shards (4 -> 3 -> 4 ranks) with zero recoveries — elasticity rides
  // the checkpoint-stop-reshard path, not the failure path.
  FtOptions fopts;
  fopts.plan = FaultPlan::parse("leave@1:r3;join@2:r3");
  const Result res =
      ft_kmeans(data_->const_view(), opts(), base_dist(), fopts);
  expect_identical(res, "leave + rejoin");
  EXPECT_EQ(res.metrics.value_or("dist.membership_events", -1), 2);
  EXPECT_EQ(res.metrics.value_or("dist.recoveries", 0), 0);
}

TEST_F(FaultTest, JoinOfBrandNewNodeExtendsTheCluster) {
  FtOptions fopts;
  fopts.plan = FaultPlan::parse("join@1:r5");  // node id beyond world 4
  const Result res =
      ft_kmeans(data_->const_view(), opts(), base_dist(), fopts);
  expect_identical(res, "join new node");
  EXPECT_EQ(res.metrics.value_or("dist.membership_events", -1), 1);
}

TEST_F(FaultTest, CrashAfterLeaveUsesTheShrunkenMembership) {
  FtOptions fopts;
  fopts.plan = FaultPlan::parse("leave@1:r0;crash@2:r2");
  const Result res =
      ft_kmeans(data_->const_view(), opts(), base_dist(), fopts);
  expect_identical(res, "leave then crash");
  EXPECT_EQ(res.metrics.value_or("dist.membership_events", -1), 1);
  EXPECT_EQ(res.metrics.value_or("dist.recoveries", -1), 1);
}

// --- transient faults and stragglers ----------------------------------------

TEST_F(FaultTest, TransientCollectiveFaultsRetryTransparently) {
  FtOptions fopts;
  fopts.plan = FaultPlan::parse("flaky@1*3");
  fopts.backoff_us = 1.0;  // keep the test fast
  const Result res =
      ft_kmeans(data_->const_view(), opts(), base_dist(), fopts);
  expect_identical(res, "flaky collective");
  EXPECT_EQ(res.metrics.value_or("dist.retries", -1), 3);
  EXPECT_EQ(res.metrics.value_or("dist.faults_injected", -1), 3);
  EXPECT_EQ(res.metrics.value_or("dist.recoveries", 0), 0);
}

TEST_F(FaultTest, ExhaustedRetryBudgetFailsTheRun) {
  FtOptions fopts;
  fopts.plan = FaultPlan::parse("flaky@1*6");
  fopts.max_retries = 2;
  fopts.backoff_us = 1.0;
  EXPECT_THROW(ft_kmeans(data_->const_view(), opts(), base_dist(), fopts),
               std::runtime_error);
}

TEST_F(FaultTest, StragglerSlowsButNeverChangesTheClustering) {
  DistOptions dopts = base_dist();
  dopts.net.latency_us = 20;
  FtOptions fopts;
  fopts.plan = FaultPlan::parse("slow:r2*5");
  const Result res = ft_kmeans(data_->const_view(), opts(), dopts, fopts);
  expect_identical(res, "straggler");
}

TEST_F(FaultTest, NoSurvivorEscalatesToTheCaller) {
  FtOptions fopts;
  fopts.plan = FaultPlan::parse("crash@1:r0;crash@1:r1;crash@1:r2;crash@1:r3");
  EXPECT_THROW(ft_kmeans(data_->const_view(), opts(), base_dist(), fopts),
               RankFailure);
}

TEST_F(FaultTest, EmptyPlanDegeneratesToPlainKnord) {
  const Result res =
      ft_kmeans(data_->const_view(), opts(), base_dist(), FtOptions{});
  expect_identical(res, "no faults");
  EXPECT_EQ(res.metrics.value_or("dist.recoveries", 0), 0);
  EXPECT_EQ(res.metrics.value_or("dist.faults_injected", 0), 0);
  // Periodic checkpointing still ran (checkpoint_every defaults to 1).
  EXPECT_EQ(res.metrics.value_or("dist.checkpoints", 0),
            static_cast<std::int64_t>(ref_->iters) - 1);
}

// --- plan grammar and membership unit coverage ------------------------------

TEST(FaultPlanTest, ParseRoundTripsAndValidates) {
  const FaultPlan plan = FaultPlan::parse(
      "crash@3:r1; leave@4:r2; join@5:r6; slow:r0*2.5; flaky@2*3; seed=42");
  EXPECT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.members.size(), 2u);
  EXPECT_TRUE(plan.members[1].join);
  EXPECT_EQ(plan.stragglers.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.straggler_multiplier(0), 2.5);
  EXPECT_DOUBLE_EQ(plan.straggler_multiplier(3), 1.0);
  EXPECT_EQ(plan.transient_failures_at(2), 3);
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_TRUE(plan.crash_at(3, 1));
  EXPECT_FALSE(plan.crash_at(3, 2));
  // describe() reserializes into the same grammar.
  const FaultPlan again = FaultPlan::parse(plan.describe());
  EXPECT_EQ(again.describe(), plan.describe());

  for (const char* bad :
       {"crash@0:r1", "crash@3:x1", "crash@3", "slow:r1*0", "slow:r1*-2",
        "flaky@2*0", "flaky@2*2000", "seed=abc", "launch@3:r1"})
    EXPECT_THROW(FaultPlan::parse(bad), std::invalid_argument) << bad;
}

TEST(FaultPlanTest, RandomCrashesAreAPureFunctionOfTheSeed) {
  const FaultPlan a = FaultPlan::random_crashes(99, 8, 3, 10);
  const FaultPlan b = FaultPlan::random_crashes(99, 8, 3, 10);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_EQ(a.crashes.size(), 3u);
  for (const CrashEvent& c : a.crashes) {
    EXPECT_GE(c.iteration, 1u);
    EXPECT_LE(c.iteration, 10u);
    EXPECT_LT(c.node, 8);
  }
  // Never crashes the whole world.
  const FaultPlan capped = FaultPlan::random_crashes(7, 3, 10, 5);
  EXPECT_EQ(capped.crashes.size(), 2u);
}

TEST(MembershipTest, DeterministicRanksLeaderAndShards) {
  Membership mem(4);
  EXPECT_EQ(mem.live(), 4);
  EXPECT_EQ(mem.leader(), 0);
  mem.remove(0);
  mem.remove(2);
  EXPECT_EQ(mem.live(), 2);
  EXPECT_EQ(mem.leader(), 1);       // lowest live id
  EXPECT_EQ(mem.node_at(0), 1);     // comm rank 0 hosts node 1
  EXPECT_EQ(mem.node_at(1), 3);
  EXPECT_EQ(mem.rank_of(3), 1);
  EXPECT_EQ(mem.rank_of(2), -1);
  mem.add(2);                        // rejoin keeps sorted order
  EXPECT_EQ(mem.node_at(1), 2);
  mem.add(9);                        // join extends the world
  EXPECT_EQ(mem.world(), 10);
  // Re-sharding is exactly the fixed-size block partition.
  const numa::RowRange r = mem.shard(100, 1);
  EXPECT_EQ(r.size(), 25u);
  EXPECT_THROW(mem.add(2), std::invalid_argument);
  EXPECT_THROW(mem.remove(5), std::invalid_argument);
  EXPECT_THROW(mem.node_at(4), std::out_of_range);
}

}  // namespace
}  // namespace knor::dist

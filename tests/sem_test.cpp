// Unit and integration tests for the SEM substrate: page file geometry,
// page cache eviction, I/O engine request merging and prefetch, row cache
// laziness, and knors end-to-end equivalence with knori.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <thread>

#include "core/knori.hpp"
#include "data/generator.hpp"
#include "data/matrix_io.hpp"
#include "obs/registry.hpp"
#include "sem/io_engine.hpp"
#include "sem/page_cache.hpp"
#include "sem/page_file.hpp"
#include "sem/row_cache.hpp"
#include "sem/sem_kmeans.hpp"

namespace knor::sem {
namespace {

class SemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("knor_sem_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string make_matrix(const data::GeneratorSpec& spec,
                          const std::string& name = "m.kmat") {
    const std::string p = dir_ / name;
    data::write_generated(p, spec);
    return p;
  }
  std::filesystem::path dir_;
};

/// True when `out` holds exactly the rows `rows` of `m`, byte for byte.
bool rows_match(const DenseMatrix& m, const std::vector<index_t>& rows,
                const value_t* out) {
  const std::size_t row_bytes = m.cols() * sizeof(value_t);
  for (std::size_t i = 0; i < rows.size(); ++i)
    if (std::memcmp(out + i * m.cols(), m.row(rows[i]), row_bytes) != 0)
      return false;
  return true;
}

TEST_F(SemTest, PageFileGeometry) {
  data::GeneratorSpec spec;
  spec.n = 100;
  spec.d = 8;  // 64B rows
  const std::string p = make_matrix(spec);
  PageFile file(p, 256);
  EXPECT_EQ(file.n(), 100u);
  EXPECT_EQ(file.d(), 8u);
  EXPECT_EQ(file.row_bytes(), 64u);
  // Header is 64B; row 0 at byte 64 -> page 0; row 3 at 64+192=256 -> page 1.
  EXPECT_EQ(file.first_page_of_row(0), 0u);
  EXPECT_EQ(file.first_page_of_row(3), 1u);
  EXPECT_EQ(file.last_page_of_row(3), 1u);
  const std::uint64_t file_bytes = 64 + 100 * 64;
  EXPECT_EQ(file.num_pages(), (file_bytes + 255) / 256);
}

TEST_F(SemTest, PageFileReadMatchesData) {
  data::GeneratorSpec spec;
  spec.n = 64;
  spec.d = 4;
  const std::string p = make_matrix(spec);
  const DenseMatrix m = data::generate(spec);
  PageFile file(p, 4096);
  std::vector<unsigned char> buf(4096);
  file.read_pages(0, 1, buf.data());
  // Row 0 lives at offset 64 within page 0.
  value_t row0[4];
  std::memcpy(row0, buf.data() + 64, sizeof(row0));
  for (int j = 0; j < 4; ++j) EXPECT_EQ(row0[j], m.at(0, j));
  EXPECT_GT(file.bytes_read(), 0u);
  EXPECT_EQ(file.read_requests(), 1u);
}

TEST_F(SemTest, PageFileEofZeroPadded) {
  data::GeneratorSpec spec;
  spec.n = 2;
  spec.d = 2;
  const std::string p = make_matrix(spec);
  PageFile file(p, 4096);
  std::vector<unsigned char> buf(2 * 4096, 0xff);
  file.read_pages(0, 2, buf.data());  // file is only 96 bytes
  EXPECT_EQ(buf[200], 0);             // past EOF must be zeroed
}

TEST_F(SemTest, PageFileRejectsGarbage) {
  const std::string p = dir_ / "bad.kmat";
  std::FILE* f = std::fopen(p.c_str(), "wb");
  std::fputs("garbage", f);
  std::fclose(f);
  EXPECT_THROW(PageFile(p, 4096), std::runtime_error);
}

TEST(PageCacheTest, InsertLookupRoundTrip) {
  PageCache cache(64 * 1024, 1024, 2);
  std::vector<unsigned char> page(1024, 7);
  cache.insert(42, page.data());
  std::vector<unsigned char> out(1024);
  EXPECT_TRUE(cache.lookup(42, out.data()));
  EXPECT_EQ(out[500], 7);
  EXPECT_FALSE(cache.lookup(43, out.data()));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PageCacheTest, EvictsWhenFullButKeepsCapacityPages) {
  PageCache cache(8 * 1024, 1024, 1);  // 8 slots
  std::vector<unsigned char> page(1024);
  for (std::uint64_t id = 0; id < 32; ++id) {
    page[0] = static_cast<unsigned char>(id);
    cache.insert(id, page.data());
  }
  int resident = 0;
  for (std::uint64_t id = 0; id < 32; ++id)
    if (cache.contains(id)) ++resident;
  EXPECT_EQ(resident, 8);
  // Recently inserted pages survive.
  EXPECT_TRUE(cache.contains(31));
}

TEST(PageCacheTest, ClockSecondChanceEvictionOrder) {
  PageCache cache(4 * 1024, 1024, 1);  // 4 slots
  std::vector<unsigned char> page(1024);
  for (std::uint64_t id = 0; id < 4; ++id) cache.insert(id, page.data());
  // All four pages are referenced; the first insertion beyond capacity
  // sweeps the full clock (granting every page its second chance, clearing
  // the bits) and evicts slot 0; the next insertion evicts slot 1.
  cache.insert(100, page.data());
  cache.insert(101, page.data());
  EXPECT_TRUE(cache.contains(100));
  EXPECT_TRUE(cache.contains(101));
  EXPECT_FALSE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

TEST(PageCacheTest, ClockSparesReferencedPageDuringSweep) {
  PageCache cache(4 * 1024, 1024, 1);  // 4 slots
  std::vector<unsigned char> page(1024);
  std::vector<unsigned char> out(1024);
  for (std::uint64_t id = 0; id < 4; ++id) cache.insert(id, page.data());
  cache.insert(100, page.data());  // full sweep, evicts slot 0
  // Page 1 sits in slot 1 with its bit cleared; touching it re-arms the bit
  // so the next insertion skips it and evicts page 2 instead.
  EXPECT_TRUE(cache.lookup(1, out.data()));
  cache.insert(101, page.data());
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
}

TEST(PageCacheTest, ClearEmptiesEverything) {
  PageCache cache(8 * 1024, 1024, 2);
  std::vector<unsigned char> page(1024);
  cache.insert(1, page.data());
  cache.clear();
  EXPECT_FALSE(cache.contains(1));
}

TEST_F(SemTest, IoEngineFetchesCorrectRows) {
  data::GeneratorSpec spec;
  spec.n = 500;
  spec.d = 6;
  const std::string p = make_matrix(spec);
  const DenseMatrix m = data::generate(spec);
  PageFile file(p, 512);
  PageCache cache(16 * 1024, 512, 2);
  IoEngine engine(file, cache, 1);
  std::vector<index_t> rows = {3, 77, 210, 211, 499};
  DenseMatrix out(5, 6);
  engine.fetch_rows(rows, out.data());
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (index_t j = 0; j < 6; ++j)
      EXPECT_EQ(out.at(static_cast<index_t>(i), j), m.at(rows[i], j));
  EXPECT_EQ(engine.bytes_requested(), 5u * 6 * sizeof(value_t));
}

TEST_F(SemTest, IoEngineMergesAdjacentPages) {
  data::GeneratorSpec spec;
  spec.n = 1000;
  spec.d = 8;  // 64B rows, 64 rows/4KB page
  const std::string p = make_matrix(spec);
  PageFile file(p, 4096);
  PageCache cache(1 << 20, 4096, 2);
  IoEngine engine(file, cache, 1);
  // 200 consecutive rows span ~4 pages -> a single merged extent read.
  std::vector<index_t> rows(200);
  std::iota(rows.begin(), rows.end(), 100);
  DenseMatrix out(200, 8);
  engine.fetch_rows(rows, out.data());
  EXPECT_EQ(file.read_requests(), 1u);
}

TEST_F(SemTest, IoEngineServesRepeatsFromPageCache) {
  data::GeneratorSpec spec;
  spec.n = 300;
  spec.d = 8;
  const std::string p = make_matrix(spec);
  PageFile file(p, 4096);
  PageCache cache(1 << 20, 4096, 2);
  IoEngine engine(file, cache, 1);
  std::vector<index_t> rows = {10, 20, 30};
  DenseMatrix out(3, 8);
  engine.fetch_rows(rows, out.data());
  const std::uint64_t reads_after_first = file.bytes_read();
  engine.fetch_rows(rows, out.data());
  EXPECT_EQ(file.bytes_read(), reads_after_first);  // all cache hits
}

TEST_F(SemTest, IoEnginePrefetchStagesPages) {
  data::GeneratorSpec spec;
  spec.n = 2000;
  spec.d = 8;
  const std::string p = make_matrix(spec);
  const DenseMatrix m = data::generate(spec);
  PageFile file(p, 4096);
  PageCache cache(1 << 20, 4096, 2);
  IoEngine engine(file, cache, 2);
  std::vector<index_t> rows;
  for (index_t r = 0; r < 2000; r += 10) rows.push_back(r);
  auto ticket = engine.prefetch(rows);
  ticket.wait();
  const std::uint64_t staged = file.bytes_read();
  EXPECT_GT(staged, 0u);
  DenseMatrix out(static_cast<index_t>(rows.size()), 8);
  engine.fetch_rows(rows, out.data());
  EXPECT_EQ(file.bytes_read(), staged);  // fetch was served by the cache
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(out.at(static_cast<index_t>(i), 0), m.at(rows[i], 0));
}

// ProfileEvents-style accounting of the staging path: every page a request
// needs counts exactly one page-cache hit or miss — cold pass all misses,
// warm pass all hits, and a resident page that ends a merged extent is not
// probed (counted) twice.
TEST_F(SemTest, PageCacheCountsEachStagedPageOnce) {
  data::GeneratorSpec spec;
  spec.n = 1000;
  spec.d = 8;
  const std::string p = make_matrix(spec);
  PageFile file(p, 512);
  PageCache cache(1 << 20, 512, 2);
  IoEngine engine(file, cache, 1);
  std::vector<index_t> rows(1000);
  std::iota(rows.begin(), rows.end(), 0);
  const std::uint64_t pages =
      file.last_page_of_row(999) - file.first_page_of_row(0) + 1;
  DenseMatrix out(1000, 8);

  engine.fetch_rows(rows, out.data());  // cold
  EXPECT_EQ(cache.misses(), pages);
  EXPECT_EQ(cache.hits(), 0u);

  cache.reset_stats();
  engine.fetch_rows(rows, out.data());  // warm
  EXPECT_EQ(cache.hits(), pages);
  EXPECT_EQ(cache.misses(), 0u);

  // Only a page in the middle is resident: the merge loop stops at it
  // (one hit) and resumes after it without a second probe.
  cache.clear();
  index_t mid = 500;
  while (file.first_page_of_row(mid) != file.last_page_of_row(mid)) ++mid;
  engine.fetch_rows({mid}, out.data());
  cache.reset_stats();
  engine.fetch_rows(rows, out.data());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), pages - 1);

  // The prefetch ring stages through the same path.
  cache.clear();
  cache.reset_stats();
  engine.prefetch(rows).wait();
  EXPECT_EQ(cache.misses(), pages);
  EXPECT_EQ(cache.hits(), 0u);
}

// --- the one-pass fetch path ------------------------------------------------
// Each case compares fetch_rows output byte for byte with data::generate.

// Needed pages 5 apart with merge_gap 4 merge into one extent; three
// resident pages split it into four. Gap pages are read (the device bytes
// count them) but never copied: a sentinel row past the output stays
// untouched.
TEST_F(SemTest, FetchMixesResidentAndMissingPagesAcrossMergeGaps) {
  data::GeneratorSpec spec;
  spec.n = 3000;
  spec.d = 8;  // 64B rows, 8 per 512B page; row r is on page (r + 1) / 8
  const std::string p = make_matrix(spec);
  const DenseMatrix m = data::generate(spec);
  PageFile file(p, 512);
  PageCache cache(1 << 20, 512, 3);
  IoEngine engine(file, cache, 1, /*merge_gap=*/4);
  std::vector<index_t> rows;  // rows 40g..40g+2 all lie on page 5g
  for (index_t r = 0; r < 3000; ++r)
    if (r % 40 < 3) rows.push_back(r);
  ASSERT_EQ(file.last_page_of_row(rows.back()), 370u);

  std::vector<value_t> out((rows.size() + 1) * 8, -7.25);
  for (const index_t g : {10, 30, 50})  // pages 50, 150, 250 resident
    engine.fetch_rows({static_cast<index_t>(40 * g)}, out.data());
  cache.reset_stats();
  file.reset_stats();

  engine.fetch_rows(rows, out.data());
  EXPECT_TRUE(rows_match(m, rows, out.data()));
  for (std::size_t j = rows.size() * 8; j < out.size(); ++j)
    EXPECT_EQ(out[j], -7.25);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 72u);
  // Extents [0,45], [55,145], [155,245], [255,370].
  EXPECT_EQ(file.read_requests(), 4u);
  EXPECT_EQ(file.bytes_read(), (46u + 91 + 91 + 116) * 512);

  // Warm: every needed page is served from its frame.
  std::fill(out.begin(), out.end(), -7.25);
  file.reset_stats();
  engine.fetch_rows(rows, out.data());
  EXPECT_TRUE(rows_match(m, rows, out.data()));
  EXPECT_EQ(file.read_requests(), 0u);
}

// One frame per partition, far fewer than the batch's extent needs: most
// pages get no frame and are served from the extent just read.
TEST_F(SemTest, FetchThroughOneFramePerPartition) {
  data::GeneratorSpec spec;
  spec.n = 1500;
  spec.d = 8;
  const std::string p = make_matrix(spec);
  const DenseMatrix m = data::generate(spec);
  PageFile file(p, 512);
  PageCache cache(2 * 512, 512, 2);
  ASSERT_EQ(cache.capacity_pages(), 2u);
  IoEngine engine(file, cache, 1);
  std::vector<index_t> all(1500), sparse;
  std::iota(all.begin(), all.end(), 0);
  for (index_t r = 3; r < 1500; r += 7) sparse.push_back(r);
  DenseMatrix out(1500, 8);
  for (int round = 0; round < 3; ++round) {
    for (const auto* rows : {&all, &sparse}) {
      engine.fetch_rows(*rows, out.data());
      EXPECT_TRUE(rows_match(m, *rows, out.data())) << round;
    }
  }
  engine.prefetch(sparse).wait();
  engine.fetch_rows(sparse, out.data());
  EXPECT_TRUE(rows_match(m, sparse, out.data()));
}

// Rows that straddle page boundaries behind the 64-byte file header: 40B
// rows (d = 5), 264B rows (d = 33) and rows longer than a page (d = 97).
TEST_F(SemTest, FetchRowsStraddlingPagesBehindHeader) {
  for (const index_t d : {5u, 33u, 97u}) {
    data::GeneratorSpec spec;
    spec.n = 700;
    spec.d = d;
    const std::string p = make_matrix(spec, "d" + std::to_string(d) + ".kmat");
    const DenseMatrix m = data::generate(spec);
    PageFile file(p, 512);
    PageCache cache(8 * 512, 512, 2);
    IoEngine engine(file, cache, 1);
    std::vector<index_t> all(700), odd, picked;
    std::iota(all.begin(), all.end(), 0);
    for (index_t r = 1; r < 700; r += 2) odd.push_back(r);
    std::uint64_t state = 99;
    for (index_t r = 0; r < 700; ++r) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      if ((state >> 60) < 5) picked.push_back(r);
    }
    DenseMatrix out(700, d);
    for (const auto* rows : {&all, &odd, &picked, &odd, &all}) {
      engine.fetch_rows(*rows, out.data());
      EXPECT_TRUE(rows_match(m, *rows, out.data())) << "d=" << d;
    }
  }
}

// Four workers fetch overlapping row sets while the I/O threads stage
// prefetch tickets on the same pages, through a cache small enough that
// frames are claimed, evicted and republished all the time.
TEST_F(SemTest, ConcurrentFetchesAndPrefetchesShareThePageCache) {
  data::GeneratorSpec spec;
  spec.n = 4000;
  spec.d = 6;
  const std::string p = make_matrix(spec);
  const DenseMatrix m = data::generate(spec);
  PageFile file(p, 512);
  PageCache cache(16 * 512, 512, 4);
  IoEngine engine(file, cache, 2);
  std::atomic<int> bad{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      DenseMatrix out(4000, 6);
      for (int round = 0; round < 20; ++round) {
        std::vector<index_t> rows, next;
        const index_t stride = static_cast<index_t>(1 + (t + round) % 4);
        for (index_t r = static_cast<index_t>(t * 300); r < 4000; r += stride)
          rows.push_back(r);
        for (index_t r = static_cast<index_t>(round * 100); r < 4000; r += 3)
          next.push_back(r);
        IoEngine::Ticket ticket = engine.prefetch(next);
        engine.fetch_rows(rows, out.data());
        if (!rows_match(m, rows, out.data())) ++bad;
        ticket.wait();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(bad.load(), 0);
}

// ProfileEvents-style: sem.device_read_us records one sample per device
// request — a cold fetch over three merged extents records three, a warm
// repeat none.
TEST_F(SemTest, DeviceReadHistogramCountsExtents) {
#ifdef KNOR_NO_OBS
  GTEST_SKIP() << "metrics compiled out";
#endif
  data::GeneratorSpec spec;
  spec.n = 1000;
  spec.d = 8;
  const std::string p = make_matrix(spec);
  PageFile file(p, 512);
  PageCache cache(1 << 20, 512, 2);
  IoEngine engine(file, cache, 1);
  std::vector<index_t> rows;  // pages {0,1}, {25,26}, {62,63}
  for (const index_t base : {0u, 200u, 500u})
    for (index_t r = base; r < base + 10; ++r) rows.push_back(r);
  DenseMatrix out(static_cast<index_t>(rows.size()), 8);
  obs::Registry& reg = obs::Registry::global();
  const auto samples = [&](const obs::Snapshot& before) {
    const obs::Snapshot slice = obs::diff(before, reg.snapshot());
    const obs::Metric* h = slice.find("sem.device_read_us");
    return h == nullptr ? std::uint64_t{0} : h->hist.count;
  };

  obs::Snapshot before = reg.snapshot();
  engine.fetch_rows(rows, out.data());  // cold
  EXPECT_EQ(file.read_requests(), 3u);
  EXPECT_EQ(samples(before), 3u);

  before = reg.snapshot();
  engine.fetch_rows(rows, out.data());  // warm
  EXPECT_EQ(samples(before), 0u);
}

TEST(RowCacheTest, LazyRefreshSchedule) {
  RowCache rc(1 << 16, 8, 2);
  rc.set_update_interval(5);
  std::vector<int> refresh_iters;
  for (int it = 1; it <= 45; ++it) {
    if (rc.begin_iteration(it) == RowCache::Mode::kRefresh) {
      refresh_iters.push_back(it);
      rc.publish();
    }
  }
  EXPECT_EQ(refresh_iters, (std::vector<int>{5, 10, 20, 40}));
}

TEST(RowCacheTest, OfferOnlyDuringRefreshAndLookupAfterPublish) {
  RowCache rc(1 << 16, 4, 1);
  rc.set_update_interval(1);
  const value_t row[4] = {1, 2, 3, 4};

  // Static iteration: offers are ignored.
  rc.set_update_interval(5);
  EXPECT_EQ(rc.begin_iteration(1), RowCache::Mode::kStatic);
  rc.offer(0, 7, row);
  rc.publish();
  EXPECT_EQ(rc.lookup(0, 7), nullptr);

  // Refresh iteration: offer then publish makes the row visible.
  rc.set_update_interval(2);
  EXPECT_EQ(rc.begin_iteration(2), RowCache::Mode::kRefresh);
  rc.offer(0, 7, row);
  EXPECT_EQ(rc.lookup(0, 7), nullptr);  // not yet published
  rc.publish();
  const value_t* got = rc.lookup(0, 7);
  ASSERT_NE(got, nullptr);
  for (int j = 0; j < 4; ++j) EXPECT_EQ(got[j], row[j]);
  EXPECT_EQ(rc.resident_rows(), 1u);
}

TEST(RowCacheTest, RefreshFlushesPreviousContents) {
  RowCache rc(1 << 16, 2, 1);
  rc.set_update_interval(1);
  const value_t a[2] = {1, 1};
  const value_t b[2] = {2, 2};
  rc.begin_iteration(1);
  rc.offer(0, 100, a);
  rc.publish();
  ASSERT_NE(rc.lookup(0, 100), nullptr);
  rc.begin_iteration(2);
  rc.offer(0, 200, b);
  rc.publish();
  EXPECT_EQ(rc.lookup(0, 100), nullptr);  // flushed
  EXPECT_NE(rc.lookup(0, 200), nullptr);
}

TEST(RowCacheTest, BudgetCapsResidency) {
  RowCache rc(4 * 8 * sizeof(value_t), 8, 1);  // 4 rows
  rc.set_update_interval(1);
  const value_t row[8] = {};
  rc.begin_iteration(1);
  for (index_t r = 0; r < 100; ++r) rc.offer(0, r, row);
  rc.publish();
  EXPECT_EQ(rc.resident_rows(), 4u);
}

// --- knors end-to-end -------------------------------------------------------

class KnorsConfig
    : public SemTest,
      public ::testing::WithParamInterface<std::tuple<bool, bool, int>> {};

TEST_P(KnorsConfig, MatchesKnoriClustering) {
  const auto [prune, row_cache, threads] = GetParam();
  data::GeneratorSpec spec;
  spec.n = 6000;
  spec.d = 12;
  spec.true_clusters = 8;
  spec.seed = 17;
  const std::string path = make_matrix(spec);
  const DenseMatrix m = data::generate(spec);

  Options opts;
  opts.k = 8;
  opts.threads = threads;
  opts.max_iters = 40;
  opts.seed = 5;
  opts.prune = prune;

  const Result ref = kmeans(m.const_view(), opts);

  SemOptions sopts;
  sopts.page_size = 512;
  sopts.page_cache_bytes = 64 << 10;
  sopts.row_cache_bytes = 128 << 10;
  sopts.row_cache_enabled = row_cache;
  sopts.io_batch_rows = 256;
  SemStats stats;
  const Result res = kmeans(path, opts, sopts, &stats);

  EXPECT_EQ(res.iters, ref.iters);
  EXPECT_EQ(res.converged, ref.converged);
  const double rel = std::abs(res.energy - ref.energy) / ref.energy;
  EXPECT_LT(rel, 1e-9);
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < ref.assignments.size(); ++i)
    if (res.assignments[i] != ref.assignments[i]) ++mismatched;
  EXPECT_EQ(mismatched, 0u);
  EXPECT_EQ(stats.per_iter.size(), res.iters);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, KnorsConfig,
    ::testing::Combine(::testing::Bool(),      // prune
                       ::testing::Bool(),      // row cache
                       ::testing::Values(1, 4)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "mti" : "nomti") + "_" +
             (std::get<1>(info.param) ? "rc" : "norc") + "_t" +
             std::to_string(std::get<2>(info.param));
    });

TEST_F(SemTest, Clause1SkipsReduceRequestedBytes) {
  data::GeneratorSpec spec;
  spec.n = 8000;
  spec.d = 16;
  spec.true_clusters = 6;
  const std::string path = make_matrix(spec);

  Options opts;
  opts.k = 6;
  opts.threads = 2;
  opts.max_iters = 30;

  SemOptions sopts;
  sopts.row_cache_enabled = false;  // isolate the pruning effect
  SemStats pruned_stats;
  opts.prune = true;
  kmeans(path, opts, sopts, &pruned_stats);

  SemStats full_stats;
  opts.prune = false;
  kmeans(path, opts, sopts, &full_stats);

  // knors- requests the full matrix every iteration; knors must request
  // strictly less after the first iteration.
  EXPECT_LT(pruned_stats.total_requested(), full_stats.total_requested());
  const auto row_bytes = 16 * sizeof(value_t);
  for (const auto& iter : full_stats.per_iter)
    EXPECT_EQ(iter.bytes_requested, 8000u * row_bytes);
}

TEST_F(SemTest, RowCacheReducesBytesRead) {
  data::GeneratorSpec spec;
  spec.n = 8000;
  spec.d = 16;
  spec.true_clusters = 6;
  const std::string path = make_matrix(spec);

  Options opts;
  opts.k = 6;
  opts.threads = 2;
  opts.max_iters = 40;

  SemOptions with_rc;
  with_rc.page_cache_bytes = 32 << 10;  // tiny page cache isolates the RC
  with_rc.row_cache_bytes = 1 << 20;
  SemOptions without_rc = with_rc;
  without_rc.row_cache_enabled = false;

  SemStats rc_stats, norc_stats;
  kmeans(path, opts, with_rc, &rc_stats);
  kmeans(path, opts, without_rc, &norc_stats);

  EXPECT_LT(rc_stats.total_read(), norc_stats.total_read());
  std::uint64_t hits = 0;
  for (const auto& iter : rc_stats.per_iter) hits += iter.row_cache_hits;
  EXPECT_GT(hits, 0u);
}

// Row-cache admission is a pure function of (data, opts): the
// abl_cache_interval I_cache = 2 configuration (n = 2000, d = 32, k = 10,
// T = 4) reads one hit count on every run, under work stealing and under
// the static policy alike.
TEST_F(SemTest, RowCacheHitsIndependentOfScheduling) {
  data::GeneratorSpec spec;
  spec.dist = data::Distribution::kNaturalClusters;
  spec.n = 2000;
  spec.d = 32;
  spec.true_clusters = 128;
  spec.power_law_alpha = 1.5;
  spec.separation = 8.0;
  spec.seed = 1332;
  const std::string p = make_matrix(spec);
  SemOptions sopts;
  sopts.page_cache_bytes = 1 << 20;
  sopts.row_cache_bytes = spec.bytes() / 8;
  sopts.cache_update_interval = 2;
  std::vector<std::uint64_t> counts;
  for (const sched::SchedPolicy policy : {sched::SchedPolicy::kNumaAware,
                                   sched::SchedPolicy::kStatic}) {
    for (int run = 0; run < 20; ++run) {
      Options opts;
      opts.k = 10;
      opts.threads = 4;
      opts.max_iters = 40;
      opts.seed = 42;
      opts.sched = policy;
      SemStats stats;
      const Result res = kmeans(p, opts, sopts, &stats);
      std::uint64_t hits = 0;
      for (const auto& it : stats.per_iter) hits += it.row_cache_hits;
      EXPECT_EQ(static_cast<std::uint64_t>(
                    res.metrics.value_or("sem.row_cache_hits", -1)),
                hits);
      counts.push_back(hits);
    }
  }
  EXPECT_GT(counts.front(), 0u);
  for (const std::uint64_t c : counts) EXPECT_EQ(c, counts.front());
}

TEST_F(SemTest, ActiveRowsShrinkOverIterations) {
  data::GeneratorSpec spec;
  spec.n = 6000;
  spec.d = 8;
  spec.true_clusters = 5;
  const std::string path = make_matrix(spec);
  Options opts;
  opts.k = 5;
  opts.threads = 2;
  opts.max_iters = 30;
  SemOptions sopts;
  SemStats stats;
  kmeans(path, opts, sopts, &stats);
  ASSERT_GE(stats.per_iter.size(), 3u);
  EXPECT_EQ(stats.per_iter[0].active_rows, 6000u);  // first iter: everything
  // Convergence tail must be far below the first iteration.
  EXPECT_LT(stats.per_iter.back().active_rows, 6000u);
}

TEST_F(SemTest, UnsupportedInitThrows) {
  data::GeneratorSpec spec;
  spec.n = 100;
  spec.d = 4;
  const std::string path = make_matrix(spec);
  Options opts;
  opts.k = 3;
  opts.init = Init::kKmeansPP;
  EXPECT_THROW(kmeans(path, opts, SemOptions{}), std::invalid_argument);
}

TEST_F(SemTest, HostileMatrixHeaderRejected) {
  // A .kmat whose header declares exabytes of rows over a 1KB file must be
  // rejected by name before the SEM engine sizes any per-row state from it
  // (fuzz corpus: tests/fuzz/corpus/matrix_io).
  data::GeneratorSpec spec;
  spec.n = 16;
  spec.d = 4;
  const std::string path = make_matrix(spec, "hostile.kmat");
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    const std::uint64_t huge = 1ull << 61;
    ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);  // n field
    ASSERT_EQ(std::fwrite(&huge, sizeof(huge), 1, f), 1u);
    std::fclose(f);
  }
  Options opts;
  opts.k = 2;
  try {
    kmeans(path, opts, SemOptions{});
    FAIL() << "hostile header was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("hostile size field"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(SemTest, MissingFileThrows) {
  Options opts;
  opts.k = 2;
  EXPECT_THROW(kmeans(dir_ / "missing.kmat", opts, SemOptions{}),
               std::runtime_error);
}

TEST_F(SemTest, SsdCostModelSlowsReads) {
  data::GeneratorSpec spec;
  spec.n = 2000;
  spec.d = 8;
  const std::string path = make_matrix(spec);
  PageFile plain(path, 4096);
  SsdCostModel cost;
  cost.latency_us = 300;
  PageFile slow(path, 4096, cost);
  std::vector<unsigned char> buf(4096);
  const auto t0 = std::chrono::steady_clock::now();
  plain.read_pages(0, 1, buf.data());
  const auto t1 = std::chrono::steady_clock::now();
  slow.read_pages(0, 1, buf.data());
  const auto t2 = std::chrono::steady_clock::now();
  EXPECT_GT((t2 - t1).count(), (t1 - t0).count());
}

}  // namespace
}  // namespace knor::sem

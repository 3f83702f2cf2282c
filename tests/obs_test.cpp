// Observability-layer tests (DESIGN.md §10): histogram bucket math against
// a sorted-vector oracle, counter shard-merge determinism under concurrent
// bumps (a TSan target), span nesting well-formedness, and the end-to-end
// strip-diff contract — the deterministic half of an engine run's metrics
// is bit-identical across repeated runs at T=1 and T=4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "knor/knor.hpp"

namespace {

using namespace knor;

#ifndef KNOR_NO_OBS

// ---------------------------------------------------------------- buckets

TEST(ObsHistogram, BucketBoundsContainEveryValue) {
  // lo(bucket_of(v)) <= v <= hi(bucket_of(v)) over exact small values,
  // octave boundaries, and the extremes.
  std::vector<std::uint64_t> probes = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                       15, 16, 17, 100, 999, 4096};
  for (int shift = 10; shift < 64; shift += 7) {
    const std::uint64_t p = std::uint64_t{1} << shift;
    probes.insert(probes.end(), {p - 1, p, p + 1, p + p / 2});
  }
  probes.push_back(~std::uint64_t{0});
  for (const std::uint64_t v : probes) {
    const int b = obs::Histogram::bucket_of(v);
    ASSERT_GE(b, 0) << v;
    ASSERT_LT(b, obs::Histogram::kBuckets) << v;
    EXPECT_LE(obs::Histogram::bucket_lo(b), v) << "bucket " << b;
    EXPECT_GE(obs::Histogram::bucket_hi(b), v) << "bucket " << b;
  }
}

TEST(ObsHistogram, BucketsPartitionTheRange) {
  // Consecutive buckets tile [0, 2^64) with no gap or overlap, and the
  // relative bucket width never exceeds 25% (4 sub-buckets per octave).
  int last = obs::Histogram::bucket_of(0);
  EXPECT_EQ(last, 0);
  for (int b = 0; b + 1 < obs::Histogram::kBuckets; ++b) {
    const std::uint64_t hi = obs::Histogram::bucket_hi(b);
    if (hi == ~std::uint64_t{0}) break;  // top occupied bucket
    EXPECT_EQ(obs::Histogram::bucket_lo(b + 1), hi + 1) << "bucket " << b;
    EXPECT_EQ(obs::Histogram::bucket_of(hi), b);
    EXPECT_EQ(obs::Histogram::bucket_of(hi + 1), b + 1);
    const std::uint64_t lo = obs::Histogram::bucket_lo(b);
    if (lo >= 4) {
      EXPECT_LE(static_cast<double>(hi + 1 - lo), 0.25 * lo + 1)
          << "bucket " << b;
    }
  }
}

TEST(ObsHistogram, QuantilesMatchSortedVectorOracle) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("t.lat_us", obs::Det::kTiming);
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> oracle;
  for (int i = 0; i < 5000; ++i) {
    // Log-uniform-ish spread: small exact values through multi-million.
    const std::uint64_t v = rng() % (std::uint64_t{1} << (4 + rng() % 20));
    oracle.push_back(v);
    h.record(v);
  }
  std::sort(oracle.begin(), oracle.end());

  const obs::Snapshot snap = reg.snapshot();
  const obs::Metric* m = snap.find("t.lat_us");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->hist.count, oracle.size());
  EXPECT_EQ(m->hist.max, oracle.back());
  std::uint64_t sum = 0;
  for (const std::uint64_t v : oracle) sum += v;
  EXPECT_EQ(m->hist.sum, sum);

  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(oracle.size()))));
    const std::uint64_t truth = oracle[static_cast<std::size_t>(rank - 1)];
    const double est = m->hist.quantile(q);
    // The estimate is the midpoint of the bucket holding the rank sample:
    // it can never leave that bucket, which bounds the relative error by
    // the 25% bucket width.
    EXPECT_GE(est,
              static_cast<double>(
                  obs::Histogram::bucket_lo(obs::Histogram::bucket_of(truth))))
        << "q=" << q;
    EXPECT_LE(est,
              static_cast<double>(
                  obs::Histogram::bucket_hi(obs::Histogram::bucket_of(truth))))
        << "q=" << q;
  }
  EXPECT_TRUE(std::isnan(obs::HistogramData{}.quantile(0.5)));
}

// ----------------------------------------------------------- shard merge

TEST(ObsCounter, ConcurrentBumpsMergeExactly) {
  // The TSan conformance target: T threads hammer one counter and one
  // histogram; the shard merge must produce the exact arithmetic total
  // regardless of which thread landed in which shard.
  obs::Registry reg;
  obs::Counter& c = reg.counter("t.bumps", obs::Det::kDeterministic);
  obs::Histogram& h = reg.histogram("t.hist", obs::Det::kTiming);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add(static_cast<std::uint64_t>(t + 1));
        h.record(static_cast<std::uint64_t>(i % 257));
      }
    });
  for (std::thread& w : workers) w.join();

  std::uint64_t expect = 0;
  for (int t = 0; t < kThreads; ++t)
    expect += static_cast<std::uint64_t>(t + 1) * kPerThread;
  EXPECT_EQ(c.value(), expect);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.max(), 256u);
}

// -------------------------------------------------------- registry rules

TEST(ObsRegistry, RegistrationIsIdempotentAndStrict) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x.n", obs::Det::kDeterministic);
  EXPECT_EQ(&a, &reg.counter("x.n", obs::Det::kDeterministic));
  // One name can never straddle the kind or deterministic/timing split.
  EXPECT_THROW(reg.counter("x.n", obs::Det::kTiming), std::logic_error);
  EXPECT_THROW(reg.gauge("x.n", obs::Det::kDeterministic), std::logic_error);
  EXPECT_THROW(reg.histogram("x.n", obs::Det::kDeterministic),
               std::logic_error);
}

TEST(ObsRegistry, DiffSubtractsCountersAndKeepsGauges) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("x.n", obs::Det::kDeterministic);
  obs::Gauge& g = reg.gauge("x.depth", obs::Det::kTiming);
  obs::Counter& idle = reg.counter("x.idle", obs::Det::kDeterministic);
  c.add(10);
  g.set(5);
  const obs::Snapshot before = reg.snapshot();
  c.add(7);
  g.set(3);
  (void)idle;  // registered but never bumped between the snapshots
  const obs::Snapshot delta = obs::diff(before, reg.snapshot());
  EXPECT_EQ(delta.value_or("x.n", -1), 7);
  EXPECT_EQ(delta.value_or("x.depth", -1), 3);  // gauges: point-in-time
  // Zero-delta counters drop out of the per-run view entirely.
  EXPECT_EQ(delta.find("x.idle"), nullptr);
}

TEST(ObsRegistry, JsonSplitsDeterministicFromTiming) {
  obs::Registry reg;
  reg.counter("det.rows", obs::Det::kDeterministic).add(42);
  reg.histogram("wall.lat_us", obs::Det::kTiming).record(100);
  const std::string json = reg.snapshot().to_json();
  const std::size_t det = json.find("\"deterministic\"");
  const std::size_t tim = json.find("\"timing\"");
  ASSERT_NE(det, std::string::npos);
  ASSERT_NE(tim, std::string::npos);
  EXPECT_LT(det, tim);
  const std::size_t rows = json.find("\"det.rows\": 42");
  const std::size_t lat = json.find("\"wall.lat_us\"");
  ASSERT_NE(rows, std::string::npos);
  ASSERT_NE(lat, std::string::npos);
  // Each metric lands inside its half of the document.
  EXPECT_LT(rows, tim);
  EXPECT_GT(lat, tim);
  EXPECT_NE(json.find("\"schema\": \"knor-metrics-v1\""), std::string::npos);
}

// ----------------------------------------------------------------- spans

TEST(ObsSpan, NestingIsWellFormed) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable();
  const std::size_t events0 = tracer.event_count();
  EXPECT_EQ(obs::Span::depth(), 0);
  {
    obs::Span outer("t_outer");
    EXPECT_EQ(obs::Span::depth(), 1);
    {
      obs::Span inner("t_inner");
      EXPECT_EQ(obs::Span::depth(), 2);
    }
    EXPECT_EQ(obs::Span::depth(), 1);
  }
  EXPECT_EQ(obs::Span::depth(), 0);
  EXPECT_EQ(tracer.event_count(), events0 + 2);

  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"t_outer\""), std::string::npos);
  EXPECT_NE(json.find("\"t_inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);

  // Every span also lands in the global registry's phase histograms.
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  const obs::Metric* outer_m = snap.find("phase.t_outer");
  const obs::Metric* inner_m = snap.find("phase.t_inner");
  ASSERT_NE(outer_m, nullptr);
  ASSERT_NE(inner_m, nullptr);
  EXPECT_GE(outer_m->hist.count, 1u);
  EXPECT_GE(inner_m->hist.count, 1u);
  // RAII closes inner first, so the outer duration covers the inner one.
  EXPECT_GE(outer_m->hist.max, inner_m->hist.max);
}

// ------------------------------------------------- end-to-end strip-diff

/// Canonical serialization of a snapshot's deterministic partition — the
/// in-process equivalent of `knor_bench --strip` on a --metrics file.
std::string det_fingerprint(const obs::Snapshot& snap) {
  std::string out;
  for (const obs::Metric& m : snap.metrics) {
    if (m.det != obs::Det::kDeterministic) continue;
    out += m.name;
    out += '=';
    if (m.kind == obs::Kind::kHistogram) {
      out += 'h' + std::to_string(m.hist.count) + ':' +
             std::to_string(m.hist.sum);
      for (const auto& [idx, n] : m.hist.buckets)
        out += ',' + std::to_string(idx) + 'x' + std::to_string(n);
    } else {
      out += std::to_string(m.value);
    }
    out += ';';
  }
  return out;
}

TEST(ObsStripDiff, DeterministicPartitionStableAcrossRunsAndThreads) {
  data::GeneratorSpec spec;
  spec.n = 4000;
  spec.d = 8;
  spec.true_clusters = 5;
  const DenseMatrix m = data::generate(spec);

  for (const int threads : {1, 4}) {
    Options opts;
    opts.k = 5;
    opts.threads = threads;
    opts.max_iters = 12;
    opts.seed = 11;
    const Result a = kmeans(m.const_view(), opts);
    const Result b = kmeans(m.const_view(), opts);
    ASSERT_FALSE(a.metrics.empty()) << "T=" << threads;
    const std::string fa = det_fingerprint(a.metrics);
    const std::string fb = det_fingerprint(b.metrics);
    EXPECT_FALSE(fa.empty()) << "T=" << threads;
    EXPECT_EQ(fa, fb) << "T=" << threads;
    // The per-run slice carries the engine's work counters.
    EXPECT_GT(a.metrics.value_or("core.dist_computations", 0), 0)
        << "T=" << threads;
    EXPECT_EQ(a.metrics.value_or("core.iterations", -1),
              b.metrics.value_or("core.iterations", -2))
        << "T=" << threads;
  }
}

TEST(ObsCounterParity, MetricsAgreeWithResultCountersForEveryEngine) {
  // The counter-parity contract (core/run_metrics.hpp): whatever an engine
  // reports in Result::counters must appear, identically, in its --metrics
  // registry slice. PR 6 wired only the parallel engine; this pins the
  // mapping for every entry point so the two surfaces cannot drift.
  data::GeneratorSpec spec;
  spec.n = 1500;
  spec.d = 6;
  spec.true_clusters = 4;
  const DenseMatrix m = data::generate(spec);

  Options opts;
  opts.k = 4;
  opts.threads = 2;
  opts.max_iters = 10;
  opts.seed = 23;
  // Every third row labeled: seeded_kmeans computes no distance for it.
  std::vector<cluster_t> labels(m.rows(), kInvalidCluster);
  for (index_t r = 0; r < m.rows(); r += 3)
    labels[r] = static_cast<cluster_t>(r % 4);

  struct Case {
    const char* name;
    std::function<Result()> run;
  };
  const std::vector<Case> cases = {
      {"knori", [&] { return kmeans(m.const_view(), opts); }},
      {"gemm", [&] { return gemm_kmeans(m.const_view(), opts); }},
      {"serial", [&] { return lloyd_serial(m.const_view(), opts); }},
      {"locked", [&] { return lloyd_locked(m.const_view(), opts); }},
      {"elkan", [&] { return elkan_ti(m.const_view(), opts); }},
      {"minibatch",
       [&] { return minibatch(m.const_view(), opts, MinibatchOptions{}); }},
      {"spherical", [&] { return spherical_kmeans(m.const_view(), opts); }},
      {"seeded", [&] { return seeded_kmeans(m.const_view(), opts, labels); }},
  };
  for (const auto& c : cases) {
    const Result res = c.run();
    ASSERT_FALSE(res.metrics.empty()) << c.name;
    // Zero-delta counters drop out of the diff; absent means 0.
    EXPECT_EQ(res.metrics.value_or("core.dist_computations", 0),
              static_cast<std::int64_t>(res.counters.dist_computations))
        << c.name;
    EXPECT_EQ(res.metrics.value_or("core.clause1_skips", 0),
              static_cast<std::int64_t>(res.counters.clause1_skips))
        << c.name;
    EXPECT_EQ(res.metrics.value_or("core.iterations", -1),
              static_cast<std::int64_t>(res.iters))
        << c.name;
    EXPECT_EQ(res.metrics.value_or("sched.tasks_own", 0),
              static_cast<std::int64_t>(res.counters.tasks_own))
        << c.name;
    EXPECT_GT(res.counters.dist_computations, 0u) << c.name;
  }
}

TEST(ObsRunSlice, DriverEnginesEmitTheirPhases) {
  // Every engine on the shared driver carries the driver's phase spans in
  // its registry slice, and the slice is taken around the whole fit: knori
  // opens its init span inside it.
  data::GeneratorSpec spec;
  spec.n = 1500;
  spec.d = 6;
  spec.true_clusters = 4;
  const DenseMatrix m = data::generate(spec);

  Options opts;
  opts.k = 4;
  opts.threads = 2;
  opts.max_iters = 10;
  opts.seed = 23;
  std::vector<cluster_t> labels(m.rows(), kInvalidCluster);
  for (index_t r = 0; r < m.rows(); r += 3)
    labels[r] = static_cast<cluster_t>(r % 4);

  const Result knori = kmeans(m.const_view(), opts);
  ASSERT_NE(knori.metrics.find("phase.init"), nullptr);
  EXPECT_EQ(knori.metrics.find("phase.init")->hist.count, 1u);

  struct Case {
    const char* name;
    Result res;
  };
  const Case cases[] = {
      {"knori", knori},
      {"elkan", elkan_ti(m.const_view(), opts)},
      {"gemm", gemm_kmeans(m.const_view(), opts)},
      {"spherical", spherical_kmeans(m.const_view(), opts)},
      {"seeded", seeded_kmeans(m.const_view(), opts, labels)},
  };
  for (const Case& c : cases) {
    // One assign and one update span per iteration, one energy pass.
    const std::pair<const char*, std::uint64_t> phases[] = {
        {"phase.assign", c.res.iters},
        {"phase.update", c.res.iters},
        {"phase.energy", 1}};
    for (const auto& [phase, count] : phases) {
      const obs::Metric* metric = c.res.metrics.find(phase);
      ASSERT_NE(metric, nullptr) << c.name << " " << phase;
      EXPECT_EQ(metric->hist.count, count) << c.name << " " << phase;
    }
  }
}

#else  // KNOR_NO_OBS

TEST(ObsCompiledOut, SnapshotsAreEmptyAndBumpsAreNoOps) {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("x.n", obs::Det::kDeterministic).add(5);
  EXPECT_TRUE(reg.snapshot().empty());
  { obs::Span span("t_phase"); }
  EXPECT_EQ(obs::Span::depth(), 0);
}

#endif  // KNOR_NO_OBS

}  // namespace

// The four benchmark workloads. Each one generates its inputs from the
// seed, times set-up, repeats its measured operation for the run length,
// checks every output against an independent recomputation, and — in the
// traced run — adds the per-layer numbers. perfbench/README.md gives the
// reasons for each shape and which layer metric should move which
// end-to-end metric.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "common/memory_tracker.hpp"
#include "common/prng.hpp"

namespace pb {
namespace {

using knor::DenseMatrix;
using knor::Result;
using knor::data::Distribution;
using knor::data::GeneratorSpec;

constexpr int kSetupReps = 5;  ///< set-up is repeated; its median is reported
constexpr int kMinFits = 3;    ///< fits per run however long each one takes

// ---- workload shapes ---------------------------------------------------------

struct Shape {
  index_t n, d;
  int k, cap;
};
constexpr Shape kKnori{2'000'000, 32, 64, 10};
constexpr Shape kKnord{500'000, 16, 256, 6};
constexpr int kKnordRanks = 2, kKnordThreadsPerRank = 2;
constexpr Shape kKnors{500'000, 32, 64, 10};
constexpr std::size_t kKnorsPageCache = 16u << 20, kKnorsRowCache = 32u << 20;
constexpr Shape kServeTrain{300'000, 32, 256, 10};
constexpr index_t kServePool = 65'536;
constexpr index_t kServeRowsPerRequest = 8;
constexpr std::uint64_t kServeRequestsPerRound = 500;
constexpr int kServeClients = 2, kServeTopmEvery = 10, kServeM = 4;
constexpr std::uint64_t kServeCheckRequests = 400;
constexpr double kServeShare = 0.5;  ///< of the run spent serving

int nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

GeneratorSpec spec_of(Distribution dist, const Shape& s, std::uint64_t seed) {
  GeneratorSpec g;
  g.dist = dist;
  g.n = s.n;
  g.d = s.d;
  g.seed = seed;
  return g;
}

knor::Options fit_options(const Shape& s, std::uint64_t seed, int threads) {
  knor::Options o;
  o.k = s.k;
  o.max_iters = s.cap;
  o.tolerance = 0;
  o.init = knor::Init::kForgy;
  o.seed = seed;
  o.threads = threads;
  return o;
}

double peak_rss_mb() {
  return static_cast<double>(knor::peak_rss_bytes()) / 1e6;
}

void manifest_shape(Report& rep, const GeneratorSpec& g, const Shape& s) {
  rep.manifest("shape.dist", knor::data::to_string(g.dist));
  rep.manifest("shape.n", static_cast<double>(g.n));
  rep.manifest("shape.d", static_cast<double>(g.d));
  rep.manifest("shape.k", s.k);
  rep.manifest("shape.iteration_cap", s.cap);
  rep.manifest("shape.bytes", static_cast<double>(g.bytes()));
  rep.manifest("shape.data_seed", static_cast<double>(g.seed));
}

void manifest_host(Report& rep, const Args& args) {
  const HostInfo h = host_info();
  rep.manifest("workload", args.workload);
  rep.manifest("seed", static_cast<double>(args.seed));
  rep.manifest("run_seconds", args.seconds);
  rep.manifest("cpu_model", h.cpu_model);
  rep.manifest("nproc", h.nproc);
  rep.manifest("numa_nodes", h.numa_nodes);
  rep.manifest("llc_bytes", static_cast<double>(h.llc_bytes));
  rep.manifest("isa", knor::kernels::to_string(
                          knor::kernels::resolve(knor::kernels::Isa::kAuto)));
  rep.manifest("compiler", PB_CXX_COMPILER);
  rep.manifest("cxx_flags", PB_CXX_FLAGS);
}

// ---- the measured fit loop ---------------------------------------------------

struct FitStats {
  std::vector<double> fit_s;
  std::vector<double> iter_s;  ///< every Lloyd iteration of the measured fits
  Result last;                ///< the last measured fit
  knor::obs::Snapshot slice;  ///< registry delta around it, init included
  std::uint64_t hash = 0;
  /// VmHWM after set-up and the first fit. Read here, not at exit, because
  /// the allocator keeps freed memory between fits, so a later reading
  /// would grow with the number of fits the run length allowed.
  double peak_rss_mb = 0;
};

/// What the shared fit runner needs from a workload.
struct FitWorkload {
  Shape shape;
  int ranks = 1;  ///< knord's rank count; 1 elsewhere
  /// One set-up repetition, its per-layer metric and its trace span.
  std::function<void()> setup;
  const char* setup_metric = "data.generate_s";
  const char* setup_span = "data.generate";
  /// Runs the workload's clustering call with MTI on or off.
  std::function<Result(bool prune)> fit;
  /// The fitted data, for the output check and the kernel timings.
  std::function<RowSource()> rows;
  /// Per-layer numbers only this workload has (may be empty).
  std::function<void(const FitStats&)> layers;
};

/// Checks one fit against the data and that its assignments hash the same
/// as the run's first fit (the engine is deterministic for a fixed input
/// and seed).
void check_one(Report& rep, const char* what, const Result& r,
               const FitWorkload& wl, std::uint64_t* hash) {
  const Shape& s = wl.shape;
  std::string err = check_fit(wl.rows(), s.n, s.d, r, s.k, s.cap);
  if (err.empty()) err = check_counters(r, wl.ranks);
  const std::uint64_t h = assignment_hash(r.assignments);
  if (err.empty() && *hash != 0 && h != *hash)
    err = "assignment hash differs from this run's first fit";
  if (*hash == 0) *hash = h;
  rep.check(what, err);
}

/// One untimed warm-up fit (a process pays its first-fit costs once), then
/// the fit repeated until `seconds` have passed, at least kMinFits times.
/// Every result is checked outside the timed region. `after_fit`, when
/// set, runs after each measured fit, outside its timing, with the fit and
/// its wall time: serve-mixed serves between its training fits.
FitStats measure_fits(
    Report& rep, const FitWorkload& wl, double seconds,
    const std::function<void(const Result&, double)>& after_fit = {}) {
  FitStats fs;
  check_one(rep, "warm-up fit", wl.fit(true), wl, &fs.hash);
  fs.peak_rss_mb = peak_rss_mb();
  knor::obs::Registry& reg = knor::obs::Registry::global();
  const double t_end = now_s() + seconds;
  while (fs.fit_s.size() < kMinFits || now_s() < t_end) {
    const knor::obs::Snapshot before = reg.snapshot();
    Result r;
    fs.fit_s.push_back(timed([&] { r = wl.fit(true); }));
    fs.slice = knor::obs::diff(before, reg.snapshot());
    const std::vector<double>& it = r.iter_times.samples();
    fs.iter_s.insert(fs.iter_s.end(), it.begin(), it.end());
    check_one(rep, "fit", r, wl, &fs.hash);
    if (after_fit) after_fit(r, fs.fit_s.back());
    fs.last = std::move(r);
  }
  std::fprintf(stderr, "  %zu fits, median %.4f s:", fs.fit_s.size(),
               median(fs.fit_s));
  for (const double t : fs.fit_s) std::fprintf(stderr, " %.3f", t);
  std::fprintf(stderr, "\n");
  return fs;
}

double computed_read_bytes(const Result& r, index_t n, index_t d) {
  return (static_cast<double>(n) * static_cast<double>(r.iters) -
          static_cast<double>(r.counters.clause1_skips)) *
         static_cast<double>(d) * sizeof(double);
}

double hist_sum_s(const knor::obs::Snapshot& m, const char* name) {
  const knor::obs::Metric* x = m.find(name);
  return x ? static_cast<double>(x->hist.sum) / 1e6 : 0.0;
}

/// op_p50_us is the median latency of the workload's unit of progress: a
/// Lloyd iteration here; run_serve replaces it with a request's.
void report_end_to_end(Report& rep, double setup_s, const FitStats& fs) {
  rep.metric("setup_s", setup_s, "s");
  rep.metric("fit_s", median(fs.fit_s), "s");
  rep.metric("peak_rss_mb", fs.peak_rss_mb, "MB");
  rep.metric("op_p50_us", median(fs.iter_s) * 1e6, "us");
}

// ---- per-layer numbers --------------------------------------------------------

/// core.* and sched.* from the last measured fit. `ranks` undoes knord's
/// per-rank summing of the phase.* histograms (README.md, counter hygiene).
void report_core_layers(Report& rep, const FitStats& fs, const Shape& s,
                        int ranks) {
  const Result& r = fs.last;
  const knor::Counters& c = r.counters;
  const double fit_s = fs.fit_s.back();  // the wall time of `r` itself
  const double row_iters = static_cast<double>(s.n) * r.iters;
  const double nr = ranks;
  rep.metric("core.iterations", static_cast<double>(r.iters), "count");
  rep.metric("core.dist_computations",
             static_cast<double>(c.dist_computations), "count");
  rep.metric("core.clause1_skips", static_cast<double>(c.clause1_skips),
             "count");
  rep.metric("core.clause2_skips", static_cast<double>(c.clause2_skips),
             "count");
  rep.metric("core.clause3_skips", static_cast<double>(c.clause3_skips),
             "count");
  rep.metric("core.dist_frac",
             static_cast<double>(c.dist_computations) / (row_iters * s.k),
             "ratio");
  rep.metric("core.clause1_skip_frac",
             static_cast<double>(c.clause1_skips) / row_iters, "ratio");
  const double assign_s = hist_sum_s(fs.slice, "phase.assign") / nr;
  rep.metric("core.assign_s", assign_s, "s");
  rep.metric("core.update_s", hist_sum_s(fs.slice, "phase.update") / nr, "s");
  rep.metric("core.energy_s", hist_sum_s(fs.slice, "phase.energy") / nr, "s");
  rep.metric("core.init_s", hist_sum_s(fs.slice, "phase.init") / nr, "s");
  double busy = 0, busy_max = 0;
  for (const double b : r.thread_busy_s) {
    busy += b;
    busy_max = std::max(busy_max, b);
  }
  rep.metric("core.ns_per_dist",
             c.dist_computations ? busy * 1e9 / c.dist_computations : 0, "ns");
  // Computed, not measured: the rows assign had to read times the row
  // size, over assign's wall time.
  rep.metric("core.assign_gbps",
             assign_s > 0 ? computed_read_bytes(r, s.n, s.d) / assign_s / 1e9
                          : 0,
             "GB/s");

  rep.metric("sched.chunks",
             static_cast<double>(fs.slice.value_or("sched.chunks", 0)),
             "count");
  const double tasks = static_cast<double>(c.tasks_own + c.tasks_same_node +
                                           c.tasks_remote_node);
  rep.metric("sched.steal_frac",
             tasks > 0 ? (c.tasks_same_node + c.tasks_remote_node) / tasks : 0,
             "ratio");
  const double T = static_cast<double>(r.thread_busy_s.size());
  rep.metric("sched.busy_imbalance", busy > 0 ? busy_max / (busy / T) : 0,
             "ratio");
  rep.metric("sched.idle_frac", T > 0 ? 1.0 - busy / (T * fit_s) : 0,
             "ratio");
}

/// Every per-layer metric with its unit. A traced run reports all of them;
/// layers its workload does not run read 0.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"data.generate_s", "s"}, {"data.kmat_write_s", "s"},
    {"sem.bytes_requested", "count"}, {"sem.bytes_read", "count"},
    {"sem.read_amplification", "ratio"}, {"sem.device_requests", "count"},
    {"sem.device_pages", "count"}, {"sem.row_cache_hits", "count"},
    {"sem.row_cache_hit_frac", "ratio"}, {"sem.io_wait_s", "s"},
    {"sem.io_wait_frac", "ratio"}, {"sem.pread_gbps", "GB/s"},
    {"dist.collective_messages", "count"}, {"dist.collective_bytes", "count"},
    {"dist.allreduce_s", "s"}, {"dist.allreduce_frac", "ratio"},
    {"dist.allreduce_us", "us"}, {"serve.batches", "count"},
    {"serve.rows_per_batch", "ratio"}, {"serve.queue_wait_us_p50", "us"},
    {"serve.queue_wait_us_p99", "us"}, {"serve.compute_us_p50", "us"},
    {"serve.compute_us_p99", "us"}, {"serve.shed", "count"},
    {"serve.req_p50_us", "us"}, {"serve.req_p99_us", "us"},
    {"serve.requests", "count"}, {"serve.rows_per_s", "rows/s"},
};

void fill_absent_layers(Report& rep) {
  for (const auto& [name, unit] : kLayerMetrics)
    if (!rep.has(name)) rep.metric(name, 0, unit);
}

/// A no-prune fit against the measured (pruned) ones: core.prune_gain.
/// Pruning is exact, so it must also land on the same assignments.
void report_prune_gain(Report& rep, const FitWorkload& wl, const FitStats& fs) {
  knor::obs::Registry& reg = knor::obs::Registry::global();
  const knor::obs::Snapshot before = reg.snapshot();
  const Result plain = wl.fit(false);
  const knor::obs::Snapshot slice = knor::obs::diff(before, reg.snapshot());
  std::uint64_t hash = fs.hash;
  check_one(rep, "no-prune fit", plain, wl, &hash);
  const double pruned = hist_sum_s(fs.slice, "phase.assign");
  const double unpruned = hist_sum_s(slice, "phase.assign");
  rep.metric("core.prune_gain", pruned > 0 ? unpruned / pruned : 0, "ratio");
}

/// Turns tracing on for the rest of the run, then repeats one set-up and
/// one fit inside benchmark spans: obs.trace_overhead. Returns the fit.
Result traced_setup_and_fit(Report& rep, const FitWorkload& wl,
                            const FitStats& fs) {
  knor::obs::Tracer::global().enable();
  {
    knor::obs::Span span(wl.setup_span);
    wl.setup();
  }
  Result traced;
  const double traced_s = timed([&] {
    knor::obs::Span span("bench.fit");
    traced = wl.fit(true);
  });
  std::uint64_t hash = fs.hash;
  check_one(rep, "traced fit", traced, wl, &hash);
  rep.metric("obs.trace_overhead", traced_s / median(fs.fit_s), "ratio");
  return traced;
}

/// Roofline denominators: the FMA peak (returned) and a STREAM triad with
/// each array 4x the last-level cache. A traced run measures them first,
/// before the workload allocates anything.
double report_roofline(Report& rep) {
  std::string unit;
  const double peak = fma_peak_gflops(nproc(), &unit);
  rep.manifest("fma_probe_unit", unit);
  rep.metric("kernels.peak_gflops", peak, "GFLOP/s");
  const HostInfo h = host_info();
  const std::size_t llc = h.llc_bytes ? h.llc_bytes : (32u << 20);
  const std::size_t array_bytes = 4 * llc;
  rep.manifest("triad_array_bytes", static_cast<double>(array_bytes));
  rep.manifest("triad_llc_bytes", static_cast<double>(llc));
  rep.metric("mem.triad_gbps", triad_gbps(array_bytes, nproc()), "GB/s");
  return peak;
}

/// Kernel timings on up to 64k of this workload's rows and its (k, d).
void report_kernels(Report& rep, const RowSource& rows, index_t n,
                    const DenseMatrix& centroids, double peak_gflops) {
  DenseMatrix sample(std::min<index_t>(n, 65'536), centroids.cols());
  rows(0, sample.rows(), sample.view());
  const knor::kernels::Ops& ops = knor::kernels::ops_for(
      knor::kernels::resolve(knor::kernels::Isa::kAuto));
  KernelTimes kt;
  {
    knor::obs::Span span("kernels.timing");
    kt = time_kernels(ops, sample.const_view(), centroids);
  }
  rep.metric("kernels.nearest_blocked_ns_per_row",
             kt.nearest_blocked_ns_per_row, "ns/row");
  rep.metric("kernels.gemm_argmin_ns_per_row", kt.gemm_argmin_ns_per_row,
             "ns/row");
  rep.metric("kernels.dist_sq_ns", kt.dist_sq_ns, "ns");
  // nearest_blocked does a subtract and a fused multiply-add per element
  // (3 flops) on one thread, so it is compared with one core's share.
  const double flops_per_row =
      3.0 * static_cast<double>(centroids.rows()) * centroids.cols();
  const double gflops = flops_per_row / kt.nearest_blocked_ns_per_row;
  rep.metric("kernels.frac_peak", gflops / (peak_gflops / nproc()), "ratio");
}

/// Writes the Chrome trace next to the results.
void write_trace(const Args& args) {
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace.json";
  std::ofstream out(path);
  out << knor::obs::Tracer::global().to_chrome_json();
  if (!out) throw std::runtime_error("cannot write " + path);
  std::fprintf(stderr, "  trace: %s\n", path.c_str());
}

/// Median wall time of kSetupReps set-up repetitions.
double time_setup(const std::function<void()>& setup) {
  std::vector<double> t;
  for (int i = 0; i < kSetupReps; ++i) t.push_back(timed(setup));
  return median(t);
}

/// The flow every clustering workload shares. Untraced: set-up, measured
/// fits, end-to-end metrics. Traced: roofline probes, the same set-up and
/// fits, then per-layer numbers, a no-prune fit, one traced set-up and
/// fit, the kernel timings and the Chrome trace.
void run_fit_workload(const Args& args, Report& rep, const FitWorkload& wl) {
  const double peak = args.trace ? report_roofline(rep) : 0;
  const double setup_s = time_setup(wl.setup);
  const FitStats fs = measure_fits(rep, wl, args.seconds);
  if (!args.trace) {
    report_end_to_end(rep, setup_s, fs);
    return;
  }
  rep.metric(wl.setup_metric, setup_s, "s");
  report_core_layers(rep, fs, wl.shape, wl.ranks);
  if (wl.layers) wl.layers(fs);
  report_prune_gain(rep, wl, fs);

  const Result traced = traced_setup_and_fit(rep, wl, fs);
  report_kernels(rep, wl.rows(), wl.shape.n, traced.centroids, peak);
  fill_absent_layers(rep);
  write_trace(args);
}

// ---- knori-natural and knord-uniform -----------------------------------------

void run_in_memory(const Args& args, Report& rep, bool dist) {
  const Shape s = dist ? kKnord : kKnori;
  const GeneratorSpec spec =
      spec_of(dist ? Distribution::kUniformRandom
                   : Distribution::kNaturalClusters,
              s, args.seed);
  manifest_shape(rep, spec, s);
  const int T = dist ? kKnordThreadsPerRank : nproc();
  rep.manifest("threads", T);
  if (dist) rep.manifest("ranks", kKnordRanks);

  DenseMatrix data;
  FitWorkload wl;
  wl.shape = s;
  wl.ranks = dist ? kKnordRanks : 1;
  wl.setup = [&] {
    data = DenseMatrix();  // release before regenerating: one copy at a time
    data = knor::data::generate(spec);
  };
  const knor::Options base = fit_options(s, args.seed, T);
  wl.fit = [&](bool prune) {
    knor::Options o = base;
    o.prune = prune;
    if (!dist) return knor::kmeans(data.const_view(), o);
    knor::dist::DistOptions dopts;
    dopts.ranks = kKnordRanks;
    dopts.threads_per_rank = kKnordThreadsPerRank;
    return knor::dist::kmeans(data.const_view(), o, dopts);
  };
  wl.rows = [&] { return rows_of(data.const_view()); };
  if (dist)
    wl.layers = [&](const FitStats& fs) {
      const double iters = static_cast<double>(fs.last.iters);
      const knor::obs::Snapshot& m = fs.last.metrics;
      rep.metric("dist.collective_messages",
                 m.value_or("dist.collective_messages", 0) / iters, "count");
      rep.metric("dist.collective_bytes",
                 m.value_or("dist.collective_bytes", 0) / iters, "count");
      const double allreduce_s =
          hist_sum_s(fs.slice, "phase.allreduce") / kKnordRanks;
      rep.metric("dist.allreduce_s", allreduce_s, "s");
      rep.metric("dist.allreduce_frac", allreduce_s / fs.fit_s.back(),
                 "ratio");
      rep.metric("dist.allreduce_us",
                 allreduce_us(kKnordRanks,
                              static_cast<std::size_t>(s.k) * s.d + s.k + 1),
                 "us");
    };
  run_fit_workload(args, rep, wl);
}

// ---- knors-natural -----------------------------------------------------------

/// Deletes the workload's data file however the run ends.
struct FileGuard {
  std::string path;
  ~FileGuard() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

void run_knors(const Args& args, Report& rep) {
  const Shape s = kKnors;
  const GeneratorSpec spec =
      spec_of(Distribution::kNaturalClusters, s, args.seed);
  manifest_shape(rep, spec, s);
  const int T = nproc();
  rep.manifest("threads", T);
  knor::sem::SemOptions sopts;
  sopts.page_cache_bytes = kKnorsPageCache;
  sopts.row_cache_bytes = kKnorsRowCache;
  rep.manifest("sem.page_cache_bytes", static_cast<double>(kKnorsPageCache));
  rep.manifest("sem.row_cache_bytes", static_cast<double>(kKnorsRowCache));
  rep.manifest("sem.device",
               "a .kmat file in the OS page cache: device reads are preads "
               "served from RAM");

  const FileGuard file{args.out_dir + "/knors-natural-seed" +
                       std::to_string(args.seed) + ".kmat"};
  knor::sem::SemStats stats;  // of the latest fit
  FitWorkload wl;
  wl.shape = s;
  wl.setup = [&] { knor::data::write_generated(file.path, spec); };
  wl.setup_metric = "data.kmat_write_s";
  wl.setup_span = "data.kmat_write";
  const knor::Options base = fit_options(s, args.seed, T);
  wl.fit = [&](bool prune) {
    knor::Options o = base;
    o.prune = prune;
    stats = knor::sem::SemStats();
    return knor::sem::kmeans(file.path, o, sopts, &stats);
  };
  wl.rows = [&] { return rows_of_file(file.path); };
  wl.layers = [&](const FitStats& fs) {
    // Generation alone, streamed the way write_generated does it: the
    // write's own share is data.kmat_write_s minus this.
    DenseMatrix chunk(std::min<index_t>(s.n, 1 << 16), s.d);
    rep.metric("data.generate_s", timed([&] {
      for (index_t b = 0; b < s.n; b += chunk.rows()) {
        const index_t e = std::min(s.n, b + chunk.rows());
        knor::data::generate_rows(spec, b, e, chunk.view().sub_rows(0, e - b));
      }
    }), "s");
    // `stats` still holds the last measured fit's I/O.
    std::uint64_t hits = 0, active = 0;
    for (const knor::sem::IterIo& io : stats.per_iter) {
      hits += io.row_cache_hits;
      active += io.active_rows;
    }
    const double requested = static_cast<double>(stats.total_requested());
    const double read = static_cast<double>(stats.total_read());
    rep.metric("sem.bytes_requested", requested, "count");
    rep.metric("sem.bytes_read", read, "count");
    rep.metric("sem.read_amplification", requested > 0 ? read / requested : 0,
               "ratio");
    rep.metric("sem.device_requests",
               static_cast<double>(stats.total_device_requests()), "count");
    // sem.page_cache_misses reads 0 on the prefetch path (README.md), so
    // device pages are derived from the bytes read.
    rep.metric("sem.device_pages", read / static_cast<double>(sopts.page_size),
               "count");
    rep.metric("sem.row_cache_hits", static_cast<double>(hits), "count");
    rep.metric("sem.row_cache_hit_frac",
               active ? static_cast<double>(hits) / active : 0, "ratio");
    const double io_wait_s = hist_sum_s(fs.slice, "sem.io_wait_us");
    rep.metric("sem.io_wait_s", io_wait_s, "s");
    const double assign_s = hist_sum_s(fs.slice, "phase.assign");
    rep.metric("sem.io_wait_frac",
               assign_s > 0 ? io_wait_s / (T * assign_s) : 0, "ratio");
    rep.metric("sem.pread_gbps", pread_gbps(file.path, sopts.page_size),
               "GB/s");
  };
  run_fit_workload(args, rep, wl);
  // Record-only (not a BENCHMARK.json metric): the paper's I/O figure for the
  // last measured fit. `stats` is overwritten by later fits, so a traced
  // run reports sem.bytes_read instead.
  if (!args.trace)
    rep.metric("read_mb", static_cast<double>(stats.total_read()) / 1e6, "MB");
}

// ---- serve-mixed -------------------------------------------------------------

struct LoopTotals {
  std::vector<double> latencies_s;  ///< every request's, sorted
  std::vector<double> rows_per_s;   ///< one per round
  std::uint64_t requests = 0, completed = 0, shed = 0;
};

knor::serve::LoadOptions serve_load(std::uint64_t seed) {
  knor::serve::LoadOptions lo;
  lo.clients = kServeClients;
  lo.requests = kServeRequestsPerRound;
  lo.rows_per_request = kServeRowsPerRequest;
  lo.topm_every = kServeTopmEvery;
  lo.m = kServeM;
  lo.seed = seed;
  lo.pipeline = 1;
  return lo;
}

/// Closed-loop rounds of kServeRequestsPerRound requests, at least one,
/// until `seconds` have passed, added to `lt`. Round i of the run uses
/// seed + i. Throughput is taken per round so its median shrugs off a round
/// that shared the host with something else.
void closed_loop(knor::serve::QueryFrontEnd& fe, const DenseMatrix& pool,
                 std::uint64_t seed, double seconds, LoopTotals& lt) {
  const double t_end = now_s() + seconds;
  for (bool first = true; first || now_s() < t_end; first = false) {
    const std::uint64_t round = lt.rows_per_s.size();
    const knor::serve::LoadStats ls =
        knor::serve::run_closed_loop(fe, pool, serve_load(seed + round));
    lt.latencies_s.insert(lt.latencies_s.end(), ls.latencies_s.begin(),
                          ls.latencies_s.end());
    lt.requests += ls.requests;
    lt.completed += ls.completed;
    lt.shed += ls.shed;
    lt.rows_per_s.push_back(ls.completed_rows_per_sec());
  }
}

/// Submits kServeCheckRequests requests at once (so they coalesce), then
/// checks every response against the brute-force oracle.
void check_serving(Report& rep, knor::serve::QueryFrontEnd& fe,
                   const DenseMatrix& pool, const DenseMatrix& centroids,
                   std::uint64_t seed) {
  const index_t d = pool.cols();
  std::vector<DenseMatrix> rows;
  knor::Prng g(seed, 0xc4ec);
  for (std::uint64_t i = 0; i < kServeCheckRequests; ++i) {
    DenseMatrix req(kServeRowsPerRequest, d);
    for (index_t r = 0; r < kServeRowsPerRequest; ++r) {
      const index_t src = g.next_below(pool.rows());
      std::copy(pool.row(src), pool.row(src) + d, req.row(r));
    }
    rows.push_back(std::move(req));
  }
  const auto m_of = [](std::uint64_t i) {
    return i % kServeTopmEvery == 0 ? kServeM : 0;
  };
  std::vector<std::future<knor::serve::Response>> futs;
  for (std::uint64_t i = 0; i < kServeCheckRequests; ++i)
    futs.push_back(m_of(i) ? fe.submit_topm(rows[i].const_view(), m_of(i))
                           : fe.submit_assign(rows[i].const_view()));
  std::uint64_t failed = 0;
  std::string first_error;
  for (std::uint64_t i = 0; i < kServeCheckRequests; ++i) {
    const std::string err = check_response(
        futs[i].get(), rows[i].const_view(), centroids, m_of(i));
    if (!err.empty() && failed++ == 0) first_error = err;
  }
  if (failed > 0)
    std::fprintf(stderr, "  first wrong response: %s\n", first_error.c_str());
  rep.tally("serve responses", kServeCheckRequests, failed);
}

void run_serve(const Args& args, Report& rep) {
  const Shape s = kServeTrain;
  // One generator spec covers both halves: the first s.n rows train the
  // model and the next kServePool rows are the query pool, so queries
  // come from the same mixture the centroids were fitted on.
  GeneratorSpec spec = spec_of(Distribution::kNaturalClusters, s, args.seed);
  spec.n = s.n + kServePool;
  manifest_shape(rep, spec, s);
  rep.manifest("serve.train_rows", static_cast<double>(s.n));
  rep.manifest("serve.pool_rows", static_cast<double>(kServePool));
  rep.manifest("serve.loop", "closed");
  rep.manifest("serve.clients", kServeClients);
  rep.manifest("serve.pipeline", 1);
  rep.manifest("serve.worker_threads", 1);
  rep.manifest("serve.rows_per_request",
               static_cast<double>(kServeRowsPerRequest));
  rep.manifest("serve.topm_every", kServeTopmEvery);
  rep.manifest("serve.m", kServeM);
  const int T = nproc();
  rep.manifest("threads", T);

  DenseMatrix train, pool;
  FitWorkload wl;
  wl.shape = s;
  wl.setup = [&] {
    train = DenseMatrix(s.n, s.d);
    pool = DenseMatrix(kServePool, s.d);
    knor::data::generate_rows(spec, 0, s.n, train.view());
    knor::data::generate_rows(spec, s.n, spec.n, pool.view());
  };
  const knor::Options base = fit_options(s, args.seed, T);
  wl.fit = [&](bool prune) {
    knor::Options o = base;
    o.prune = prune;
    return knor::kmeans(train.const_view(), o);
  };
  wl.rows = [&] { return rows_of(train.const_view()); };

  const double peak = args.trace ? report_roofline(rep) : 0;
  const double generate_s = time_setup(wl.setup);
  DenseMatrix centroids;
  knor::Options fe_opts;
  fe_opts.threads = 1;
  std::unique_ptr<knor::serve::QueryFrontEnd> fe;
  const auto construct = [&] {
    fe.reset();
    fe = std::make_unique<knor::serve::QueryFrontEnd>(centroids, fe_opts);
  };
  double construct_s = 0;

  // Training fits and closed-loop serving alternate for the whole run, so
  // fit_s and the request latencies sample the same stretch of host time
  // and neither rests on a few seconds of it. Serving gets kServeShare of
  // the run. The front end serves the first measured fit's centroids; every
  // later fit has the same assignments (checked) and so the same centroids.
  knor::obs::Registry& reg = knor::obs::Registry::global();
  knor::obs::Snapshot before;
  LoopTotals lt;
  const FitStats fs = measure_fits(
      rep, wl, args.seconds, [&](const Result& r, double fit_s) {
        if (!fe) {
          centroids = r.centroids;
          construct_s = time_setup(construct);
          before = reg.snapshot();
        }
        closed_loop(*fe, pool, args.seed,
                    fit_s * kServeShare / (1 - kServeShare), lt);
      });
  const knor::obs::Snapshot slice = knor::obs::diff(before, reg.snapshot());
  std::sort(lt.latencies_s.begin(), lt.latencies_s.end());
  const double setup_s = generate_s + construct_s;
  rep.tally("serve requests", lt.requests, lt.requests - lt.completed);
  check_serving(rep, *fe, pool, centroids, args.seed);
  const double rows_per_s = median(lt.rows_per_s);
  std::fprintf(stderr, "  %llu requests in %zu rounds, %.0f rows/s\n",
               static_cast<unsigned long long>(lt.requests),
               lt.rows_per_s.size(), rows_per_s);
  if (!args.trace) {
    report_end_to_end(rep, setup_s, fs);
    // Serving's own memory counts too: read the peak after the loop.
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.metric("op_p50_us", sorted_quantile(lt.latencies_s, 0.5) * 1e6, "us");
    // Record-only: throughput and the latency tail of the same loop. Both
    // follow the host's steal time too closely to gate on (README.md).
    rep.metric("serve_rows_per_s", rows_per_s, "rows/s");
    rep.metric("req_p99_us", sorted_quantile(lt.latencies_s, 0.99) * 1e6, "us");
    rep.metric("req_samples", static_cast<double>(lt.latencies_s.size()),
               "count");
    return;
  }

  rep.metric("data.generate_s", generate_s, "s");
  report_core_layers(rep, fs, s, 1);
  const double batches =
      static_cast<double>(slice.value_or("serve.batches", 0));
  rep.metric("serve.batches", batches, "count");
  rep.metric("serve.rows_per_batch",
             batches > 0 ? slice.value_or("serve.rows", 0) / batches : 0,
             "ratio");
  rep.metric("serve.queue_wait_us_p50",
             slice.quantile_or("serve.queue_wait_us", 0.5, 0), "us");
  rep.metric("serve.queue_wait_us_p99",
             slice.quantile_or("serve.queue_wait_us", 0.99, 0), "us");
  rep.metric("serve.compute_us_p50",
             slice.quantile_or("serve.compute_us", 0.5, 0), "us");
  rep.metric("serve.compute_us_p99",
             slice.quantile_or("serve.compute_us", 0.99, 0), "us");
  rep.metric("serve.shed", static_cast<double>(lt.shed), "count");
  rep.metric("serve.rows_per_s", rows_per_s, "rows/s");
  rep.metric("serve.req_p50_us", sorted_quantile(lt.latencies_s, 0.5) * 1e6,
             "us");
  rep.metric("serve.req_p99_us", sorted_quantile(lt.latencies_s, 0.99) * 1e6,
             "us");
  rep.metric("serve.requests", static_cast<double>(lt.latencies_s.size()),
             "count");

  report_prune_gain(rep, wl, fs);
  traced_setup_and_fit(rep, wl, fs);
  {
    knor::obs::Span span("serve.construct");
    construct();
  }
  {
    knor::obs::Span span("serve.closed_loop");
    knor::serve::run_closed_loop(*fe, pool, serve_load(args.seed));
  }
  report_kernels(rep, rows_of(pool.const_view()), kServePool, centroids, peak);
  fill_absent_layers(rep);
  write_trace(args);
}

}  // namespace

bool run_workload(const Args& args, Report& rep) {
  manifest_host(rep, args);
  if (args.workload == "knori-natural" || args.workload == "knord-uniform")
    run_in_memory(args, rep, args.workload == "knord-uniform");
  else if (args.workload == "knors-natural")
    run_knors(args, rep);
  else if (args.workload == "serve-mixed")
    run_serve(args, rep);
  else
    return false;
  return true;
}

}  // namespace pb

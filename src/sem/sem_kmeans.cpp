#include "sem/sem_kmeans.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "common/memory_tracker.hpp"
#include "core/engine_impl.hpp"
#include "core/init.hpp"
#include "core/mti.hpp"
#include "numa/partitioner.hpp"
#include "obs/registry.hpp"
#include "sched/scheduler.hpp"
#include "sem/checkpoint.hpp"
#include "sem/io_engine.hpp"
#include "sem/page_cache.hpp"
#include "sem/row_cache.hpp"

namespace knor::sem {

std::uint64_t SemStats::total_requested() const {
  std::uint64_t total = 0;
  for (const auto& it : per_iter) total += it.bytes_requested;
  return total;
}

std::uint64_t SemStats::total_read() const {
  std::uint64_t total = 0;
  for (const auto& it : per_iter) total += it.bytes_read;
  return total;
}

std::uint64_t SemStats::total_device_requests() const {
  std::uint64_t total = 0;
  for (const auto& it : per_iter) total += it.device_requests;
  return total;
}

namespace {

DenseMatrix sem_init_centroids(PageFile& file, IoEngine& engine,
                               const Options& opts) {
  switch (opts.init) {
    case Init::kProvided: {
      if (opts.initial_centroids.rows() != static_cast<index_t>(opts.k) ||
          opts.initial_centroids.cols() != file.d())
        throw std::invalid_argument(
            "sem::kmeans: provided centroids shape mismatch");
      return opts.initial_centroids;
    }
    case Init::kForgy: {
      const auto rows = sample_rows(file.n(), opts.k, opts.seed);
      DenseMatrix centroids(static_cast<index_t>(opts.k), file.d());
      for (std::size_t i = 0; i < rows.size(); ++i)
        engine.fetch_rows({rows[i]}, centroids.row(static_cast<index_t>(i)));
      return centroids;
    }
    default:
      throw std::invalid_argument(
          "sem::kmeans: init must be kForgy or kProvided");
  }
}

/// knors as a data source of the shared Lloyd driver
/// (detail::run_parallel_lloyd; the Data concept in core/engine_impl.hpp).
/// Rows live on disk: a task's clause-1 survivors — decided before any
/// I/O — come from the row cache or from double-buffered IoEngine batches,
/// and reach the driver's per-row step in row order, exactly as an
/// in-memory source hands them over. That order is what makes knors fold
/// bitwise like knori on any data.
class SemData {
 public:
  SemData(PageFile& file, IoEngine& engine, RowCache& row_cache, bool use_rc,
          index_t task_size, int threads, index_t batch_rows, SemStats* stats)
      : file_(file),
        engine_(engine),
        rc_(row_cache),
        use_rc_(use_rc),
        d_(file.d()),
        task_size_(task_size),
        batch_rows_(batch_rows),
        stats_(stats),
        io_wait_us_(obs::Registry::global().histogram("sem.io_wait_us",
                                                      obs::Det::kTiming)),
        active_rows_(obs::Registry::global().counter(
            "sem.active_rows", obs::Det::kDeterministic)),
        scratch_(static_cast<std::size_t>(threads)) {
    for (IoScratch& s : scratch_) s.buf = DenseMatrix(batch_rows, d_);
  }

  template <typename NeedsData>
  void begin_iteration(int it, NeedsData&& needs_data) {
    if (use_rc_ && rc_.refresh_due(it + 1)) {
      // Plan the row cache's quotas from this iteration's clause-1
      // survivors per chunk (the workers' first pass, without its side
      // effects).
      std::vector<std::size_t> active(
          sched::Scheduler::num_chunks(file_.n(), task_size_), 0);
      for (index_t r = 0; r < file_.n(); ++r)
        if (needs_data(r)) ++active[static_cast<std::size_t>(r / task_size_)];
      rc_.plan(active);
    }
    refresh_ = use_rc_ && rc_.begin_iteration(it + 1) ==
                              RowCache::Mode::kRefresh;
    hits_before_ = rc_.hits();
  }

  void end_iteration() {
    if (refresh_) rc_.publish();
    const std::uint64_t active = active_.exchange(0);
    active_rows_.add(active);
    if (stats_ != nullptr) {
      IterIo io;
      io.bytes_requested = engine_.bytes_requested() - last_requested_;
      io.bytes_read = file_.bytes_read() - last_read_;
      io.device_requests = file_.read_requests() - last_reqs_;
      io.row_cache_hits = rc_.hits() - hits_before_;
      io.active_rows = active;
      stats_->per_iter.push_back(io);
    }
    last_requested_ = engine_.bytes_requested();
    last_read_ = file_.bytes_read();
    last_reqs_ = file_.read_requests();
  }

  template <typename Skip, typename Step>
  void visit_task(const numa::Partitioner&, int tid, const sched::Task& task,
                  Counters* cnt, Skip&& skip, Step&& step) {
    IoScratch& s = scratch_[static_cast<std::size_t>(tid)];
    if (cnt == nullptr) {
      // Final energy pass: stream every row once, in batches.
      for (index_t begin = task.begin; begin < task.end;
           begin += batch_rows_) {
        const index_t end = std::min(task.end, begin + batch_rows_);
        s.rows.clear();
        for (index_t r = begin; r < end; ++r) s.rows.push_back(r);
        engine_.fetch_rows(s.rows, s.buf.data());
        for (index_t r = begin; r < end; ++r) step(r, s.buf.row(r - begin));
      }
      return;
    }

    // Pass 1 — no data access: clause 1 decides which rows need data; the
    // row cache serves what it holds (offered in row order on a refresh,
    // ahead of the fetched rows) and the rest are queued for I/O.
    s.rows.clear();
    s.cached.clear();
    s.to_fetch.clear();
    for (index_t r = task.begin; r < task.end; ++r) {
      if (skip(r)) continue;
      const value_t* hit = use_rc_ ? rc_.lookup(task.chunk, r) : nullptr;
      if (hit == nullptr)
        s.to_fetch.push_back(r);
      else if (refresh_)
        rc_.offer(task.chunk, r, hit);
      s.rows.push_back(r);
      s.cached.push_back(hit);
    }
    active_.fetch_add(s.rows.size(), std::memory_order_relaxed);

    // Visit the survivors in row order: cached rows from the cache, the
    // rest from the batch just fetched (`count` rows at `fetched`).
    std::size_t next = 0;
    const auto visit = [&](const value_t* fetched, std::size_t count) {
      for (std::size_t j = 0; next < s.rows.size(); ++next) {
        const index_t r = s.rows[next];
        const value_t* v = s.cached[next];
        if (v == nullptr) {
          if (j == count) return;
          v = fetched + j++ * d_;
          if (refresh_) rc_.offer(task.chunk, r, v);
        }
        step(r, v);
      }
    };
    // Double-buffered fetch: prefetch batch i+1 while processing batch i.
    const auto batch = [&](std::size_t pos) {
      const auto at = [&](std::size_t i) {
        return s.to_fetch.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(i, s.to_fetch.size()));
      };
      return std::vector<index_t>(at(pos), at(pos + batch_rows_));
    };
    for (std::size_t pos = 0; pos < s.to_fetch.size(); pos += batch_rows_) {
      const std::vector<index_t> now = batch(pos);
      IoEngine::Ticket ticket;
      if (pos + batch_rows_ < s.to_fetch.size())
        ticket = engine_.prefetch(batch(pos + batch_rows_));
      const std::uint64_t t0 = obs::Tracer::now_us();
      engine_.fetch_rows(now, s.buf.data());
      io_wait_us_.record(obs::Tracer::now_us() - t0);
      visit(s.buf.data(), now.size());
      ticket.wait();
    }
    visit(nullptr, 0);  // cached rows after the last fetched one
  }

 private:
  /// One worker's I/O staging: its current task's survivors, their cached
  /// rows, the rows left to fetch and the buffer a batch is read into.
  struct alignas(kCacheLine) IoScratch {
    std::vector<index_t> rows, to_fetch;
    std::vector<const value_t*> cached;
    DenseMatrix buf;
  };

  PageFile& file_;
  IoEngine& engine_;
  RowCache& rc_;
  const bool use_rc_;
  const index_t d_;
  const index_t task_size_;
  const index_t batch_rows_;
  SemStats* stats_;
  obs::Histogram& io_wait_us_;
  obs::Counter& active_rows_;
  std::vector<IoScratch> scratch_;
  bool refresh_ = false;
  std::atomic<std::uint64_t> active_{0};
  std::uint64_t hits_before_ = 0;
  std::uint64_t last_requested_ = 0;
  std::uint64_t last_read_ = 0;
  std::uint64_t last_reqs_ = 0;
};

/// Writes knors's lightweight checkpoint every `every` iterations from the
/// driver's iteration boundary (FlashGraph-style recovery, §2).
class CheckpointWriter final : public detail::IterObserver {
 public:
  CheckpointWriter(std::string path, int every)
      : path_(std::move(path)), every_(static_cast<std::uint64_t>(every)) {}

  bool on_iteration(const detail::IterationView& view) override {
    if (view.iteration % every_ != 0) return true;
    Checkpoint ckpt;
    ckpt.iteration = view.iteration;
    ckpt.centroids = *view.centroids;
    ckpt.assignments = *view.assignments;
    ckpt.upper_bounds = detail::checkpoint_bounds(view);
    if (view.sums != nullptr) {
      ckpt.sums = *view.sums;
      ckpt.counts = *view.counts;
    }
    save_checkpoint(path_, ckpt);
    return true;
  }

 private:
  const std::string path_;
  const std::uint64_t every_;
};

}  // namespace

Result kmeans(const std::string& path, const Options& opts,
              const SemOptions& sem_opts, SemStats* stats) {
  // Per-run registry slice (DESIGN.md §10), diffed around the whole run.
  detail::RunMetricsScope metrics;
  PageFile file(path, sem_opts.page_size, sem_opts.ssd);
  const index_t n = file.n();
  const index_t d = file.d();
  const int k = opts.k;
  if (k < 1) throw std::invalid_argument("sem::kmeans: k < 1");

  const detail::Workers workers(opts);
  const int T = workers.threads;

  PageCache page_cache(sem_opts.page_cache_bytes, sem_opts.page_size, T);
  IoEngine engine(file, page_cache, sem_opts.io_threads,
                  sem_opts.merge_gap_pages);
  ScopedAlloc mem_pc("sem-page-cache",
                     page_cache.capacity_pages() * sem_opts.page_size);

  // Resume from a lightweight checkpoint when requested (recovery path of
  // FlashGraph-style failure tolerance). Falls through to a fresh start
  // when no checkpoint exists yet. The driver validates the MTI state and
  // sums a pruned resume needs.
  detail::ResumeState resume;
  DenseMatrix initial;
  if (sem_opts.resume && !sem_opts.checkpoint_path.empty() &&
      checkpoint_exists(sem_opts.checkpoint_path)) {
    Checkpoint restored = load_checkpoint(sem_opts.checkpoint_path);
    if (restored.n() != n || restored.k() != k ||
        restored.centroids.cols() != d)
      throw std::runtime_error(
          "sem::kmeans: checkpoint shape does not match dataset/options");
    resume.iteration = restored.iteration;
    resume.assignments = std::move(restored.assignments);
    resume.upper_bounds = std::move(restored.upper_bounds);
    resume.sums = std::move(restored.sums);
    resume.counts = std::move(restored.counts);
    initial = std::move(restored.centroids);
  } else {
    initial = sem_init_centroids(file, engine, opts);
  }

  numa::Partitioner parts(n, T, workers.topo);
  sched::Scheduler sched(T, workers.topo, /*bind=*/opts.numa_bind, opts.sched);
  const index_t task_size =
      sched::Scheduler::resolve_task_size(n, opts.task_size);
  const auto chunks =
      static_cast<std::size_t>(sched::Scheduler::num_chunks(n, task_size));

  // The row cache is partitioned over the same chunk grid, so what it
  // holds is independent of steal order (row_cache.hpp).
  const bool use_rc = sem_opts.row_cache_enabled &&
                      sem_opts.row_cache_bytes > 0;
  RowCache row_cache(use_rc ? sem_opts.row_cache_bytes : 0, d, chunks);
  row_cache.set_update_interval(sem_opts.cache_update_interval);
  ScopedAlloc mem_rc("sem-row-cache",
                     use_rc ? row_cache.capacity_rows() * d * sizeof(value_t)
                            : 0);

  // Per-iteration I/O statistics start after initialization's reads.
  engine.reset_stats();
  file.reset_stats();
  SemData data(file, engine, row_cache, use_rc, task_size, T,
               sem_opts.io_batch_rows == 0 ? 2048 : sem_opts.io_batch_rows,
               stats);
  CheckpointWriter writer(sem_opts.checkpoint_path,
                          sem_opts.checkpoint_interval);
  const bool checkpoints = !sem_opts.checkpoint_path.empty() &&
                           sem_opts.checkpoint_interval > 0;
  Result res = detail::run_parallel_lloyd(
      data, n, d, opts, std::move(initial), sched, parts, nullptr, &resume,
      checkpoints ? &writer : nullptr);
  // The driver counts on from the checkpoint; report this call's share.
  res.iters -= static_cast<std::size_t>(resume.iteration);

  // Publish the run's SEM counters (classification per the SemStats
  // contract in sem_kmeans.hpp): demand-side request volume, row-cache
  // hits and clause-1 active-row counts (sem.active_rows, added per
  // iteration) are pure functions of (data, opts); supply-side page traffic
  // races on which worker faults a shared page first, so page-cache
  // hits/misses, device bytes and request counts are timing-class. The
  // driver already published the core.* and sched.* counters.
  using obs::Det;
  obs::Registry& reg = obs::Registry::global();
  reg.counter("sem.bytes_requested", Det::kDeterministic)
      .add(engine.bytes_requested());
  reg.counter("sem.row_cache_hits", Det::kDeterministic)
      .add(row_cache.hits());
  reg.counter("sem.bytes_read", Det::kTiming).add(file.bytes_read());
  reg.counter("sem.device_requests", Det::kTiming)
      .add(file.read_requests());
  reg.counter("sem.page_cache_hits", Det::kTiming).add(page_cache.hits());
  reg.counter("sem.page_cache_misses", Det::kTiming)
      .add(page_cache.misses());
  metrics.attach(res);
  return res;
}

}  // namespace knor::sem

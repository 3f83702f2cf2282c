#include "stream/stream_engine.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/chunk_accum.hpp"
#include "core/init.hpp"
#include "core/kernels/simd.hpp"
#include "core/local_centroids.hpp"
#include "data/matrix_io.hpp"
#include "numa/topology.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "sched/scheduler.hpp"

namespace knor::stream {

/// Scheduler + reusable per-batch accumulators. The chunk grid is a pure
/// function of (batch rows, task_size), so the accumulator block is rebuilt
/// only when a batch's chunk count changes (steady-state streams reuse it).
struct StreamEngine::Impl {
  Impl(const Options& opts)
      : workers(opts),
        sched(workers.threads, workers.topo,
              /*bind=*/opts.numa_aware && opts.numa_bind, opts.sched),
        ops(&kernels::ops_for(opts.simd)) {}

  detail::Workers workers;
  sched::Scheduler sched;
  /// Resolved once at construction: the engine stays on one ISA for its
  /// whole life even if another engine retargets the process-global
  /// dispatch (the per-selected-ISA determinism contract).
  const kernels::Ops* ops;
  kernels::CentroidPack pack;
  std::unique_ptr<ChunkAccum<LocalCentroids>> accum;
  std::vector<double> chunk_sse;
};

StreamEngine::StreamEngine(const Options& opts, const StreamOptions& sopts)
    : opts_(opts), sopts_(sopts) {
  if (opts_.k < 1) throw std::invalid_argument("stream: k must be >= 1");
  if (!(sopts_.decay > 0.0) || sopts_.decay > 1.0)
    throw std::invalid_argument("stream: decay must be in (0, 1]");
  if (sopts_.batch_rows < 1)
    throw std::invalid_argument("stream: batch_rows must be >= 1");
  if (sopts_.snapshot_every > 0 && sopts_.snapshot_path.empty())
    throw std::invalid_argument(
        "stream: snapshot_every requires a snapshot path");
  weights_.assign(static_cast<std::size_t>(opts_.k), 0.0);
  counts_.assign(static_cast<std::size_t>(opts_.k), 0);
  impl_ = std::make_unique<Impl>(opts_);
  if (opts_.init == Init::kProvided) {
    if (opts_.initial_centroids.rows() != static_cast<index_t>(opts_.k) ||
        opts_.initial_centroids.cols() == 0)
      throw std::invalid_argument("stream: provided centroids must be k x d");
    centroids_ = opts_.initial_centroids;
    d_ = centroids_.cols();
  }
}

StreamEngine::~StreamEngine() = default;

void StreamEngine::ingest(ConstMatrixView batch) {
  if (batch.empty()) return;
  if (d_ == 0) d_ = batch.cols();
  if (batch.cols() != d_)
    throw std::invalid_argument("stream: batch has " +
                                std::to_string(batch.cols()) +
                                " columns, stream has " + std::to_string(d_));
  stats_.rows += batch.rows();

  if (!ready()) {
    // Buffer rows until the configured init has k rows to draw from; a
    // first batch that is already big enough skips the copy entirely.
    if (seed_rows_ == 0 && batch.rows() >= static_cast<index_t>(opts_.k)) {
      centroids_ = init_centroids(batch, opts_);
      apply_batch(batch);
      return;
    }
    const index_t need = seed_rows_ + batch.rows();
    if (seed_buffer_.rows() < need) {
      DenseMatrix grown(std::max(need, seed_buffer_.rows() * 2), d_);
      if (seed_rows_ > 0)
        std::memcpy(grown.data(), seed_buffer_.data(),
                    static_cast<std::size_t>(seed_rows_) * d_ *
                        sizeof(value_t));
      seed_buffer_ = std::move(grown);
    }
    std::memcpy(seed_buffer_.row(seed_rows_), batch.data(),
                batch.size() * sizeof(value_t));
    seed_rows_ = need;
    if (seed_rows_ >= static_cast<index_t>(opts_.k)) seed_from_buffer();
    return;
  }
  apply_batch(batch);
}

void StreamEngine::seed_from_buffer() {
  const ConstMatrixView seed(seed_buffer_.data(), seed_rows_, d_);
  centroids_ = init_centroids(seed, opts_);
  apply_batch(seed);
  seed_buffer_ = DenseMatrix();
  seed_rows_ = 0;
}

void StreamEngine::apply_batch(ConstMatrixView batch) {
  WallTimer timer;
  // Batch/row throughput is deterministic (replaying a stream ingests the
  // same rows in the same batches); the phase spans below are timing.
  {
    using obs::Det;
    obs::Registry& reg = obs::Registry::global();
    reg.counter("stream.batches", Det::kDeterministic).inc();
    reg.counter("stream.rows", Det::kDeterministic)
        .add(static_cast<std::uint64_t>(batch.rows()));
  }
  const index_t m = batch.rows();
  const int k = opts_.k;
  const int T = impl_->workers.threads;
  const kernels::Ops& K = *impl_->ops;

  impl_->pack.pack(centroids_);
  const index_t task_size =
      sched::Scheduler::resolve_task_size(m, opts_.task_size);
  const auto chunks = static_cast<std::size_t>(
      sched::Scheduler::num_chunks(m, task_size));
  if (impl_->accum == nullptr || impl_->accum->size() != chunks)
    impl_->accum =
        std::make_unique<ChunkAccum<LocalCentroids>>(chunks, k, d_);
  else
    impl_->accum->next_iteration();
  impl_->chunk_sse.assign(chunks, 0.0);

  ChunkAccum<LocalCentroids>& accum = *impl_->accum;
  std::vector<double>& chunk_sse = impl_->chunk_sse;
  auto& sched = impl_->sched;
  sched.begin_chunks(m, task_size, nullptr);
  {
    obs::Span span_assign("assign");
    sched.run([&](int tid) {
      sched::Task task;
      while (sched.next_chunk(tid, task)) {
        LocalCentroids& acc = accum.touch(task.chunk);
        double sse = 0.0;
        for (index_t r = task.begin; r < task.end; ++r) {
          const value_t* row = batch.row(r);
          value_t best_sq = 0;
          const cluster_t best = K.nearest_blocked(row, impl_->pack, &best_sq);
          acc.add(best, row);
          sse += static_cast<double>(best_sq);
        }
        chunk_sse[task.chunk] = sse;
      }
      // One barrier, then the fixed-tree fold into slot 0 (DESIGN.md §7).
      sched.barrier().arrive_and_wait();
      accum.fold(tid, T, sched.barrier());
    });
  }

  // Decayed update, applied sequentially in cluster order: a pure function
  // of (previous state, merged batch accumulator) — no thread dependence.
  obs::Span span_update("update");
  const LocalCentroids& merged = accum.merged();
  const double decay = sopts_.decay;
  for (int c = 0; c < k; ++c) {
    const auto m_c = static_cast<double>(merged.count(c));
    const double w_old = weights_[static_cast<std::size_t>(c)];
    const double w_new = decay * w_old + m_c;
    if (m_c > 0) {
      const value_t* s = merged.sum(static_cast<cluster_t>(c));
      value_t* centre = centroids_.row(static_cast<index_t>(c));
      for (index_t j = 0; j < d_; ++j)
        centre[j] = (decay * w_old * centre[j] + s[j]) / w_new;
      counts_[static_cast<std::size_t>(c)] +=
          static_cast<std::int64_t>(merged.count(c));
    }
    weights_[static_cast<std::size_t>(c)] = w_new;
  }

  double sse = 0.0;
  for (const double e : chunk_sse) sse += e;
  stats_.last_batch_sse = sse;
  ++stats_.batches;
  stats_.batch_times.record(timer.elapsed());

  if (sopts_.snapshot_every > 0 &&
      stats_.batches % static_cast<std::uint64_t>(sopts_.snapshot_every) == 0) {
    save_snapshot(sopts_.snapshot_path);
    ++stats_.snapshots;
  }
}

index_t StreamEngine::ingest_file(const std::string& path) {
  data::RowReader reader(path);
  if (d_ != 0 && reader.d() != d_)
    throw std::invalid_argument("stream: " + path + " has d=" +
                                std::to_string(reader.d()) +
                                ", stream has d=" + std::to_string(d_));
  DenseMatrix batch(std::min(sopts_.batch_rows, reader.n()), reader.d());
  for (index_t begin = 0; begin < reader.n(); begin += sopts_.batch_rows) {
    const index_t end = std::min(reader.n(), begin + sopts_.batch_rows);
    MutMatrixView view(batch.data(), end - begin, reader.d());
    reader.read(begin, end, view);
    ingest(ConstMatrixView(view.data(), view.rows(), view.cols()));
  }
  return reader.n();
}

sem::Checkpoint StreamEngine::snapshot() const {
  if (!ready())
    throw std::runtime_error("stream: cannot snapshot before the first batch");
  sem::Checkpoint ckpt;
  ckpt.iteration = stats_.batches;
  ckpt.centroids = centroids_;
  ckpt.weights = weights_;
  ckpt.counts = counts_;
  return ckpt;
}

void StreamEngine::save_snapshot(const std::string& path) const {
  sem::save_checkpoint(path, snapshot());
}

void StreamEngine::restore(const sem::Checkpoint& ckpt) {
  if (ckpt.weights.empty())
    throw std::invalid_argument(
        "stream: checkpoint has no weights block (not a stream snapshot)");
  if (ckpt.k() != opts_.k ||
      ckpt.weights.size() != static_cast<std::size_t>(opts_.k) ||
      ckpt.counts.size() != static_cast<std::size_t>(opts_.k))
    throw std::invalid_argument("stream: snapshot k mismatch");
  if (d_ != 0 && ckpt.centroids.cols() != d_)
    throw std::invalid_argument("stream: snapshot d mismatch");
  centroids_ = ckpt.centroids;
  d_ = centroids_.cols();
  weights_ = ckpt.weights;
  counts_ = ckpt.counts;
  stats_.batches = ckpt.iteration;
  seed_buffer_ = DenseMatrix();
  seed_rows_ = 0;
}

}  // namespace knor::stream

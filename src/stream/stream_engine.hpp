// Streaming k-means — clustering an unbounded source (DESIGN.md §9).
//
// The trained engines (knori/knors/knord) need the whole dataset up front;
// StreamEngine instead ingests batches as they arrive and maintains the
// centroids with decayed mini-batch updates:
//
//   per batch b (m_c rows and coordinate sum s_c assigned to cluster c):
//     W_c      <- decay * W_c + m_c
//     centre_c <- (decay * W_c_old * centre_c + s_c) / W_c    (m_c > 0)
//
// decay = 1 makes centre_c the exact running mean of every row ever
// assigned to c — mini-batch k-means' estimator, which is why
// core/minibatch is a decay-1 replay of its sampled batches through this
// engine.
// decay < 1 exponentially forgets old batches, which is what lets the
// centroids track a drifting source.
//
// Determinism contract (extends DESIGN.md §7 to streams): each batch is
// assigned against frozen centroids on the work-stealing scheduler with
// per-CHUNK accumulators folded by the fixed tree, and the decayed update
// is applied sequentially in cluster order. For a fixed batch replay
// (same rows, same batch boundaries) the centroids, weights and counts
// are therefore BITWISE identical across thread counts, scheduling
// policies and steal schedules — only timings vary.
//
// Snapshots reuse sem/checkpoint: a stream snapshot is {batches ingested,
// centroids, per-cluster weights + row counts} with no per-point state
// (the stream is unbounded). save/restore round-trips bitwise, so a
// restored engine replaying the remaining batches matches an uninterrupted
// run exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/dense_matrix.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/kmeans_types.hpp"
#include "sem/checkpoint.hpp"

namespace knor::stream {

struct StreamOptions {
  /// Per-batch weight decay in (0, 1]. 1 = running mean over the whole
  /// stream; smaller forgets old batches exponentially (the effective
  /// window is ~batch_rows / (1 - decay) rows).
  double decay = 1.0;
  /// Rows per ingested batch when streaming from a file; direct ingest()
  /// callers choose their own batch sizes.
  index_t batch_rows = 4096;
  /// Auto-snapshot to snapshot_path every N ingested batches (0 = off).
  int snapshot_every = 0;
  std::string snapshot_path;
};

/// Per-engine instrumentation. The algorithmic fields (batches, rows,
/// last_batch_sse) are deterministic for a fixed replay; batch_times is
/// machine-dependent.
struct StreamStats {
  std::uint64_t batches = 0;    ///< batches applied to the centroids
  std::uint64_t rows = 0;       ///< rows ingested (incl. the seed buffer)
  std::uint64_t snapshots = 0;  ///< auto-snapshots written
  /// Sum of squared distances of the last batch's rows to the centroids
  /// they were assigned against (pre-update) — the streaming loss proxy.
  double last_batch_sse = 0.0;
  IterStats batch_times;
};

class StreamEngine {
 public:
  /// `opts` supplies k, seed/init, threads, NUMA/scheduler and SIMD
  /// selection (max_iters/tolerance/prune are ignored — a stream has no
  /// convergence). With Init::kProvided the engine is ready immediately;
  /// otherwise the first k ingested rows are buffered and the configured
  /// init runs on that buffer before it is applied as the first batch.
  StreamEngine(const Options& opts, const StreamOptions& sopts);
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Apply one batch. Empty batches are ignored; the column count must
  /// match across all batches (fixed by the first).
  void ingest(ConstMatrixView batch);

  /// Stream a .kmat file through ingest() in sopts.batch_rows chunks.
  /// Returns the number of rows ingested. Bounded memory: one batch.
  index_t ingest_file(const std::string& path);

  /// False until enough rows arrived to seed the centroids.
  bool ready() const { return !centroids_.empty(); }
  int k() const { return opts_.k; }
  index_t d() const { return d_; }
  const Options& options() const { return opts_; }

  const DenseMatrix& centroids() const { return centroids_; }
  const std::vector<value_t>& weights() const { return weights_; }
  /// Total rows ever assigned per cluster (monotonic, not decayed).
  const std::vector<std::int64_t>& counts() const { return counts_; }
  const StreamStats& stats() const { return stats_; }

  /// Current state as a sem::Checkpoint (n == 0, weights block set).
  sem::Checkpoint snapshot() const;
  void save_snapshot(const std::string& path) const;
  /// Resume from a snapshot(): bitwise-restores centroids/weights/counts.
  /// Throws std::invalid_argument on k/d mismatch or a non-stream
  /// checkpoint.
  void restore(const sem::Checkpoint& ckpt);

 private:
  struct Impl;

  void seed_from_buffer();
  void apply_batch(ConstMatrixView batch);

  Options opts_;
  StreamOptions sopts_;
  index_t d_ = 0;
  DenseMatrix centroids_;            ///< k x d (empty until ready)
  std::vector<value_t> weights_;     ///< k decayed batch weights
  std::vector<std::int64_t> counts_; ///< k total rows assigned
  DenseMatrix seed_buffer_;          ///< rows buffered before init
  index_t seed_rows_ = 0;
  StreamStats stats_;
  std::unique_ptr<Impl> impl_;  ///< scheduler + reusable accumulators
};

}  // namespace knor::stream

// Mini-batch k-means (Sculley, WWW'10) — the Sophia-ML stand-in from the
// paper's related work (§2). Approximate: per step, a sampled batch is
// assigned against frozen centroids, and each centre moves to the running
// mean of every row ever assigned to it (per-centre learning rates
// 1/count). Included to let benches contrast exact knor routines with the
// approximation the paper chose not to make.
//
// That running mean is what a decay-1 StreamEngine maintains (DESIGN.md
// §9), so mini-batch is a replay: the sampled batches go through a
// StreamEngine and the final full assignment through an AssignServer, both
// on the work-stealing scheduler with per-chunk accumulation, so the
// result is deterministic for a given (data, opts) regardless of threads.
#include <cstring>

#include "common/prng.hpp"
#include "common/timer.hpp"
#include "core/engines.hpp"
#include "core/init.hpp"
#include "core/run_metrics.hpp"
#include "stream/assign_server.hpp"
#include "stream/stream_engine.hpp"

namespace knor {

Result minibatch(ConstMatrixView data, const Options& opts,
                 const MinibatchOptions& mb) {
  knor::detail::RunMetricsScope run_metrics;
  const index_t n = data.rows();
  const index_t d = data.cols();

  Result res;
  Options replay = opts;
  replay.init = Init::kProvided;
  replay.initial_centroids = init_centroids(data, opts);
  {
    stream::StreamEngine engine(replay, stream::StreamOptions{});
    DenseMatrix batch(mb.batch_size, d);
    Prng rng(opts.seed, /*stream=*/0xba7c);
    for (int it = 0; it < mb.max_iters; ++it) {
      WallTimer timer;
      for (index_t i = 0; i < mb.batch_size; ++i)
        std::memcpy(batch.row(i), data.row(rng.next_below(n)),
                    d * sizeof(value_t));
      engine.ingest(batch.const_view());
      res.iter_times.record(timer.elapsed());
      ++res.iters;
    }
    res.centroids = engine.centroids();
  }

  // Final full assignment + energy (the approximation is in the centroids,
  // not in the reported clustering).
  stream::AssignServer server(res.centroids, opts);
  res.assignments.resize(static_cast<std::size_t>(n));
  std::vector<value_t> dist_sq(static_cast<std::size_t>(n));
  server.assign(data, res.assignments.data(), dist_sq.data());
  for (const value_t e : dist_sq) res.energy += e;
  const auto& sizes = server.served_histogram();
  res.cluster_sizes.assign(sizes.begin(), sizes.end());
  res.counters.dist_computations =
      (res.iters * mb.batch_size + n) * static_cast<std::uint64_t>(opts.k);
  res.converged = false;  // mini-batch has no membership-stability criterion
  run_metrics.finish(res);
  return res;
}

}  // namespace knor

// Mini-batch k-means (Sculley, WWW'10) — the Sophia-ML stand-in from the
// paper's related work (§2). Approximate: per step, a sampled batch is
// assigned and centroids move with per-centre learning rates 1/count.
// Included to let benches contrast exact knor routines with the
// approximation the paper chose not to make.
//
// The batch assignment and the final full assignment run on the
// work-stealing scheduler (the gradient step is inherently sequential —
// each update changes the learning rate of the next). The final energy is
// accumulated per chunk and summed in chunk order, so the reported result
// is deterministic for a given (data, opts) regardless of threads.
#include <vector>

#include "common/prng.hpp"
#include "common/timer.hpp"
#include "core/engines.hpp"
#include "core/kernels/simd.hpp"
#include "core/run_metrics.hpp"
#include "core/init.hpp"
#include "sched/scheduler.hpp"

namespace knor {

Result minibatch(ConstMatrixView data, const Options& opts,
                 const MinibatchOptions& mb) {
  const kernels::Ops& K = kernels::ops_for(opts.simd);
  knor::detail::RunMetricsScope run_metrics;
  const index_t n = data.rows();
  const index_t d = data.cols();
  const int k = opts.k;

  Result res;
  DenseMatrix cur = init_centroids(data, opts);
  kernels::CentroidPack pack;
  std::vector<index_t> counts(static_cast<std::size_t>(k), 0);
  std::vector<index_t> batch(static_cast<std::size_t>(mb.batch_size));
  std::vector<cluster_t> batch_assign(static_cast<std::size_t>(mb.batch_size));
  Prng rng(opts.seed, /*stream=*/0xba7c);

  const detail::Workers workers(opts);
  const int T = workers.threads;
  sched::Scheduler sched(T, workers.topo,
                         /*bind=*/opts.numa_aware && opts.numa_bind,
                         opts.sched);
  std::vector<std::uint64_t> tdists(static_cast<std::size_t>(T), 0);

  for (int it = 0; it < mb.max_iters; ++it) {
    WallTimer timer;
    pack.pack(cur);
    for (auto& b : batch) b = rng.next_below(n);
    // Assign the whole batch against frozen centroids (parallel; each
    // position is independent)...
    sched.parallel_for(
        static_cast<index_t>(batch.size()), 0, nullptr,
        [&](int tid, const sched::Task& task) {
          for (index_t i = task.begin; i < task.end; ++i)
            batch_assign[static_cast<std::size_t>(i)] = K.nearest_blocked(
                data.row(batch[static_cast<std::size_t>(i)]), pack, nullptr);
          tdists[static_cast<std::size_t>(tid)] +=
              task.size() * static_cast<std::uint64_t>(k);
        });
    // ...then take gradient steps with per-centre rates (sequential).
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const cluster_t c = batch_assign[i];
      const value_t eta =
          static_cast<value_t>(1.0) / static_cast<value_t>(++counts[c]);
      value_t* centre = cur.row(c);
      const value_t* v = data.row(batch[i]);
      for (index_t j = 0; j < d; ++j)
        centre[j] += eta * (v[j] - centre[j]);
    }
    res.iter_times.record(timer.elapsed());
    ++res.iters;
  }

  // Final full assignment + energy (the approximation is in the centroids,
  // not in the reported clustering). Per-chunk energies summed in chunk
  // order keep the FP result thread-count independent.
  pack.pack(cur);
  res.assignments.resize(static_cast<std::size_t>(n));
  res.cluster_sizes.assign(static_cast<std::size_t>(k), 0);
  const index_t task_size = sched::Scheduler::auto_task_size(n);
  std::vector<double> chunk_energy(
      static_cast<std::size_t>(sched::Scheduler::num_chunks(n, task_size)),
      0.0);
  std::vector<std::vector<index_t>> tcounts(
      static_cast<std::size_t>(T),
      std::vector<index_t>(static_cast<std::size_t>(k), 0));
  sched.parallel_for(n, task_size, nullptr,
                     [&](int tid, const sched::Task& task) {
                       double e = 0.0;
                       auto& tc = tcounts[static_cast<std::size_t>(tid)];
                       for (index_t r = task.begin; r < task.end; ++r) {
                         value_t best_sq = 0;
                         const cluster_t best =
                             K.nearest_blocked(data.row(r), pack, &best_sq);
                         res.assignments[static_cast<std::size_t>(r)] = best;
                         ++tc[best];
                         e += static_cast<double>(best_sq);
                       }
                       chunk_energy[task.chunk] = e;
                       tdists[static_cast<std::size_t>(tid)] +=
                           task.size() * static_cast<std::uint64_t>(k);
                     });
  for (const double e : chunk_energy) res.energy += e;
  for (const auto& tc : tcounts)
    for (int c = 0; c < k; ++c)
      res.cluster_sizes[static_cast<std::size_t>(c)] +=
          tc[static_cast<std::size_t>(c)];
  for (const auto td : tdists) res.counters.dist_computations += td;
  res.converged = false;  // mini-batch has no membership-stability criterion
  res.centroids = std::move(cur);
  run_metrics.finish(res);
  return res;
}

}  // namespace knor

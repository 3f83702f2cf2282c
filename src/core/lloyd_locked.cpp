// Naive parallel Lloyd's: the design the paper's §4 criticizes.
//
// Phase I (nearest centroid) parallelizes trivially, but phase II updates a
// single shared next-iteration centroid structure guarded by per-centroid
// mutexes — "Phase II is plagued with substantial locking overhead because
// of the high likelihood of data points concurrently attempting to update
// the same nearest centroid". The two phases are separated by a global
// barrier (a sched.run join). Used as a baseline in Table 3 / Figure 9
// style benches.
#include <cstring>
#include <mutex>
#include <vector>

#include "common/timer.hpp"
#include "core/engines.hpp"
#include "core/init.hpp"
#include "core/kernels/simd.hpp"
#include "core/run_metrics.hpp"
#include "numa/partitioner.hpp"
#include "sched/scheduler.hpp"

namespace knor {

Result lloyd_locked(ConstMatrixView data, const Options& opts) {
  const kernels::Ops& K = kernels::ops_for(opts.simd);
  knor::detail::RunMetricsScope run_metrics;
  const index_t n = data.rows();
  const index_t d = data.cols();
  const int k = opts.k;
  const detail::Workers workers(opts);
  const int T = workers.threads;

  Result res;
  res.assignments.assign(static_cast<std::size_t>(n), kInvalidCluster);
  DenseMatrix cur = init_centroids(data, opts);
  DenseMatrix sums(static_cast<index_t>(k), d);
  std::vector<index_t> counts(static_cast<std::size_t>(k));
  std::vector<std::mutex> locks(static_cast<std::size_t>(k));
  kernels::CentroidPack pack;

  numa::Partitioner parts(n, T, workers.topo);
  sched::Scheduler sched(T, workers.topo, /*bind=*/false);
  std::vector<std::uint64_t> tchanged(static_cast<std::size_t>(T));

  const auto tol_changes =
      static_cast<std::uint64_t>(opts.tolerance * static_cast<double>(n));

  for (int it = 0; it < opts.max_iters; ++it) {
    WallTimer timer;
    pack.pack(cur);
    std::memset(sums.data(), 0, sums.size() * sizeof(value_t));
    std::fill(counts.begin(), counts.end(), 0);

    // Phase I + shared phase II under per-centroid locks.
    sched.run([&](int tid) {
      tchanged[static_cast<std::size_t>(tid)] = 0;
      const numa::RowRange rows = parts.thread_rows(tid);
      for (index_t r = rows.begin; r < rows.end; ++r) {
        const cluster_t best = K.nearest_blocked(data.row(r), pack, nullptr);
        if (best != res.assignments[r])
          ++tchanged[static_cast<std::size_t>(tid)];
        res.assignments[r] = best;
        // Interference: every thread contends on the shared structure.
        std::lock_guard<std::mutex> lock(locks[best]);
        value_t* s = sums.row(best);
        const value_t* v = data.row(r);
        for (index_t j = 0; j < d; ++j) s[j] += v[j];
        ++counts[best];
      }
    });
    res.counters.dist_computations +=
        static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(k);

    // Global barrier (the sched.run join), then the centroid update.
    std::uint64_t changed = 0;
    for (auto c : tchanged) changed += c;
    res.cluster_sizes.assign(counts.begin(), counts.end());
    for (int c = 0; c < k; ++c) {
      value_t* dst = cur.row(static_cast<index_t>(c));
      if (counts[static_cast<std::size_t>(c)] == 0) continue;
      const value_t inv = static_cast<value_t>(1.0) /
                          static_cast<value_t>(counts[static_cast<std::size_t>(c)]);
      const value_t* s = sums.row(static_cast<index_t>(c));
      for (index_t j = 0; j < d; ++j) dst[j] = s[j] * inv;
    }
    res.iter_times.record(timer.elapsed());
    ++res.iters;
    if (changed <= tol_changes) {
      res.converged = true;
      break;
    }
  }

  for (index_t r = 0; r < n; ++r)
    res.energy += K.dist_sq(data.row(r), cur.row(res.assignments[r]), d);
  res.centroids = std::move(cur);
  run_metrics.finish(res);
  return res;
}

}  // namespace knor

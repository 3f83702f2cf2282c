#include <cstring>
#include <vector>

#include "baselines/frameworks.hpp"
#include "common/timer.hpp"
#include "core/init.hpp"
#include "core/kernels/simd.hpp"
#include "core/run_metrics.hpp"
#include "numa/partitioner.hpp"
#include "sched/scheduler.hpp"

namespace knor::baselines {

Result h2o_like(ConstMatrixView data, const Options& opts) {
  const kernels::Ops& K = kernels::ops_for(opts.simd);
  knor::detail::RunMetricsScope run_metrics;
  const index_t n = data.rows();
  const index_t d = data.cols();
  const int k = opts.k;
  const knor::detail::Workers workers(opts);
  const int T = workers.threads;

  Result res;
  res.assignments.assign(static_cast<std::size_t>(n), kInvalidCluster);
  DenseMatrix cur = init_centroids(data, opts);
  kernels::CentroidPack pack;
  DenseMatrix sums(static_cast<index_t>(k), d);
  std::vector<index_t> counts(static_cast<std::size_t>(k));

  numa::Partitioner parts(n, T, workers.topo);
  sched::Scheduler sched(T, workers.topo, /*bind=*/false);
  std::vector<std::uint64_t> tchanged(static_cast<std::size_t>(T));
  std::vector<double> tbusy(static_cast<std::size_t>(T), 0.0);

  const auto tol_changes =
      static_cast<std::uint64_t>(opts.tolerance * static_cast<double>(n));

  for (int it = 0; it < opts.max_iters; ++it) {
    WallTimer timer;
    pack.pack(cur);

    // Phase I: parallel assignment only. Global barrier at the join.
    sched.run([&](int tid) {
      const double cpu_start = thread_cpu_seconds();
      tchanged[static_cast<std::size_t>(tid)] = 0;
      const numa::RowRange rows = parts.thread_rows(tid);
      for (index_t r = rows.begin; r < rows.end; ++r) {
        const cluster_t best = K.nearest_blocked(data.row(r), pack, nullptr);
        if (best != res.assignments[r])
          ++tchanged[static_cast<std::size_t>(tid)];
        res.assignments[r] = best;
      }
      tbusy[static_cast<std::size_t>(tid)] +=
          thread_cpu_seconds() - cpu_start;
    });
    res.counters.dist_computations +=
        static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(k);

    // Phase II: the centralized driver accumulates all n rows itself — the
    // master-worker reduction bottleneck: O(nd) serial work per iteration.
    const double driver_start = thread_cpu_seconds();
    std::memset(sums.data(), 0, sums.size() * sizeof(value_t));
    std::fill(counts.begin(), counts.end(), 0);
    for (index_t r = 0; r < n; ++r) {
      const cluster_t c = res.assignments[r];
      value_t* s = sums.row(c);
      const value_t* v = data.row(r);
      for (index_t j = 0; j < d; ++j) s[j] += v[j];
      ++counts[c];
    }
    res.cluster_sizes.assign(counts.begin(), counts.end());
    for (int c = 0; c < k; ++c) {
      if (counts[static_cast<std::size_t>(c)] == 0) continue;
      value_t* dst = cur.row(static_cast<index_t>(c));
      const value_t inv =
          static_cast<value_t>(1.0) /
          static_cast<value_t>(counts[static_cast<std::size_t>(c)]);
      const value_t* s = sums.row(static_cast<index_t>(c));
      for (index_t j = 0; j < d; ++j) dst[j] = s[j] * inv;
    }

    res.driver_serial_s += thread_cpu_seconds() - driver_start;

    std::uint64_t changed = 0;
    for (auto c : tchanged) changed += c;
    res.iter_times.record(timer.elapsed());
    ++res.iters;
    if (changed <= tol_changes) {
      res.converged = true;
      break;
    }
  }

  for (index_t r = 0; r < n; ++r)
    res.energy += K.dist_sq(data.row(r), cur.row(res.assignments[r]), d);
  res.thread_busy_s = tbusy;
  res.centroids = std::move(cur);
  run_metrics.finish(res);
  return res;
}

}  // namespace knor::baselines

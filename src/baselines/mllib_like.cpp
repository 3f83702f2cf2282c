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

Result mllib_like(ConstMatrixView data, const Options& opts) {
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

  numa::Partitioner parts(n, T, workers.topo);
  sched::Scheduler sched(T, workers.topo, /*bind=*/false);

  // Map output: per-thread vectors of (key, value-copy) pairs — the
  // materialized intermediate data a shuffle-based engine produces.
  struct Pair {
    cluster_t key;
    std::vector<value_t> value;
  };
  std::vector<std::vector<Pair>> map_out(static_cast<std::size_t>(T));
  // Shuffle output: per-cluster buckets of row copies.
  std::vector<std::vector<std::vector<value_t>>> buckets(
      static_cast<std::size_t>(k));
  std::vector<std::uint64_t> tchanged(static_cast<std::size_t>(T));
  std::vector<double> tbusy(static_cast<std::size_t>(T), 0.0);

  const auto tol_changes =
      static_cast<std::uint64_t>(opts.tolerance * static_cast<double>(n));

  for (int it = 0; it < opts.max_iters; ++it) {
    WallTimer timer;
    pack.pack(cur);

    // --- Map: assign, emit (cluster, row copy). ---
    sched.run([&](int tid) {
      const double cpu_start = thread_cpu_seconds();
      auto& out = map_out[static_cast<std::size_t>(tid)];
      out.clear();
      tchanged[static_cast<std::size_t>(tid)] = 0;
      const numa::RowRange rows = parts.thread_rows(tid);
      out.reserve(static_cast<std::size_t>(rows.size()));
      for (index_t r = rows.begin; r < rows.end; ++r) {
        const cluster_t best = K.nearest_blocked(data.row(r), pack, nullptr);
        if (best != res.assignments[r])
          ++tchanged[static_cast<std::size_t>(tid)];
        res.assignments[r] = best;
        Pair p;
        p.key = best;
        p.value.assign(data.row(r), data.row(r) + d);
        out.push_back(std::move(p));
      }
      tbusy[static_cast<std::size_t>(tid)] +=
          thread_cpu_seconds() - cpu_start;
    });
    res.counters.dist_computations +=
        static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(k);

    // --- Shuffle: group pairs by key (driver-side, second copy). ---
    const double shuffle_start = thread_cpu_seconds();
    for (auto& bucket : buckets) bucket.clear();
    for (auto& out : map_out)
      for (auto& pair : out)
        buckets[pair.key].push_back(std::move(pair.value));
    res.driver_serial_s += thread_cpu_seconds() - shuffle_start;

    // --- Reduce: one reducer per cluster; parallelism capped at k and
    // skewed by bucket sizes (the paper's reduce-phase skew). ---
    DenseMatrix next(static_cast<index_t>(k), d);
    std::vector<index_t> sizes(static_cast<std::size_t>(k));
    sched.run([&](int tid) {
      const double cpu_start = thread_cpu_seconds();
      for (int c = tid; c < k; c += T) {
        const auto& bucket = buckets[static_cast<std::size_t>(c)];
        sizes[static_cast<std::size_t>(c)] = bucket.size();
        value_t* dst = next.row(static_cast<index_t>(c));
        if (bucket.empty()) {
          std::memcpy(dst, cur.row(static_cast<index_t>(c)),
                      d * sizeof(value_t));
          continue;
        }
        for (const auto& row : bucket)
          for (index_t j = 0; j < d; ++j) dst[j] += row[j];
        const value_t inv =
            static_cast<value_t>(1.0) / static_cast<value_t>(bucket.size());
        for (index_t j = 0; j < d; ++j) dst[j] *= inv;
      }
      tbusy[static_cast<std::size_t>(tid)] +=
          thread_cpu_seconds() - cpu_start;
    });
    res.cluster_sizes = sizes;
    std::swap(cur, next);

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

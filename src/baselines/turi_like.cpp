#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "baselines/frameworks.hpp"
#include "common/timer.hpp"
#include "core/init.hpp"
#include "core/kernels/simd.hpp"
#include "core/run_metrics.hpp"
#include "numa/partitioner.hpp"
#include "sched/scheduler.hpp"

namespace knor::baselines {
namespace {

// Per-row boxed storage behind a virtual interface — the SFrame-style
// unified column/row abstraction whose indirection and allocation overhead
// the stand-in models.
class RowObject {
 public:
  virtual ~RowObject() = default;
  virtual const value_t* values() const = 0;
  virtual index_t dim() const = 0;
};

class DenseRowObject final : public RowObject {
 public:
  DenseRowObject(const value_t* v, index_t d) : values_(v, v + d) {}
  const value_t* values() const override { return values_.data(); }
  index_t dim() const override {
    return static_cast<index_t>(values_.size());
  }

 private:
  std::vector<value_t> values_;
};

}  // namespace

Result turi_like(ConstMatrixView data, const Options& opts) {
  const kernels::Ops& K = kernels::ops_for(opts.simd);
  knor::detail::RunMetricsScope run_metrics;
  const index_t n = data.rows();
  const index_t d = data.cols();
  const int k = opts.k;
  const knor::detail::Workers workers(opts);
  const int T = workers.threads;

  // Ingest: box every row individually (the framework's storage layer).
  std::vector<std::unique_ptr<RowObject>> rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (index_t r = 0; r < n; ++r)
    rows.push_back(std::make_unique<DenseRowObject>(data.row(r), d));

  Result res;
  res.assignments.assign(static_cast<std::size_t>(n), kInvalidCluster);
  DenseMatrix cur = init_centroids(data, opts);
  DenseMatrix sums(static_cast<index_t>(k), d);
  std::vector<index_t> counts(static_cast<std::size_t>(k));
  kernels::CentroidPack pack;

  numa::Partitioner parts(n, T, workers.topo);
  sched::Scheduler sched(T, workers.topo, /*bind=*/false);
  std::vector<std::uint64_t> tchanged(static_cast<std::size_t>(T));
  std::vector<double> tbusy(static_cast<std::size_t>(T), 0.0);
  // Per-thread accumulation through row *copies* (the engine materializes
  // row values out of its storage abstraction on every access).
  std::vector<DenseMatrix> tsums;
  std::vector<std::vector<index_t>> tcounts(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    tsums.emplace_back(static_cast<index_t>(k), d);
    tcounts[static_cast<std::size_t>(t)].assign(static_cast<std::size_t>(k),
                                                0);
  }

  const auto tol_changes =
      static_cast<std::uint64_t>(opts.tolerance * static_cast<double>(n));

  for (int it = 0; it < opts.max_iters; ++it) {
    WallTimer timer;
    pack.pack(cur);
    sched.run([&](int tid) {
      const double cpu_start = thread_cpu_seconds();
      auto& ts = tsums[static_cast<std::size_t>(tid)];
      auto& tc = tcounts[static_cast<std::size_t>(tid)];
      std::memset(ts.data(), 0, ts.size() * sizeof(value_t));
      std::fill(tc.begin(), tc.end(), 0);
      tchanged[static_cast<std::size_t>(tid)] = 0;
      std::vector<value_t> scratch(static_cast<std::size_t>(d));
      const numa::RowRange rr = parts.thread_rows(tid);
      for (index_t r = rr.begin; r < rr.end; ++r) {
        // Virtual access + defensive copy into scratch.
        const RowObject& obj = *rows[static_cast<std::size_t>(r)];
        std::copy(obj.values(), obj.values() + obj.dim(), scratch.begin());
        const cluster_t best = K.nearest_blocked(scratch.data(), pack, nullptr);
        if (best != res.assignments[r])
          ++tchanged[static_cast<std::size_t>(tid)];
        res.assignments[r] = best;
        value_t* s = ts.row(best);
        for (index_t j = 0; j < d; ++j) s[j] += scratch[j];
        ++tc[best];
      }
      tbusy[static_cast<std::size_t>(tid)] +=
          thread_cpu_seconds() - cpu_start;
    });
    res.counters.dist_computations +=
        static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(k);

    // Driver-side merge.
    const double driver_start = thread_cpu_seconds();
    std::memset(sums.data(), 0, sums.size() * sizeof(value_t));
    std::fill(counts.begin(), counts.end(), 0);
    for (int t = 0; t < T; ++t) {
      for (int c = 0; c < k; ++c) {
        const value_t* s = tsums[static_cast<std::size_t>(t)].row(
            static_cast<index_t>(c));
        value_t* dst = sums.row(static_cast<index_t>(c));
        for (index_t j = 0; j < d; ++j) dst[j] += s[j];
        counts[static_cast<std::size_t>(c)] +=
            tcounts[static_cast<std::size_t>(t)][static_cast<std::size_t>(c)];
      }
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

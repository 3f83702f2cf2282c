// Blocked-GEMM Lloyd's — the MATLAB/BLAS comparator of Table 3, now a true
// tiled engine (DESIGN.md §12).
//
// Phase I is expressed algebraically: d^2(x, c) = ||x||^2 - 2 x.c + ||c||^2,
// so the assignment is an argmin over the rank-d product X C^T plus rank-1
// corrections. Instead of materializing the n x k product (the old
// implementation's memory cost), centroids are packed once per iteration
// into a 2D-partitioned TiledMatrix — row-blocks of kGemmPanelWidth
// centroids x col-blocks of the depth, every panel 64-byte aligned — and
// the per-ISA register-tiled gemm_argmin kernel streams cache-sized tiles
// of data rows against centroid panels with the fused
// ||x||^2 + ||c||^2 - 2 x.c argmin epilogue: only mr x nr accumulator
// tiles ever exist, and each panel sweep is amortized over a whole row
// block (where the row-at-a-time K.dot formulation reloaded all k
// centroids per point).
//
// Determinism: the cache tile (--gemm-tile) is a pure performance knob.
// Each (row, centroid) dot accumulates strictly sequentially over the
// depth inside the kernel, panels are swept in ascending centroid order,
// and the per-chunk accumulators stay keyed to the scheduler's 1D row-
// chunk grid (a pure function of n and task_size) with the fixed-tree
// fold — so centroids and assignments are bitwise invariant across tile
// shapes, thread counts and scheduling policies (the §7/§8 contract,
// extended by §12; pinned in conformance_test and exactness_test).
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/strict_parse.hpp"
#include "common/timer.hpp"
#include "core/chunk_accum.hpp"
#include "core/engines.hpp"
#include "core/init.hpp"
#include "core/kernels/simd.hpp"
#include "core/local_centroids.hpp"
#include "core/run_metrics.hpp"
#include "sched/scheduler.hpp"

namespace knor {

bool parse_gemm_tile(const std::string& name, GemmTile* out) {
  if (name == "auto") {
    *out = GemmTile{};
    return true;
  }
  const auto x = name.find('x');
  if (x == std::string::npos || x == 0 || x + 1 >= name.size()) return false;
  const auto parse_pos = [](const std::string& s, index_t* v) {
    std::uint64_t u = 0;
    if (!knor::parse_u64(s, &u) || u == 0) return false;
    *v = static_cast<index_t>(u);
    return true;
  };
  GemmTile tile;
  if (!parse_pos(name.substr(0, x), &tile.rows) ||
      !parse_pos(name.substr(x + 1), &tile.cols))
    return false;
  *out = tile;
  return true;
}

GemmTile parse_gemm_tile_or_throw(const std::string& name, const char* what) {
  GemmTile tile;
  if (!parse_gemm_tile(name, &tile))
    throw std::invalid_argument(std::string(what) + "=" + name +
                                " is not a GEMM tile (want auto or RxC with "
                                "positive integers, e.g. 64x256)");
  return tile;
}

GemmTile resolve_gemm_tile(GemmTile tile, index_t n, int k) {
  // Auto shape: 64 rows of A shared across each panel sweep, 256 centroids
  // per sweep — at the evaluation's d (8..64 doubles) that keeps the swept
  // centroid panels L2-resident while each row block amortizes their loads.
  if (tile.rows == 0) tile.rows = 64;
  if (tile.cols == 0) tile.cols = 256;
  if (tile.rows > n) tile.rows = n;
  const auto uk = static_cast<index_t>(k);
  if (tile.cols > uk) tile.cols = uk;
  // Whole panels only: round the centroid sweep up to the panel width.
  const index_t w = kernels::kGemmPanelWidth;
  tile.cols = (tile.cols + w - 1) / w * w;
  return tile;
}

Result gemm_kmeans(ConstMatrixView data, const Options& opts) {
  // Hoisted once per run: no engine mutates the process-global dispatch
  // any more, so two concurrent runs with different --simd cannot retarget
  // each other's kernels.
  const kernels::Ops& K = kernels::ops_for(opts.simd);
  detail::RunMetricsScope metrics;
  const index_t n = data.rows();
  const index_t d = data.cols();
  const int k = opts.k;

  Result res;
  res.assignments.assign(static_cast<std::size_t>(n), kInvalidCluster);
  DenseMatrix cur = init_centroids(data, opts);
  DenseMatrix next(static_cast<index_t>(k), d);

  const detail::Workers workers(opts);
  const int T = workers.threads;
  sched::Scheduler sched(T, workers.topo,
                         /*bind=*/opts.numa_aware && opts.numa_bind,
                         opts.sched);
  const index_t task_size =
      sched::Scheduler::resolve_task_size(n, opts.task_size);
  const auto chunks =
      static_cast<std::size_t>(sched::Scheduler::num_chunks(n, task_size));
  ChunkAccum<LocalCentroids> locals(chunks, k, d);
  std::vector<std::uint64_t> tchanged(static_cast<std::size_t>(T), 0);
  // Per-worker CPU seconds for the §1.6 makespan proxy — same convention
  // as engine_impl (super-phase only, fold excluded), so oversubscribed
  // containers compare engines on work, not on how many workers fit.
  std::vector<double> tbusy(static_cast<std::size_t>(T), 0.0);

  // Cache-level blocking: `tile.rows` data rows share each sweep over
  // `tile.cols / kGemmPanelWidth` centroid panels. The 2D tile grid is
  // (scheduler row chunk x centroid panel range); accumulation stays keyed
  // to the 1D row-chunk slots, so the centroid cut never affects results.
  const GemmTile tile = resolve_gemm_tile(opts.gemm_tile, n, k);
  const index_t width = kernels::kGemmPanelWidth;
  const index_t panels = (static_cast<index_t>(k) + width - 1) / width;
  const index_t panel_step = tile.cols / width;

  // Per-worker running argmin state for one row block (score = fused
  // ||c||^2 - 2 x.c; the ||x||^2 term is row-constant and drops out).
  std::vector<std::vector<value_t>> tscore(
      static_cast<std::size_t>(T),
      std::vector<value_t>(static_cast<std::size_t>(tile.rows)));
  std::vector<std::vector<cluster_t>> tbest(
      static_cast<std::size_t>(T),
      std::vector<cluster_t>(static_cast<std::size_t>(tile.rows)));

  std::vector<value_t> cnorm(static_cast<std::size_t>(k));
  TiledMatrix ctiles;

  const auto tol_changes =
      static_cast<std::uint64_t>(opts.tolerance * static_cast<double>(n));

  for (int it = 0; it < opts.max_iters; ++it) {
    WallTimer timer;
    const double driver_start = thread_cpu_seconds();
    // Packing discipline: centroids move every iteration until
    // convergence, so the panels (and the fused epilogue's ||c||^2 terms)
    // are rebuilt here, once per iteration, on the driver thread — O(k*d),
    // noise next to the O(n*k*d) product. A frozen-centroid caller (e.g.
    // assignment-only serving) would pack exactly once per run.
    ctiles.pack(cur.const_view(), width, d);
    for (int c = 0; c < k; ++c) {
      const value_t* row = cur.row(static_cast<index_t>(c));
      cnorm[static_cast<std::size_t>(c)] = K.dot(row, row, d);
    }
    res.driver_serial_s += thread_cpu_seconds() - driver_start;

    sched.begin_chunks(n, task_size, nullptr);
    sched.run([&](int tid) {
      const double cpu_start = thread_cpu_seconds();
      tchanged[static_cast<std::size_t>(tid)] = 0;
      value_t* score = tscore[static_cast<std::size_t>(tid)].data();
      cluster_t* best = tbest[static_cast<std::size_t>(tid)].data();
      sched::Task task;
      while (sched.next_chunk(tid, task)) {
        auto& acc = locals.touch(task.chunk);
        for (index_t r0 = task.begin; r0 < task.end; r0 += tile.rows) {
          const index_t m =
              task.end - r0 < tile.rows ? task.end - r0 : tile.rows;
          for (index_t i = 0; i < m; ++i) {
            score[i] = std::numeric_limits<value_t>::infinity();
            best[i] = 0;
          }
          // Streamed k-panel argmin: ascending panel ranges keep the
          // ties->lowest-index rule; the running (best, score) state is
          // all that persists between sweeps.
          for (index_t p0 = 0; p0 < panels; p0 += panel_step)
            K.gemm_argmin(data.row(r0), m, d, ctiles, p0,
                          panels - p0 < panel_step ? panels : p0 + panel_step,
                          cnorm.data(), best, score);
          for (index_t i = 0; i < m; ++i) {
            const index_t r = r0 + i;
            if (best[i] != res.assignments[r])
              ++tchanged[static_cast<std::size_t>(tid)];
            res.assignments[r] = best[i];
            acc.add(best[i], data.row(r));
          }
        }
      }
      tbusy[static_cast<std::size_t>(tid)] +=
          thread_cpu_seconds() - cpu_start;
      sched.barrier().arrive_and_wait();
      locals.fold(tid, T, sched.barrier());
    });
    res.counters.dist_computations +=
        static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(k);

    std::uint64_t changed = 0;
    for (const auto tc : tchanged) changed += tc;
    res.cluster_sizes = locals.merged().finalize_into(next, cur);
    locals.next_iteration();
    std::swap(cur, next);
    res.iter_times.record(timer.elapsed());
    ++res.iters;
    if (changed <= tol_changes) {
      res.converged = true;
      break;
    }
  }

  for (index_t r = 0; r < n; ++r)
    res.energy += K.dist_sq(data.row(r), cur.row(res.assignments[r]), d);
  res.thread_busy_s.assign(tbusy.begin(), tbusy.end());
  res.centroids = std::move(cur);
  metrics.finish(res);
  return res;
}

}  // namespace knor

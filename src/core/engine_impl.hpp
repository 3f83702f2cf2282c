// The ||Lloyd's parallel engine (paper Algorithm 1 + §5 optimizations),
// templated over two axes: where the rows come from (the data source) and
// what a row's assignment costs (the assign step).
//
// Data sources:
//   * NumaData — rows partitioned across NUMA-node-local blocks (knori on
//     a host with several physical nodes),
//   * PartitionedView — the caller's rows in place under the same
//     partition's node map (knori on a single-node host), or all on node 0
//     (the NUMA-oblivious Figure 4 baseline),
//   * sem::SemData — rows on disk behind the row cache and the I/O engine
//     (knors, src/sem/sem_kmeans.cpp).
//
// Data concept (visit_in_place serves the in-memory sources, whose
// iteration hooks do nothing):
//   void visit_task(const numa::Partitioner& parts, int tid,
//                   const sched::Task& task, Counters* cnt,
//                   Skip&& skip, Step&& step);
//     Hands each row r of `task`, ascending, to step(r, row data) unless
//     skip(r) (MTI clause 1, no data access) says it needs nothing.
//     `cnt` == nullptr marks the final energy pass: skip is then always
//     false, and no locality, penalty or per-iteration I/O stats are kept.
//   const value_t* row(index_t r) const;
//   int node_of_row(index_t r) const;
//     In-memory sources only: row r's data and NUMA node. A step other
//     than the default gets its rows through visit_runs_in_place, so it
//     runs on these sources alone.
//   void begin_iteration(int it, NeedsData&& needs_data);
//   void end_iteration();
//     Driver-thread hooks around iteration `it`'s super-phase; needs_data(r)
//     is clause 1's verdict without side effects.
//
// Assign steps: BlockedMtiStep, the default, is the driver's own blocked
// full scan, with MTI (clause-1 skips, membership-delta sums, the pruned
// subset scan) when opts.prune. Any other step runs with MTI off whatever
// opts.prune says, rebuilds the per-chunk sums every iteration, and
// supplies:
//   void assign(int tid, index_t r0, const value_t* v, index_t m,
//               const cluster_t* a, cluster_t* best, Counters&);
//     Worker thread `tid`: best[i] is the new cluster of row r0 + i
//     (i < m, data at v + i*d) given its current one a[i] (kInvalidCluster
//     in the first iteration); counts its own work. The driver then
//     compares, stores and accumulates the run row by row.
//   void update(const DenseMatrix& prev, DenseMatrix& cur);
//     Driver thread, once before the first iteration (prev empty) and
//     after every centroid update; may adjust `cur` (spherical
//     renormalises) or pack it (gemm). Where MTI's prepare sits for the
//     default step.
//   double energy(const value_t* v, const value_t* c) const;
//     Row v's term of Result::energy against its final centroid c.
//
// One Scheduler::run per iteration executes the super-phase: workers drain
// the NUMA-partitioned work-stealing chunk queues (nearest-centroid + local
// accumulation), hit the single global barrier, then fold the per-CHUNK
// accumulators with a fixed merge tree — the structure of Algorithm 1 with
// the reduction re-keyed from threads to chunks.
//
// Determinism under stealing (DESIGN.md §7): the chunk grid is a pure
// function of (n, task_size); chunk c's accumulator receives exactly chunk
// c's rows in row order no matter which thread ends up processing it, and
// the fold's association is fixed by the chunk count — so centroids,
// assignments and iteration counts are bitwise identical across runs,
// scheduling policies, steal schedules, and thread counts.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logger.hpp"
#include "common/memory_tracker.hpp"
#include "common/timer.hpp"
#include "core/chunk_accum.hpp"
#include "core/kernels/simd.hpp"
#include "core/kmeans_types.hpp"
#include "core/local_centroids.hpp"
#include "core/mti.hpp"
#include "core/run_metrics.hpp"
#include "data/dataset.hpp"
#include "numa/cost_model.hpp"
#include "numa/numa_alloc.hpp"
#include "numa/partitioner.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "sched/scheduler.hpp"

namespace knor::detail {

/// Walk task's rows in segments that stay inside one thread block, so the
/// base pointer and the local/remote classification hoist out of the
/// per-row loop (chunks can straddle block boundaries now that the chunk
/// grid is laid over the global row space). `cnt` == nullptr skips both the
/// locality accounting and the emulated remote penalty (the final energy
/// pass is not part of the iteration-time model).
template <typename Data, typename Skip, typename Step>
void visit_in_place(const Data& data, index_t d,
                    const numa::Partitioner& parts, int tid,
                    const sched::Task& task, Counters* cnt, Skip&& skip,
                    Step&& step) {
  const int my_node = parts.node_of_thread(tid);
  index_t r = task.begin;
  while (r < task.end) {
    const int home = parts.thread_of_row(r);
    const index_t seg_end = std::min(task.end, parts.thread_rows(home).end);
    const value_t* v = data.row(r);
    const bool local = data.node_of_row(r) == my_node;
    if (cnt != nullptr) {
      if (local)
        cnt->local_accesses += seg_end - r;
      else
        cnt->remote_accesses += seg_end - r;
    }
    for (; r < seg_end; ++r, v += d) {
      if (cnt != nullptr && !local) numa::RemotePenalty::charge();
      if (!skip(r)) step(r, v);
    }
  }
}

/// visit_in_place's segment walk with each segment handed to run(r0, v, m)
/// whole — m consecutive rows contiguous at v, never leaving one thread
/// block — with the same locality counts and per-row remote penalty
/// (`cnt` is never null: the energy pass goes through visit_task).
template <typename Data, typename Run>
void visit_runs_in_place(const Data& data, const numa::Partitioner& parts,
                         int tid, const sched::Task& task, Counters* cnt,
                         Run&& run) {
  const int my_node = parts.node_of_thread(tid);
  for (index_t r = task.begin; r < task.end;) {
    const index_t seg_end =
        std::min(task.end, parts.thread_rows(parts.thread_of_row(r)).end);
    if (data.node_of_row(r) == my_node) {
      cnt->local_accesses += seg_end - r;
    } else {
      cnt->remote_accesses += seg_end - r;
      for (index_t i = r; i < seg_end; ++i) numa::RemotePenalty::charge();
    }
    run(r, data.row(r), seg_end - r);
    r = seg_end;
  }
}

/// NUMA-partitioned data adapter: each thread block lives on its own
/// node, in a data::NumaDataset copy of the input.
struct NumaData {
  const data::NumaDataset* ds;
  const value_t* row(index_t r) const { return ds->row(r); }
  int node_of_row(index_t r) const { return ds->node_of_row(r); }
  template <typename... A> void visit_task(A&&... a) const {
    visit_in_place(*this, ds->d(), std::forward<A>(a)...);
  }
  template <typename F> void begin_iteration(int, F&&) const {}
  void end_iteration() const {}
};

/// The caller's rows in place, owned by nodes as `parts` assigns the
/// thread blocks — the same rows, node map, local/remote counts and
/// emulated remote penalty as NumaData over a copy, without the copy.
/// `parts` == nullptr: NUMA-oblivious, everything lives on node 0 (where a
/// single malloc/first-touch put it).
struct PartitionedView {
  ConstMatrixView m;
  const numa::Partitioner* parts;
  const value_t* row(index_t r) const { return m.row(r); }
  int node_of_row(index_t r) const {
    return parts != nullptr ? parts->node_of_row(r) : 0;
  }
  template <typename... A> void visit_task(A&&... a) const {
    visit_in_place(*this, m.cols(), std::forward<A>(a)...);
  }
  template <typename F> void begin_iteration(int, F&&) const {}
  void end_iteration() const {}
};

/// The default assign step (see the header comment): its code is the
/// driver's own.
struct BlockedMtiStep {};

struct alignas(kCacheLine) PerThread {
  Counters counters;
  std::uint64_t changed = 0;
  double busy_s = 0.0;  ///< CPU time in super-phases, whole run
};

/// `reducer` (nullable) is the cross-node hook: when set, the merged
/// per-iteration accumulator plus the changed-count are allreduced across
/// ranks in one collective before finalization, and the final energy is
/// allreduced too — every rank then finalizes identical global centroids
/// from its own shard's contribution. Single-node callers pass nullptr.
///
/// `resume` (nullable; iteration 0 = fresh start) restarts the loop at a
/// checkpointed iteration boundary: `initial` must then be the
/// checkpointed centroids, and the
/// restored assignments/pre-loosened bounds/global sums make the first
/// resumed iteration bitwise identical to the same iteration of the
/// uninterrupted run (see ResumeState). `observer` (nullable) is called at
/// every iteration boundary but a converged one and may stop the run or
/// throw (DESIGN.md §13). `step` is the assign step (header comment).
///
/// The driver publishes the run's counters into the global registry; the
/// entry point takes the registry slice around its whole fit
/// (RunMetricsScope), init included.
template <typename Data, typename Step = BlockedMtiStep>
Result run_parallel_lloyd(Data&& data, index_t n, index_t d,
                          const Options& opts, DenseMatrix initial,
                          sched::Scheduler& sched,
                          const numa::Partitioner& parts,
                          GlobalReducer* reducer = nullptr,
                          const ResumeState* resume = nullptr,
                          IterObserver* observer = nullptr,
                          Step&& step = Step{}) {
  constexpr bool kOwnStep =
      !std::is_same_v<std::decay_t<Step>, BlockedMtiStep>;
  const int T = sched.threads();
  const int k = opts.k;
  // One ISA for the whole run, resolved from opts rather than the
  // process-global dispatch (concurrent runs with different --simd must not
  // retarget each other): every distance below (pruned subset scan,
  // blocked full scan, energy pass) goes through the same kernel table, so
  // the bitwise-equality contract of kernels/simd.hpp keeps pruned and
  // unpruned paths on the same assignments.
  const kernels::Ops& K = kernels::ops_for(opts.simd);
  const index_t task_size =
      sched::Scheduler::resolve_task_size(n, opts.task_size);
  const auto chunks = static_cast<std::size_t>(
      sched::Scheduler::num_chunks(n, task_size));

  // MTI belongs to the default step; any other step scans every row.
  const bool prune = !kOwnStep && opts.prune;
  const bool resumed = resume != nullptr && resume->iteration > 0;
  if (resumed) {
    if (resume->assignments.size() != static_cast<std::size_t>(n))
      throw std::invalid_argument(
          "run_parallel_lloyd: resume assignments size mismatch");
    if (prune &&
        resume->upper_bounds.size() != static_cast<std::size_t>(n))
      throw std::invalid_argument(
          "run_parallel_lloyd: resume lacks MTI bounds but pruning is on");
    if (prune &&
        (resume->sums.rows() != static_cast<index_t>(k) ||
         resume->sums.cols() != d ||
         resume->counts.size() != static_cast<std::size_t>(k)))
      throw std::invalid_argument(
          "run_parallel_lloyd: resume lacks global sums but pruning is on");
  }

  Result res;
  res.assignments.assign(static_cast<std::size_t>(n), kInvalidCluster);
  if (resumed) res.assignments = resume->assignments;

  DenseMatrix cur = std::move(initial);
  DenseMatrix next(static_cast<index_t>(k), d);
  DenseMatrix prev(static_cast<index_t>(k), d);

  // Result::driver_serial_s: thread-CPU time of the driver-thread work the
  // workers wait for — the centroid pack, the step's update hook,
  // mti.prepare and finalize (the §1.6 makespan proxy's serial share).
  double serial_start = thread_cpu_seconds();
  MtiState mti;
  if constexpr (kOwnStep) step.update(DenseMatrix{}, cur);
  if (prune) {
    mti = MtiState(n, k);
    // prev == empty: drift 0. Resumed bounds were pre-loosened against the
    // checkpointed centroids (now `cur`, see checkpoint_bounds), so drift 0
    // keeps them valid.
    mti.prepare(DenseMatrix{}, cur, K);
    if (resumed)
      for (index_t i = 0; i < n; ++i)
        mti.set_ub(i, resume->upper_bounds[static_cast<std::size_t>(i)]);
  }
  res.driver_serial_s += thread_cpu_seconds() - serial_start;

  // Padded, 64-byte-aligned centroid tile for the blocked full-scan and
  // subset kernels; repacked from `cur` before every iteration (calling
  // thread, outside the super-phase, so workers only ever read it).
  kernels::CentroidPack pack;

  // Accumulation strategy (see LocalCentroids vs SignedCentroids):
  //  * pruning off — rebuild per-chunk sums from scratch each iteration
  //    (Algorithm 1 verbatim; algorithmically identical to the frameworks).
  //  * pruning on — persistent global sums/counts updated by per-chunk
  //    membership *deltas*, so a clause-1-skipped point costs nothing at
  //    all (this is what makes the skip profitable at small d, and is the
  //    in-memory analogue of knors's "no I/O request"); a fully-skipped
  //    chunk never even clears its slot (ChunkAccum's dirty bit).
  ChunkAccum<LocalCentroids> locals(prune ? 0 : chunks, k, d);
  ChunkAccum<SignedCentroids> deltas(prune ? chunks : 0, k, d);
  DenseMatrix sums;
  std::vector<std::int64_t> counts;
  if (prune) {
    sums = DenseMatrix(static_cast<index_t>(k), d);
    counts.assign(static_cast<std::size_t>(k), 0);
    if (resumed) {
      // The persistent accumulators are global (post-allreduce) state, so
      // restoring them replicated keeps every participant's copy identical.
      sums = resume->sums;
      counts = resume->counts;
    }
  }

  std::vector<PerThread> per_thread(static_cast<std::size_t>(T));
  // An own step's per-thread `best` buffer, grown to the longest run.
  std::vector<std::vector<cluster_t>> run_best(kOwnStep ? per_thread.size()
                                                        : 0);

  ScopedAlloc mem_chunks("per-chunk-centroids",
                         prune ? deltas.bytes() : locals.bytes());
  ScopedAlloc mem_assign("assignments",
                         res.assignments.size() * sizeof(cluster_t));
  ScopedAlloc mem_mti("mti-state", prune ? mti.bytes() : 0);

  // Clause 1 before any data access: true when row r's assignment provably
  // cannot change — no distance computation, no accumulate, no touch of the
  // row data at all (in knors, no I/O request). `skip` records the skip;
  // `needs_data` is the same verdict without side effects, for sources
  // that plan ahead of the super-phase (the knors row cache).
  const auto skip = [&](index_t r, Counters& cnt) {
    const cluster_t a = res.assignments[r];
    return prune && a != kInvalidCluster && mti.skip(r, a, cnt);
  };
  const auto needs_data = [&](index_t r) {
    const cluster_t a = res.assignments[r];
    return !prune || a == kInvalidCluster ||
           !mti.clause1(a, mti.ub(r) + mti.drift(a));
  };

  // The default step for a row that survived clause 1; `v` is its data.
  // `chunk` selects the deterministic accumulator slot.
  auto process_point = [&](index_t r, const value_t* v, int tid,
                           std::uint32_t chunk) {
    Counters& cnt = per_thread[static_cast<std::size_t>(tid)].counters;
    const cluster_t a = res.assignments[r];
    if (prune && a != kInvalidCluster) {
      // The shared pruned-assign step (clauses 2/3 + subset scan).
      const cluster_t best = mti.assign(r, v, a, K, pack, cnt);
      if (best != a) {
        ++per_thread[static_cast<std::size_t>(tid)].changed;
        auto& delta = deltas.touch(chunk);
        delta.sub(a, v);
        delta.add(best, v);
        res.assignments[r] = best;
      }
      return;
    }

    // Full scan: first iteration, or pruning disabled. The blocked kernel
    // streams the point once against the padded centroid tile.
    value_t best_sq = 0;
    const cluster_t best = K.nearest_blocked(v, pack, &best_sq);
    cnt.dist_computations += static_cast<std::uint64_t>(k);
    if (best != a) ++per_thread[static_cast<std::size_t>(tid)].changed;
    res.assignments[r] = best;
    if (prune) {
      // MTI bookkeeping is in true distances: the one sqrt of the scan.
      mti.set_ub(r, std::sqrt(best_sq));
      // First iteration under pruning (every assigned point took the
      // pruned branch above): the point joins its first cluster.
      deltas.touch(chunk).add(best, v);
    } else {
      locals.touch(chunk).add(best, v);
    }
  };

  const auto iteration = [&](int tid) {
    const double cpu_start = thread_cpu_seconds();
    per_thread[static_cast<std::size_t>(tid)].changed = 0;
    Counters& cnt = per_thread[static_cast<std::size_t>(tid)].counters;
    sched::Task task;
    while (sched.next_chunk(tid, task)) {
      if constexpr (kOwnStep) {
        // An own step picks a whole run's clusters; the driver then
        // compares, stores and accumulates row by row.
        PerThread& pt = per_thread[static_cast<std::size_t>(tid)];
        std::vector<cluster_t>& best = run_best[static_cast<std::size_t>(tid)];
        LocalCentroids& acc = locals.touch(task.chunk);
        visit_runs_in_place(
            data, parts, tid, task, &cnt,
            [&](index_t r0, const value_t* v, index_t m) {
              if (best.size() < m) best.resize(m);
              step.assign(tid, r0, v, m, &res.assignments[r0], best.data(),
                          cnt);
              for (index_t i = 0; i < m; ++i, v += d) {
                if (best[i] != res.assignments[r0 + i]) ++pt.changed;
                res.assignments[r0 + i] = best[i];
                acc.add(best[i], v);
              }
            });
      } else {
        data.visit_task(
            parts, tid, task, &cnt, [&](index_t r) { return skip(r, cnt); },
            [&](index_t r, const value_t* v) {
              process_point(r, v, tid, task.chunk);
            });
      }
    }
    per_thread[static_cast<std::size_t>(tid)].busy_s +=
        thread_cpu_seconds() - cpu_start;
    // The single global barrier of ||Lloyd's, then the fixed-tree fold of
    // the per-chunk accumulators (slot 0 <- everything, chunk order).
    sched.barrier().arrive_and_wait();
    if (prune)
      deltas.fold(tid, T, sched.barrier());
    else
      locals.fold(tid, T, sched.barrier());
  };

  // Convergence is judged on the *global* point count when a reducer is
  // present (every rank sees the same global changed-count, so all ranks
  // stop on the same iteration).
  index_t global_n = n;
  if (reducer != nullptr) {
    double nd = static_cast<double>(n);
    reducer->allreduce(&nd, 1);
    global_n = static_cast<index_t>(nd);
  }
  const auto tol_changes = static_cast<std::uint64_t>(
      opts.tolerance * static_cast<double>(global_n));

  // Wire buffer for the one-collective-per-iteration reduction:
  // k*d sums, then k counts, then the changed-count, all as doubles
  // (counts are integers < 2^53, so the round-trip is exact). The sum
  // pack/unpack memcpys assume the accumulators are doubles too.
  static_assert(std::is_same_v<value_t, double>,
                "the cross-node wire format packs value_t sums as doubles");
  const std::size_t kd = static_cast<std::size_t>(k) * d;
  std::vector<double> wire;
  if (reducer != nullptr) wire.resize(kd + static_cast<std::size_t>(k) + 1);

  const int start_iter =
      resumed ? static_cast<int>(resume->iteration) : 0;
  if (resumed) res.iters = static_cast<std::size_t>(resume->iteration);
  for (int it = start_iter; it < opts.max_iters; ++it) {
    WallTimer timer;
    if constexpr (!kOwnStep) {
      serial_start = thread_cpu_seconds();
      pack.pack(cur);
      res.driver_serial_s += thread_cpu_seconds() - serial_start;
    }
    data.begin_iteration(it, needs_data);
    sched.begin_chunks(n, task_size, &parts);
    {
      // Driver-side view of the super-phase: workers' nearest-centroid +
      // local accumulation + the per-chunk fold (one trace slice per
      // iteration; per-worker slices would distort the steal schedule).
      obs::Span span_assign("assign");
      sched.run(iteration);
    }
    data.end_iteration();

    std::uint64_t changed = 0;
    for (const auto& pt : per_thread) changed += pt.changed;

    if (reducer != nullptr) {
      obs::Span span_allreduce("allreduce");
      // Pack the merged accumulator (slot 0) + changed, allreduce once,
      // unpack: slot 0 now holds the global accumulator on every rank.
      double* w = wire.data();
      const auto pack = [&](value_t* s, auto* c) {
        std::memcpy(w, s, kd * sizeof(double));
        for (int i = 0; i < k; ++i) w[kd + static_cast<std::size_t>(i)] =
            static_cast<double>(c[i]);
        w[kd + static_cast<std::size_t>(k)] = static_cast<double>(changed);
      };
      const auto unpack = [&](value_t* s, auto* c) {
        std::memcpy(s, w, kd * sizeof(double));
        using count_t = std::remove_reference_t<decltype(c[0])>;
        for (int i = 0; i < k; ++i) c[i] = static_cast<count_t>(
            std::llround(w[kd + static_cast<std::size_t>(i)]));
        changed = static_cast<std::uint64_t>(
            std::llround(w[kd + static_cast<std::size_t>(k)]));
      };
      if (prune)
        pack(deltas.merged().sums_data(), deltas.merged().counts_data());
      else
        pack(locals.merged().sums_data(), locals.merged().counts_data());
      reducer->allreduce(wire.data(), wire.size());
      if (prune)
        unpack(deltas.merged().sums_data(), deltas.merged().counts_data());
      else
        unpack(locals.merged().sums_data(), locals.merged().counts_data());
    }

    // Finalize next centroids from the merged accumulator (slot 0).
    obs::Span span_update("update");
    serial_start = thread_cpu_seconds();
    std::memcpy(prev.data(), cur.data(), cur.size() * sizeof(value_t));
    if (prune) {
      deltas.merged().apply_to(sums.data(), counts.data());
      res.cluster_sizes =
          finalize_sums(sums.data(), counts.data(), k, d, next, cur);
    } else {
      res.cluster_sizes = locals.merged().finalize_into(next, cur);
    }
    if (prune)
      deltas.next_iteration();
    else
      locals.next_iteration();
    std::swap(cur, next);
    if constexpr (kOwnStep) step.update(prev, cur);
    if (prune) mti.prepare(prev, cur, K);
    res.driver_serial_s += thread_cpu_seconds() - serial_start;

    res.iter_times.record(timer.elapsed());
    ++res.iters;
    if (changed <= tol_changes) {
      res.converged = true;
      break;
    }
    if (observer != nullptr) {
      // Boundary hook (checkpointing / fault injection / elastic stop).
      // Placed after the convergence break: a finished run has nothing to
      // checkpoint, and with a reducer present every rank computed the same
      // global `changed`, so all ranks reach this hook in lockstep.
      IterationView view;
      view.iteration = static_cast<std::uint64_t>(res.iters);
      view.changed = changed;
      view.centroids = &cur;
      view.assignments = &res.assignments;
      view.mti = prune ? &mti : nullptr;
      view.sums = prune ? &sums : nullptr;
      view.counts = prune ? &counts : nullptr;
      if (!observer->on_iteration(view)) break;
    }
  }

  // Steal statistics before the energy pass reuses the queues.
  const sched::StealStats steals = sched.total_stats();

  // Exact final energy: one full pass (pruned iterations skip distances, so
  // energy cannot be accumulated during the main loop). Per-chunk partial
  // energies summed in chunk order keep it deterministic across T too.
  {
    obs::Span span_energy("energy");
    std::vector<double> chunk_energy(chunks, 0.0);
    sched.parallel_for(n, task_size, &parts,
                       [&](int tid, const sched::Task& task) {
      double e = 0.0;
      data.visit_task(
          parts, tid, task, nullptr, [](index_t) { return false; },
          [&](index_t r, const value_t* v) {
            const value_t* c = cur.row(res.assignments[r]);
            if constexpr (kOwnStep)
              e += step.energy(v, c);
            else
              e += K.dist_sq(v, c, d);
          });
      chunk_energy[task.chunk] = e;
    });
    for (const double e : chunk_energy) res.energy += e;
  }

  for (const auto& pt : per_thread) {
    res.counters += pt.counters;
    res.thread_busy_s.push_back(pt.busy_s);
  }
  if (reducer != nullptr) reducer->allreduce(&res.energy, 1);
  res.counters.tasks_own = steals.own;
  res.counters.tasks_same_node = steals.same_node;
  res.counters.tasks_remote_node = steals.remote_node;

  // Publish the run's counters into the global registry — bulk adds at run
  // end through the shared mapping (core/run_metrics.hpp), so the hot loops
  // above keep their plain per-thread structs and --metrics agrees with
  // Result::counters by construction.
  publish_run_counters(res, static_cast<std::size_t>(start_iter));

  res.centroids = std::move(cur);
  return res;
}

/// One node's worth of the engine over in-memory rows: topology, thread
/// pool, NUMA partitioning and the choice of data source, then
/// run_parallel_lloyd with `step`. The non-template run_node (knori.hpp)
/// is this with the default step.
template <typename Step>
Result run_node(Step&& step, ConstMatrixView data, const Options& opts,
                DenseMatrix initial, GlobalReducer* reducer = nullptr,
                const ResumeState* resume = nullptr,
                IterObserver* observer = nullptr) {
  if (data.empty()) throw std::invalid_argument("kmeans: empty dataset");
  const Workers w(opts);
  const index_t n = data.rows();
  const index_t d = data.cols();

  numa::Partitioner parts(n, w.threads, w.topo);
  // The NUMA-oblivious baseline runs unbound threads.
  sched::Scheduler sched(w.threads, w.topo,
                         /*bind=*/opts.numa_aware && opts.numa_bind,
                         opts.sched);
  const auto run = [&](auto&& source) {
    return run_parallel_lloyd(source, n, d, opts, std::move(initial), sched,
                              parts, reducer, resume, observer, step);
  };
  // NUMA-oblivious baseline: data wherever the original allocation's first
  // touch put it (node 0 for accounting purposes).
  if (!opts.numa_aware) return run(PartitionedView{data, nullptr});

  KNOR_LOG_DEBUG("knori: n=", n, " d=", d, " k=", opts.k, " T=", w.threads,
                 " nodes=", w.topo.num_nodes(),
                 (opts.prune ? " mti=on" : " mti=off"));
  // The dataset's bytes are charged either way (Table 1 accounts knori's
  // data at n*d*8 whether it is the caller's matrix or a placed copy).
  ScopedAlloc mem_ds("dataset", n * d * sizeof(value_t));
  // One physical node: a partition copy cannot change where any row
  // lives, so the fit runs over the caller's rows. The partition still
  // assigns blocks to (possibly simulated) nodes, which keeps the
  // local/remote counters and the remote penalty of a copy.
  if (!numa::machine_has_multiple_nodes())
    return run(PartitionedView{data, &parts});
  // Several physical nodes: the copy IS the placement — each worker
  // first-touches its own block on its node.
  data::NumaDataset ds(data, parts, sched);
  return run(NumaData{&ds});
}

}  // namespace knor::detail

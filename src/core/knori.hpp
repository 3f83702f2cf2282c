// knori — the in-memory NUMA-optimized k-means module (paper §5).
#pragma once

#include "core/kmeans_types.hpp"

namespace knor {

/// Cluster `data` (n x d, row-major) into opts.k clusters with the
/// NUMA-optimized ||Lloyd's engine. This is the paper's knori when
/// opts.prune is true and knori- when false; opts.numa_aware = false gives
/// the NUMA-oblivious baseline of Figure 4.
///
/// Determinism: assignments, centroids, energy and iteration count are a
/// pure function of (data, opts minus threads/numa_bind) — BITWISE
/// invariant across thread counts, scheduling policies, steal schedules
/// and repeated runs, with or without MTI. Partial sums accumulate per
/// chunk of the (n, task_size) grid and merge in a fixed tree keyed to
/// the chunk count alone (DESIGN.md §7), so not even floating point can
/// tell schedules apart; changing task_size picks a different (equally
/// deterministic) chunk grid and may differ in the last ulp. The
/// guarantee is per selected SIMD ISA (opts.simd, DESIGN.md §8): each
/// ISA is bitwise self-stable, different ISAs may differ in the last ulp
/// on fractional data, and opts.simd = kScalar reproduces the pre-SIMD
/// engine bit-for-bit. Only Result's timing fields and the
/// scheduler/NUMA attribution counters vary run to run.
Result kmeans(ConstMatrixView data, const Options& opts);

namespace detail {

/// One node's worth of the ||Lloyd's engine with the default (blocked
/// scan / MTI) assign step: topology, thread pool, NUMA partitioning and
/// the iteration loop over `data`, starting from the caller-supplied
/// `initial` centroids (core/engine_impl.hpp has the form for any step). knori::kmeans calls this with
/// reducer = nullptr; knord calls it on every rank with its row shard and
/// a Communicator-backed reducer, which is all it takes to turn the
/// single-node engine into the distributed one (paper §6). `resume`
/// restarts at a checkpointed boundary (initial = checkpointed centroids)
/// and `observer` hooks every boundary but a converged one — the
/// fault-tolerance layer (dist::ft_kmeans, DESIGN.md §13) drives both.
Result run_node(ConstMatrixView data, const Options& opts,
                DenseMatrix initial, GlobalReducer* reducer,
                const ResumeState* resume = nullptr,
                IterObserver* observer = nullptr);

}  // namespace detail

}  // namespace knor

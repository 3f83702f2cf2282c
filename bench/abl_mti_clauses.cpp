// Ablation — where MTI's pruning comes from: per-clause skip counters over
// a k sweep on the Friendster-8 proxy (clause 1 skips the whole point,
// clauses 2/3 cut the assigned centroid's sorted neighbour list on the
// loosened and then the tightened bound; paper §4, DESIGN.md §3). Counter
// totals are invariant to the thread schedule (each point is visited
// exactly once per iteration and the centroid trajectory is deterministic),
// so every column is a stat — this suite is a pure-determinism companion
// to fig8's timing view of the same switch.
#include "core/knori.hpp"
#include "harness/datasets.hpp"

namespace {

using namespace knor;
using namespace knor::bench;

void run(Context& ctx) {
  const data::GeneratorSpec spec = friendster8_proxy(ctx, 100000);
  const DenseMatrix m = data::generate(spec);
  ctx.dataset(spec);
  ctx.config("mti", "on");

  for (const int k : {10, 20, 50, 100}) {
    Options opts;
    opts.k = k;
    opts.threads = 4;
    opts.max_iters = 20;
    opts.seed = 42;
    opts.prune = true;
    const Result res = kmeans(m.const_view(), opts);
    // A pruning-free Lloyd's evaluates n*k distances per iteration.
    const double naive = static_cast<double>(spec.n) * k *
                         static_cast<double>(res.iters);
    ctx.row()
        .label("k", k)
        .stat("iters", static_cast<double>(res.iters))
        .stat("distances_computed",
              static_cast<double>(res.counters.dist_computations))
        .stat("naive_distances", naive)
        .stat("pruned_pct",
              naive > 0
                  ? 100.0 * (1.0 - res.counters.dist_computations / naive)
                  : 0.0)
        .stat("clause1_point_skips",
              static_cast<double>(res.counters.clause1_skips))
        .stat("clause2_centroid_prunes",
              static_cast<double>(res.counters.clause2_skips))
        .stat("clause3_centroid_prunes",
              static_cast<double>(res.counters.clause3_skips));
  }
  ctx.chart("pruned_pct");
}

const Registration reg({
    "abl_mti_clauses",
    "Ablation: MTI clause effectiveness vs k",
    "the MTI design of paper §4 (supports Figures 8/9)",
    "On natural-cluster data the pruned fraction grows with k (more "
    "centroids to rule out per point) and clause 1 dominates once points "
    "settle — entire points skipped without touching their rows, the "
    "mechanism knors turns into I/O savings. Clause 3 is the tightened-"
    "bound cut: after one distance to the assigned centroid, candidates "
    "with 1/2 d(a, c) >= d(v, a) are cut from a's sorted list on top of "
    "clause 2's loosened-bound cut; it adds to clause 2 wherever the "
    "tightened bound is below the loosened one.",
    340, run});

}  // namespace

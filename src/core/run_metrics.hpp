// Shared per-run observability publication — the counter-parity contract:
// every engine's --metrics output must agree with its Result::counters.
// This header is the one place the mapping from Counters fields to registry
// names and determinism classes lives; every engine funnels through it
// (tests/obs_test.cpp pins the parity for each engine).
#pragma once

#include "core/kmeans_types.hpp"
#include "obs/registry.hpp"

namespace knor::detail {

/// Bulk-publish a finished run's counters into the global registry, under
/// the same names and determinism classes for every engine. The
/// algorithmic counters are deterministic — pure functions of (data, opts)
/// like the clustering itself; the attribution counters (NUMA locality,
/// steal schedule) are timing-class (DESIGN.md §6/§10). A run resumed at
/// iteration `resumed_at` counts on from it in res.iters, but ran (and
/// publishes) only its own res.iters - resumed_at iterations.
inline void publish_run_counters(const Result& res,
                                 std::size_t resumed_at = 0) {
  using obs::Det;
  obs::Registry& reg = obs::Registry::global();
  reg.counter("core.dist_computations", Det::kDeterministic)
      .add(res.counters.dist_computations);
  reg.counter("core.clause1_skips", Det::kDeterministic)
      .add(res.counters.clause1_skips);
  reg.counter("core.clause2_skips", Det::kDeterministic)
      .add(res.counters.clause2_skips);
  reg.counter("core.clause3_skips", Det::kDeterministic)
      .add(res.counters.clause3_skips);
  reg.counter("core.iterations", Det::kDeterministic)
      .add(static_cast<std::uint64_t>(res.iters - resumed_at));
  reg.counter("core.local_accesses", Det::kTiming)
      .add(res.counters.local_accesses);
  reg.counter("core.remote_accesses", Det::kTiming)
      .add(res.counters.remote_accesses);
  reg.counter("sched.tasks_own", Det::kTiming).add(res.counters.tasks_own);
  reg.counter("sched.tasks_same_node", Det::kTiming)
      .add(res.counters.tasks_same_node);
  reg.counter("sched.tasks_remote_node", Det::kTiming)
      .add(res.counters.tasks_remote_node);
}

/// Per-fit registry slice (DESIGN.md §10): construct at the entry point,
/// before init, and attach the slice once the fit is done. Engines on the
/// shared driver (which publishes their counters) call attach(res); the
/// others call finish(res) once their Counters are final, which publishes
/// them first. knord ranks share the process registry with their
/// siblings, so dist::kmeans takes one cluster-wide slice instead.
class RunMetricsScope {
 public:
  RunMetricsScope() : before_(obs::Registry::global().snapshot()) {}

  void attach(Result& res) const {
    res.metrics = obs::diff(before_, obs::Registry::global().snapshot());
  }

  void finish(Result& res) const {
    publish_run_counters(res);
    attach(res);
  }

 private:
  obs::Snapshot before_;
};

}  // namespace knor::detail

#include "core/knori.hpp"

#include "common/logger.hpp"
#include "common/memory_tracker.hpp"
#include "core/engine_impl.hpp"
#include "core/init.hpp"
#include "data/dataset.hpp"
#include "numa/numa_alloc.hpp"
#include "obs/span.hpp"

namespace knor {
namespace detail {

Result run_node(ConstMatrixView data, const Options& opts,
                DenseMatrix initial, GlobalReducer* reducer,
                const ResumeState* resume, IterObserver* observer) {
  if (data.empty()) throw std::invalid_argument("kmeans: empty dataset");
  const auto topo = opts.numa_nodes > 0
                        ? numa::Topology::simulated(opts.numa_nodes)
                        : numa::Topology::detect();
  const int T = opts.threads > 0 ? opts.threads : topo.num_cpus();
  const index_t n = data.rows();
  const index_t d = data.cols();

  numa::Partitioner parts(n, T, topo);
  // The NUMA-oblivious baseline runs unbound threads.
  sched::Scheduler sched(T, topo, /*bind=*/opts.numa_aware && opts.numa_bind,
                         opts.sched);
  const auto run = [&](auto&& source) {
    return run_parallel_lloyd(source, n, d, opts, std::move(initial), sched,
                              parts, reducer, resume, observer);
  };
  // NUMA-oblivious baseline: data wherever the original allocation's first
  // touch put it (node 0 for accounting purposes).
  if (!opts.numa_aware) return run(PartitionedView{data, nullptr});

  KNOR_LOG_DEBUG("knori: n=", n, " d=", d, " k=", opts.k, " T=", T,
                 " nodes=", topo.num_nodes(),
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

}  // namespace detail

Result kmeans(ConstMatrixView data, const Options& opts) {
  if (data.empty()) throw std::invalid_argument("kmeans: empty dataset");
  DenseMatrix initial;
  {
    obs::Span span_init("init");
    initial = init_centroids(data, opts);
  }
  return detail::run_node(data, opts, std::move(initial), nullptr);
}

}  // namespace knor

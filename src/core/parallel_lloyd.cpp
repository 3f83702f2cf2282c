// Non-template pieces of the parallel engine: counter aggregation and the
// human-readable result summary. The engine itself is the template in
// engine_impl.hpp, instantiated from knori.cpp (in-memory) and knord.cpp
// (per-rank shards).
#include <algorithm>
#include <sstream>

#include "core/kmeans_types.hpp"

namespace knor {

Counters& Counters::operator+=(const Counters& o) {
  dist_computations += o.dist_computations;
  clause1_skips += o.clause1_skips;
  clause2_skips += o.clause2_skips;
  clause3_skips += o.clause3_skips;
  local_accesses += o.local_accesses;
  remote_accesses += o.remote_accesses;
  tasks_own += o.tasks_own;
  tasks_same_node += o.tasks_same_node;
  tasks_remote_node += o.tasks_remote_node;
  return *this;
}

double Result::makespan_per_iter() const {
  if (iters == 0) return 0.0;
  if (thread_busy_s.empty()) return iter_times.mean();
  double slowest = 0.0;
  for (double busy : thread_busy_s) slowest = std::max(slowest, busy);
  return (slowest + driver_serial_s) / static_cast<double>(iters);
}

std::string Result::summary() const {
  std::ostringstream oss;
  oss << "iters=" << iters << (converged ? " (converged)" : " (max-iters)")
      << " k=" << centroids.rows() << " energy=" << energy
      << " time/iter=" << iter_times.mean() * 1e3 << "ms"
      << " dists=" << counters.dist_computations
      << " c1-skips=" << counters.clause1_skips;
  return oss.str();
}

}  // namespace knor

// Options and result types shared by every knor module (knori / knors /
// knord) and by the baseline implementations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/dense_matrix.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/kernels/simd.hpp"
#include "numa/topology.hpp"
#include "obs/registry.hpp"
#include "sched/scheduler.hpp"

namespace knor {

/// Centroid initialization method.
enum class Init {
  kForgy,     ///< k distinct rows drawn uniformly at random
  kRandom,    ///< random partition: each row assigned a random cluster,
              ///< centroid = partition mean
  kKmeansPP,  ///< D^2 weighting (k-means++)
  kProvided,  ///< caller supplies Options::initial_centroids
};

const char* to_string(Init init);

/// Cache-level tile of the blocked-GEMM engine (CLI --gemm-tile "RxC"):
/// each sweep streams `rows` data rows against `cols` centroids' panels.
/// 0 = auto (resolve_gemm_tile picks an L2-resident shape). A pure
/// performance knob: the fused kernel's reduction order is tile-shape
/// independent, so results are bitwise identical for every tile (DESIGN.md
/// §12).
struct GemmTile {
  index_t rows = 0;
  index_t cols = 0;
};

/// Parses "auto" (both 0) or "RxC" with strictly positive integers.
/// Returns false on anything else (out untouched).
bool parse_gemm_tile(const std::string& name, GemmTile* out);

/// Throwing form shared by CLI flags (std::invalid_argument naming `what`),
/// mirroring kernels::parse_isa_or_throw: a malformed tile must exit
/// nonzero, never silently cluster under a different shape.
GemmTile parse_gemm_tile_or_throw(const std::string& name, const char* what);

/// Fills in auto (zero) fields: 64 rows x 256 centroids, clamped to the
/// problem and rounded up to whole kernels::kGemmPanelWidth panels.
GemmTile resolve_gemm_tile(GemmTile tile, index_t n, int k);

struct Options {
  int k = 8;
  int max_iters = 100;
  /// Converged when the fraction of points changing membership in an
  /// iteration is <= tolerance (0 = exact convergence).
  double tolerance = 0.0;
  Init init = Init::kForgy;
  std::uint64_t seed = 1234567;
  /// Worker threads (0 = one per hardware CPU).
  int threads = 0;
  /// MTI pruning (the paper's knori vs knori- switch).
  bool prune = true;
  /// NUMA-aware placement + binding (off = the paper's "NUMA-oblivious"
  /// baseline of Figure 4).
  bool numa_aware = true;
  /// Pin worker threads to their NUMA node's CPUs (--numa-bind). Only
  /// effective when numa_aware; off leaves placement to the OS scheduler
  /// while keeping the node-partitioned data layout and queues.
  bool numa_bind = true;
  /// Task scheduling policy (Figure 5 compares these).
  sched::SchedPolicy sched = sched::SchedPolicy::kNumaAware;
  /// Rows per scheduler task. 0 = adaptive (Scheduler::auto_task_size,
  /// a thread-count-independent size targeting ~256 chunks); the paper's
  /// fixed 8192 is sched::Scheduler::kPaperTaskSize. The chunk grid this
  /// knob induces also fixes the reduction order, so results for a given
  /// dataset depend on task_size but not on threads (see DESIGN.md §7).
  index_t task_size = 0;
  /// Simulated NUMA node count (0 = use detected topology). See DESIGN.md.
  int numa_nodes = 0;
  /// Distance-kernel ISA (CLI --simd, env KNOR_SIMD). kAuto picks the best
  /// the CPU supports; unavailable requests clamp downward. Results are
  /// bitwise-deterministic per selected ISA; kScalar reproduces the legacy
  /// scalar kernels bit-for-bit (core/kernels/simd.hpp).
  kernels::Isa simd = kernels::Isa::kAuto;
  /// Cache tile of the blocked-GEMM engine (gemm_kmeans only; other
  /// engines ignore it). Default auto.
  GemmTile gemm_tile;
  /// Used when init == kProvided; k x d.
  DenseMatrix initial_centroids;
};

/// Per-run instrumentation, aggregated over threads. The algorithmic
/// counters (dist_computations, clause*_skips) are deterministic — pure
/// functions of (data, opts) like the clustering itself; the attribution
/// counters (local/remote accesses under work stealing, tasks_*) depend on
/// the thread schedule and vary run to run (the bench harness reports them
/// as timings, DESIGN.md §6).
struct Counters {
  std::uint64_t dist_computations = 0;  ///< point-centroid distances evaluated
  std::uint64_t clause1_skips = 0;      ///< points skipped entirely (MTI c1)
  std::uint64_t clause2_skips = 0;      ///< candidate centroids pruned pre-tighten
  std::uint64_t clause3_skips = 0;      ///< candidates pruned after tightening
  std::uint64_t local_accesses = 0;     ///< NUMA-local row accesses
  std::uint64_t remote_accesses = 0;    ///< NUMA-remote row accesses
  std::uint64_t tasks_own = 0;          ///< scheduler: own-partition tasks
  std::uint64_t tasks_same_node = 0;    ///< scheduler: same-node steals
  std::uint64_t tasks_remote_node = 0;  ///< scheduler: remote-node steals

  Counters& operator+=(const Counters& o);
};

struct Result {
  std::size_t iters = 0;
  bool converged = false;
  DenseMatrix centroids;                ///< k x d final means
  std::vector<cluster_t> assignments;   ///< size n
  std::vector<index_t> cluster_sizes;   ///< size k
  /// Sum of squared point-to-assigned-centroid distances (exact; computed
  /// with one final pass, since pruned iterations skip distances).
  double energy = 0.0;
  IterStats iter_times;
  Counters counters;
  /// Per-worker CPU seconds spent in compute phases over the whole run
  /// (empty for engines without a worker pool). On an oversubscribed host,
  /// max() of these approximates the run's makespan on dedicated cores.
  std::vector<double> thread_busy_s;
  /// CPU seconds of inherently serial driver-side work: the shared
  /// driver's centroid pack, step update, MTI prepare and finalize; the
  /// framework stand-ins' shuffle and master reductions.
  double driver_serial_s = 0.0;
  /// This run's slice of the global obs registry (snapshot diff taken
  /// around the engine run): cache/pruning/steal counters and phase
  /// histograms, queryable by name without reaching into process globals
  /// (DESIGN.md §10). Empty under -DKNOR_OBS=OFF and for knord worker
  /// ranks (concurrent ranks share the process registry, so only the
  /// cluster-level dist::kmeans entry attaches a coherent diff).
  obs::Snapshot metrics;

  /// Modeled time per iteration on dedicated cores: the slowest worker's
  /// compute plus the serial driver share. Falls back to wall time when no
  /// per-thread data was recorded.
  double makespan_per_iter() const;

  std::string summary() const;
};

class MtiState;

namespace detail {

/// The NUMA topology and worker count an Options selects: opts.numa_nodes
/// > 0 simulates that many nodes, else the machine's (Topology::detect);
/// opts.threads > 0 overrides one worker per CPU.
struct Workers {
  explicit Workers(const Options& opts)
      : topo(opts.numa_nodes > 0 ? numa::Topology::simulated(opts.numa_nodes)
                                 : numa::Topology::detect()),
        threads(opts.threads > 0 ? opts.threads : topo.num_cpus()) {}
  numa::Topology topo;
  int threads;
};

/// Cross-node reduction hook for the parallel engine. Single-node runs pass
/// nullptr; knord passes an adapter over Communicator::allreduce_sum so the
/// per-iteration merged accumulators (k*d sums + k counts + changed-count,
/// packed into one buffer = one collective per iteration) and the final
/// energy become global sums replicated on every rank.
///
/// Implementations must be bitwise-deterministic elementwise sums: every
/// participant receives the identical result, which keeps the replicated
/// centroid update in lockstep across ranks.
struct GlobalReducer {
  virtual ~GlobalReducer() = default;
  /// In-place elementwise sum of vals[0..n) across all participants.
  virtual void allreduce(double* vals, std::size_t n) = 0;
};

/// Mid-run engine state for resuming the parallel engine at an iteration
/// boundary (checkpoint recovery, DESIGN.md §13). Sized to the node's own
/// shard (n rows), except sums/counts which are the replicated GLOBAL
/// accumulators — identical on every participant after the boundary's
/// allreduce, exactly as the engine maintains them. `upper_bounds` must be
/// pre-loosened against the resumed centroids (ub + drift at save time) so
/// the engine can restart with drift 0 and stay bitwise exact; every
/// checkpoint writer takes them from checkpoint_bounds (core/mti.hpp).
struct ResumeState {
  std::uint64_t iteration = 0;         ///< iterations already completed
  std::vector<cluster_t> assignments;  ///< size n (this node's shard)
  std::vector<value_t> upper_bounds;   ///< size n when pruning, else empty
  DenseMatrix sums;                    ///< k x d global sums (pruning only)
  std::vector<std::int64_t> counts;    ///< k global counts (pruning only)
};

/// Read-only view of the engine state at an iteration boundary, handed to
/// IterObserver::on_iteration. Pointers reference the engine's live state
/// and are valid only for the duration of the call.
struct IterationView {
  std::uint64_t iteration = 0;  ///< iterations completed so far (1-based)
  std::uint64_t changed = 0;    ///< global membership changes this iteration
  const DenseMatrix* centroids = nullptr;  ///< post-update centroids (k x d)
  /// This node's shard assignments (size n).
  const std::vector<cluster_t>* assignments = nullptr;
  const MtiState* mti = nullptr;  ///< pruning state; nullptr when MTI is off
  const DenseMatrix* sums = nullptr;  ///< global sums (pruning only)
  const std::vector<std::int64_t>* counts = nullptr;  ///< global counts
};

/// Iteration-boundary hook for the parallel engine: called after every
/// completed iteration EXCEPT the one that converges — a converged run has
/// nothing left to checkpoint or stop. The boundary that reaches max_iters
/// IS observed, so a run capped short of convergence still checkpoints its
/// last iteration (and can be resumed with a larger cap). When a
/// GlobalReducer is present the view's `changed` is the global count and
/// all ranks observe the identical boundary, so an observer that decides
/// from (plan, view) alone decides identically on every rank.
/// Return false to stop the run cleanly at this boundary; throwing
/// propagates through Cluster::run's abort machinery (fault injection).
struct IterObserver {
  virtual ~IterObserver() = default;
  virtual bool on_iteration(const IterationView& view) = 0;
};

}  // namespace detail

}  // namespace knor

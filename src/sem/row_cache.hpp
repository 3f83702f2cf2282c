// Lazily-updated partitioned row cache (paper §6.2.2, Figure 3).
//
// Pins *active* rows (rows that needed I/O this iteration) in memory at row
// granularity — far more effective than a page cache for k-means, where MTI
// prunes rows near-randomly within pages (Figure 6).
//
// Laziness: the cache refreshes only at iterations I, 2I, 4I, 8I, ...
// (I = update_interval, paper default 5) and is static in between. The
// paper's justification: row activation patterns stabilize as centroids
// settle, so a stale cache still achieves near-100% hit rates (Figure 7)
// while costing almost no maintenance.
//
// Partitioning: one partition per chunk of the engine's (n, task_size)
// chunk grid, each with a quota of rows and its own storage, sized to the
// quota when a refresh begins. A chunk is one scheduler task, processed by
// exactly one worker per iteration, so a partition has a single writer and
// needs no lock. Before a refresh iteration runs, the engine plans the
// quotas from that iteration's active-row counts per chunk (clause-1
// survivors, known before any I/O): the budget goes to chunks in chunk
// order, each taking all its active rows, until it runs out. A chunk
// admits the first quota rows it offers, and its worker offers them in a
// fixed order (row-cache hits in row order, then fetched rows in row
// order). So residency, and the hit count, are pure functions of
// (data, opts) — never of steal order or thread count — and the cache
// fills completely whenever enough rows are active. Published-side lookups
// are read-only and unlocked: the published structures are immutable
// between publish() calls, which happen at single-threaded iteration
// boundaries.
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/types.hpp"

namespace knor::sem {

class RowCache {
 public:
  /// `capacity_bytes` is split over `chunks` partitions, evenly until the
  /// first plan().
  RowCache(std::size_t capacity_bytes, index_t d, std::size_t chunks);

  /// Mode of the current iteration.
  enum class Mode {
    kStatic,   ///< serve lookups; no population
    kRefresh,  ///< flush and repopulate from this iteration's active rows
  };

  /// True when iteration `iter` (1-based) will refresh: the exponential
  /// schedule {I, 2I, 4I, ...}.
  bool refresh_due(int iter) const { return iter == next_refresh_; }

  /// Set the quotas of the next refresh from each chunk's active-row
  /// count: chunks in order take min(active, budget left). Call before
  /// that refresh's begin_iteration().
  void plan(const std::vector<std::size_t>& active_per_chunk);

  /// Called once (single-threaded) at the start of iteration `iter`
  /// (1-based). Returns kRefresh when refresh_due(iter), else kStatic. On
  /// kRefresh the staging side is emptied and sized to the quotas; the
  /// published side keeps serving lookups until publish().
  Mode begin_iteration(int iter);

  /// Read-only lookup in the published cache for row r of chunk `chunk`.
  /// Returns the row's data or nullptr.
  const value_t* lookup(std::size_t chunk, index_t r);

  /// During a kRefresh iteration, offer an active row of `chunk` just
  /// fetched. Inserted while the chunk's quota lasts.
  void offer(std::size_t chunk, index_t r, const value_t* row_data);

  /// Publish the staged partitions (end of a kRefresh iteration,
  /// single-threaded).
  void publish();

  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }
  void reset_stats() {
    hits_ = 0;
    misses_ = 0;
  }

  /// Rows currently resident (published side).
  std::size_t resident_rows() const;
  std::size_t capacity_rows() const { return capacity_rows_; }
  int update_interval() const { return update_interval_; }
  void set_update_interval(int interval);

 private:
  using Index = std::unordered_map<index_t, std::size_t>;  ///< row -> slot

  struct Chunk {
    std::size_t quota = 0;  ///< rows the next refresh may stage
    // Staging side (written during refresh iterations).
    Index staging_index;
    AlignedBuffer<value_t> staging_rows;
    // Published side (read-only between publish() calls).
    Index index;
    AlignedBuffer<value_t> rows;
  };

  index_t d_;
  std::size_t capacity_rows_;
  int update_interval_ = 5;
  int next_refresh_ = 5;
  bool refreshing_ = false;
  std::vector<Chunk> chunks_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace knor::sem

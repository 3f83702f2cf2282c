// Per-chunk accumulator slots — the deterministic-reduction counterpart of
// the work-stealing scheduler (DESIGN.md §7).
//
// The scheduler's chunk grid is a pure function of (n, task_size), so giving
// every chunk its own accumulator makes each slot's content a pure function
// of the data (whichever thread happens to process chunk c writes exactly
// chunk c's rows, in row order), and folding the slots with the fixed tree
// of sched::tree_reduce_fixed makes the merged total a pure function of the
// chunk count. Net effect: centroid sums are bitwise identical regardless
// of steal order AND thread count — per-thread accumulators can guarantee
// neither once chunks migrate between threads.
//
// Slots are cleared lazily on first touch each iteration and tracked by a
// dirty bit, so an iteration where MTI clause 1 skips a whole chunk costs
// that chunk nothing: no clear, no merge (skipping a clean slot is itself
// deterministic — a chunk is dirty iff one of its rows changed membership,
// which is a pure function of the data).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sched/barrier.hpp"
#include "sched/reduction.hpp"

namespace knor {

/// Acc must provide clear() and merge(const Acc&) — LocalCentroids and
/// SignedCentroids both do.
template <typename Acc>
class ChunkAccum {
 public:
  template <typename... Args>
  ChunkAccum(std::size_t chunks, Args&&... args) : dirty_(chunks, 0) {
    slots_.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) slots_.emplace_back(args...);
  }

  std::size_t size() const { return slots_.size(); }

  /// Chunk c's slot, cleared on first touch of the iteration. Only the
  /// thread currently processing chunk c may call this (chunks are claimed
  /// exclusively, so no two threads ever share a slot).
  Acc& touch(std::size_t c) {
    if (!dirty_[c]) {
      slots_[c].clear();
      dirty_[c] = 1;
    }
    return slots_[c];
  }

  /// In-worker fixed-tree fold of all dirty slots into slot 0 (call from
  /// every worker; it barriers). After it returns, slot 0 holds the merged
  /// total iff slot 0 was touched — an all-clean grid means "nothing
  /// accumulated".
  void fold(int tid, int parties, sched::Barrier& barrier) {
    sched::tree_reduce_fixed(tid, parties, slots_.size(), barrier,
                             [&](std::size_t dst, std::size_t src) {
                               if (!dirty_[src]) return;
                               touch(dst).merge(slots_[src]);
                             });
  }

  /// Slot 0, cleared if nothing was folded into it — the merged total as a
  /// plain (possibly zero) accumulator, e.g. for wire packing.
  Acc& merged() { return touch(0); }

  /// Forget all content for the next iteration (slots re-clear on touch).
  void next_iteration() { std::fill(dirty_.begin(), dirty_.end(), 0); }

  std::size_t bytes() const {
    return (slots_.empty() ? 0 : slots_.size() * slots_[0].bytes()) +
           dirty_.size();
  }

 private:
  std::vector<Acc> slots_;
  std::vector<std::uint8_t> dirty_;
};

}  // namespace knor

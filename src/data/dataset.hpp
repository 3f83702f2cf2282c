// NUMA-partitioned in-memory dataset (paper Figure 1).
//
// The n x d matrix is split into T contiguous row blocks; block t is
// allocated on (and first-touched from) thread t's NUMA node. Threads
// compute on their own block with purely node-local reads; row(r) supports
// cross-block access for work stealing, and node_of_row() feeds the
// local/remote accounting in the Figure 4/5 benches.
//
// The NUMA-oblivious baseline instead keeps one contiguous allocation
// placed wherever the allocating thread's first-touch put it, which is
// exactly the malloc behaviour the paper blames (§8.4).
//
// knori copies a caller's matrix into a NumaDataset only on a host with
// more than one physical NUMA node, where the copy is the placement. On a
// single-node host a copy cannot move any row, so knori runs over the
// caller's rows in place (detail::PartitionedView), with the same
// partition and node map — simulated topologies keep their local/remote
// accounting.
#pragma once

#include <memory>
#include <vector>

#include "common/dense_matrix.hpp"
#include "data/generator.hpp"
#include "numa/numa_alloc.hpp"
#include "numa/partitioner.hpp"
#include "sched/scheduler.hpp"

namespace knor::data {

class NumaDataset {
 public:
  /// Partition-copy an existing matrix across nodes using `sched`'s workers
  /// (each worker copies - and therefore first-touches - its own block).
  NumaDataset(ConstMatrixView src, const numa::Partitioner& parts,
              sched::Scheduler& sched);

  /// Generate the dataset directly into node-local blocks, in parallel.
  NumaDataset(const GeneratorSpec& spec, const numa::Partitioner& parts,
              sched::Scheduler& sched);

  index_t n() const { return parts_.n(); }
  index_t d() const { return d_; }
  int threads() const { return parts_.threads(); }

  /// Row r's data (may live on a remote node; O(1)).
  const value_t* row(index_t r) const {
    const int t = parts_.thread_of_row(r);
    const auto& b = blocks_[static_cast<std::size_t>(t)];
    return b.data.data() +
           static_cast<std::size_t>(r - b.range.begin) * d_;
  }

  /// Contiguous view of thread t's block.
  ConstMatrixView thread_view(int t) const {
    const auto& b = blocks_[static_cast<std::size_t>(t)];
    return {b.data.data(), b.range.size(), d_};
  }

  numa::RowRange thread_rows(int t) const { return parts_.thread_rows(t); }
  int node_of_row(index_t r) const { return parts_.node_of_row(r); }
  const numa::Partitioner& partitioner() const { return parts_; }

  /// Total bytes of row data (for memory accounting).
  std::size_t bytes() const {
    return static_cast<std::size_t>(n()) * d_ * sizeof(value_t);
  }

 private:
  struct Block {
    numa::RowRange range;
    numa::NodeBuffer<value_t> data;
  };

  void allocate_blocks(sched::Scheduler& sched);

  numa::Partitioner parts_;
  index_t d_;
  std::vector<Block> blocks_;
};

}  // namespace knor::data

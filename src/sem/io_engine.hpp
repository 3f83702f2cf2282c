// Asynchronous I/O engine with request merging — the FlashGraph/SAFS I/O
// layer of the SEM substrate (DESIGN.md §4).
//
// Responsibilities (paper §2 "FlashGraph ... merge I/O requests ... overlaps
// I/O with computation"):
//   * One pass per batch: fetch_rows walks the pages the batch's ascending
//     rows touch, in order, probing each page of the page cache once (one
//     hit or miss per staged page; no page list is built or sorted).
//   * Row-sized copies: a resident page's rows are copied out of its frame
//     under the partition lock, taken once per page; only the rows' bytes
//     move, never the whole page.
//   * Request merging: runs of missing pages within `merge_gap` of each
//     other are coalesced into one extent read (gap pages are read and
//     cached but copied nowhere). The extent is read with one preadv
//     straight into page-cache frames claimed for it, and the rows it
//     covers are copied from those frames before they are published — so
//     a frame evicted right after publication cannot tear a row. A page
//     that gets no frame (already resident, or all of its partition's
//     frames claimed) lands in a per-thread spill buffer instead.
//   * Asynchrony: prefetch(rows) hands a batch to a dedicated I/O thread
//     which runs the same pass without copying rows out, while the
//     compute thread works on the previous batch; Ticket::wait()
//     synchronizes.
//
// The engine never keeps per-row state — row -> page geometry is computed
// from the PageFile (the page_row design).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "sem/page_cache.hpp"
#include "sem/page_file.hpp"

namespace knor::sem {

class IoEngine {
 public:
  IoEngine(PageFile& file, PageCache& cache, int io_threads = 1,
           std::uint32_t merge_gap = 0);
  ~IoEngine();

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  /// Synchronously materialize rows `rows` (ascending) into `out`
  /// (rows.size() x d). Serves from the page cache; missing pages are read
  /// as merged extents into the cache.
  void fetch_rows(const std::vector<index_t>& rows, value_t* out);

  /// Handle for an in-flight prefetch.
  class Ticket {
   public:
    Ticket() = default;
    /// Block until the batch's pages are staged in the page cache.
    void wait();

   private:
    friend class IoEngine;
    struct State;
    std::shared_ptr<State> state_;
  };

  /// Asynchronously stage the pages of `rows` (ascending) into the page
  /// cache.
  Ticket prefetch(std::vector<index_t> rows);

  /// Total bytes of row data callers asked for (the "requested" series of
  /// the paper's Figure 6).
  std::uint64_t bytes_requested() const { return bytes_requested_.load(); }
  void reset_stats() { bytes_requested_ = 0; }

 private:
  struct Request;

  /// The one pass over ascending `rows`; `out` == nullptr stages only.
  void stage(const std::vector<index_t>& rows, unsigned char* out);
  void io_loop();

  PageFile& file_;
  PageCache& cache_;
  std::uint32_t merge_gap_;
  std::atomic<std::uint64_t> bytes_requested_{0};

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  bool stop_ = false;
  std::vector<std::thread> io_threads_;
};

}  // namespace knor::sem

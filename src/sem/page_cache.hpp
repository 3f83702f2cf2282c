// Partitioned clock page cache — the SAFS page-cache layer (§2, §6 of the
// paper): pins frequently touched pages in memory to reduce device reads.
//
// Pages hash to partitions; each partition is an independent clock (a.k.a.
// second-chance) cache behind its own lock, so concurrent compute and I/O
// threads rarely contend. Capacity is given in bytes and split evenly.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/aligned_buffer.hpp"

namespace knor::sem {

class PageCache {
 public:
  PageCache(std::size_t capacity_bytes, std::size_t page_size,
            int partitions = 8);

  std::size_t page_size() const { return page_size_; }
  /// Total page slots across partitions.
  std::size_t capacity_pages() const { return capacity_pages_; }

  /// Copy page `page_id` into `out` if cached; counts one hit or miss.
  /// Marks the page referenced.
  bool lookup(std::uint64_t page_id, unsigned char* out) {
    return access(page_id, out, /*count=*/true);
  }
  /// lookup() without counting: the copy-out of a page a probe() already
  /// counted when it was staged.
  bool copy_out(std::uint64_t page_id, unsigned char* out) {
    return access(page_id, out, /*count=*/false);
  }
  /// True when the page is resident; counts one hit or miss. The staging
  /// path's residency test: each requested page is probed exactly once.
  bool probe(std::uint64_t page_id) {
    return access(page_id, nullptr, /*count=*/true);
  }
  /// True when the page is resident (uncounted; still marks referenced).
  bool contains(std::uint64_t page_id) {
    return access(page_id, nullptr, /*count=*/false);
  }
  /// Insert (or refresh) a page; evicts via clock within the partition.
  void insert(std::uint64_t page_id, const unsigned char* data);
  /// Drop everything (used between bench configurations).
  void clear();

  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }
  void reset_stats() {
    hits_ = 0;
    misses_ = 0;
  }

 private:
  struct Partition {
    std::mutex mu;
    std::unordered_map<std::uint64_t, std::size_t> index;  // page -> slot
    std::vector<std::uint64_t> slot_page;  // slot -> page (UINT64_MAX free)
    std::vector<std::uint8_t> referenced;  // clock bits
    AlignedBuffer<unsigned char> frames;
    std::size_t hand = 0;
  };

  /// Resident test + optional copy into `out`; `count` tallies a hit or
  /// a miss.
  bool access(std::uint64_t page_id, unsigned char* out, bool count);

  Partition& part_of(std::uint64_t page_id) {
    return *parts_[static_cast<std::size_t>(page_id) % parts_.size()];
  }

  std::size_t page_size_;
  std::size_t capacity_pages_;
  std::vector<std::unique_ptr<Partition>> parts_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace knor::sem

// Partitioned clock page cache — the SAFS page-cache layer (§2, §6 of the
// paper): pins frequently touched pages in memory to reduce device reads.
//
// Pages hash to partitions; each partition is an independent clock (a.k.a.
// second-chance) cache behind its own lock, so concurrent compute and I/O
// threads rarely contend. Capacity is given in bytes and split evenly.
//
// The fetch path never copies a whole page (DESIGN.md §4). A resident
// page is read in place: probe() hands its frame to a callback under the
// partition lock, which copies out only the bytes it needs. A missing
// extent is read straight into frames: claim() reserves them (evicting by
// clock, one lock per partition), the caller fills them lock-free, and
// publish() makes them resident. A claimed frame is invisible to probes
// and exempt from eviction until it is published.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
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

  /// True when the page is resident; counts one hit or miss — the
  /// staging path probes each requested page exactly once. On a hit the
  /// page is marked referenced and `on_hit(frame)` runs under the
  /// partition lock, so the frame cannot be evicted or refilled while it
  /// is read.
  template <class OnHit>
  bool probe(std::uint64_t page_id, OnHit&& on_hit) {
    Partition& part = part_of(page_id);
    std::lock_guard<std::mutex> lock(part.mu);
    const auto it = part.index.find(page_id);
    if (it == part.index.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    part.referenced[it->second] = 1;
    on_hit(static_cast<const unsigned char*>(part.frame(it->second,
                                                        page_size_)));
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  /// Copy page `page_id` into `out` if cached; counts one hit or miss.
  bool lookup(std::uint64_t page_id, unsigned char* out) {
    return probe(page_id, [&](const unsigned char* frame) {
      std::memcpy(out, frame, page_size_);
    });
  }
  /// True when the page is resident (uncounted; still marks referenced).
  bool contains(std::uint64_t page_id);
  /// Insert (or refresh) a page from `data`; evicts via clock within the
  /// partition.
  void insert(std::uint64_t page_id, const unsigned char* data);

  /// Reserve frames for the `count` pages from `first_page` on: `frames[i]`
  /// receives page first_page + i's frame, or nullptr when the page is
  /// already resident or every frame of its partition is claimed. Takes
  /// each partition's lock once.
  void claim(std::uint64_t first_page, std::uint32_t count,
             unsigned char** frames);
  /// Make the frames claim() returned (nullptr entries skipped) resident,
  /// once the caller has filled them. A page another thread published in
  /// the meantime keeps that copy; the duplicate frame is freed.
  void publish(std::uint64_t first_page, std::uint32_t count,
               unsigned char* const* frames);

  /// Drop everything (used between bench configurations). Not concurrent
  /// with claims in flight.
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
    std::vector<std::uint8_t> claimed;     // being filled outside the lock
    AlignedBuffer<unsigned char> frames;
    std::size_t hand = 0;

    unsigned char* frame(std::size_t slot, std::size_t page_size) {
      return frames.data() + slot * page_size;
    }
  };

  /// Clock victim for a new page (lock held): the slot is detached from
  /// its old page and assigned `page_id`. kNoSlot when every slot is
  /// claimed.
  std::size_t take_slot(Partition& part, std::uint64_t page_id);

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

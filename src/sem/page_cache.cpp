#include "sem/page_cache.hpp"

#include <limits>

namespace knor::sem {
namespace {
constexpr std::uint64_t kFreeSlot = std::numeric_limits<std::uint64_t>::max();
constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();
}

PageCache::PageCache(std::size_t capacity_bytes, std::size_t page_size,
                     int partitions)
    : page_size_(page_size == 0 ? 4096 : page_size) {
  if (partitions < 1) partitions = 1;
  capacity_pages_ = capacity_bytes / page_size_;
  if (capacity_pages_ < static_cast<std::size_t>(partitions))
    capacity_pages_ = static_cast<std::size_t>(partitions);
  const std::size_t per_part =
      capacity_pages_ / static_cast<std::size_t>(partitions);
  parts_.reserve(static_cast<std::size_t>(partitions));
  for (int p = 0; p < partitions; ++p) {
    auto part = std::make_unique<Partition>();
    part->slot_page.assign(per_part, kFreeSlot);
    part->referenced.assign(per_part, 0);
    part->claimed.assign(per_part, 0);
    part->frames = AlignedBuffer<unsigned char>(per_part * page_size_);
    part->index.reserve(per_part * 2);
    parts_.push_back(std::move(part));
  }
  capacity_pages_ = per_part * static_cast<std::size_t>(partitions);
}

bool PageCache::contains(std::uint64_t page_id) {
  Partition& part = part_of(page_id);
  std::lock_guard<std::mutex> lock(part.mu);
  const auto it = part.index.find(page_id);
  if (it == part.index.end()) return false;
  part.referenced[it->second] = 1;
  return true;
}

std::size_t PageCache::take_slot(Partition& part, std::uint64_t page_id) {
  // Clock eviction: advance the hand past referenced slots (clearing their
  // bit) until an unreferenced or free slot is found. Claimed slots are
  // being filled by another thread and are passed over untouched.
  const std::size_t slots = part.slot_page.size();
  std::size_t victim = kNoSlot;
  for (std::size_t step = 0; step < 2 * slots; ++step) {
    const std::size_t s = (part.hand + step) % slots;
    if (part.claimed[s] != 0) continue;
    if (part.slot_page[s] == kFreeSlot || part.referenced[s] == 0) {
      victim = s;
      part.hand = (s + 1) % slots;
      break;
    }
    part.referenced[s] = 0;
  }
  if (victim == kNoSlot) return kNoSlot;
  if (part.slot_page[victim] != kFreeSlot)
    part.index.erase(part.slot_page[victim]);
  part.slot_page[victim] = page_id;
  return victim;
}

void PageCache::insert(std::uint64_t page_id, const unsigned char* data) {
  Partition& part = part_of(page_id);
  std::lock_guard<std::mutex> lock(part.mu);
  auto it = part.index.find(page_id);
  std::size_t slot;
  if (it != part.index.end()) {
    slot = it->second;
  } else {
    slot = take_slot(part, page_id);
    if (slot == kNoSlot) return;  // every frame is being filled
    part.index[page_id] = slot;
  }
  part.referenced[slot] = 1;
  std::memcpy(part.frame(slot, page_size_), data, page_size_);
}

void PageCache::claim(std::uint64_t first_page, std::uint32_t count,
                      unsigned char** frames) {
  // Consecutive pages hash to consecutive partitions, so the pages that
  // share page first_page + i's partition are i, i + P, i + 2P, ...
  const std::size_t P = parts_.size();
  for (std::size_t i0 = 0; i0 < P && i0 < count; ++i0) {
    Partition& part = part_of(first_page + i0);
    std::lock_guard<std::mutex> lock(part.mu);
    for (std::size_t i = i0; i < count; i += P) {
      const std::uint64_t page = first_page + i;
      std::size_t slot = kNoSlot;
      if (part.index.find(page) == part.index.end())
        slot = take_slot(part, page);
      if (slot == kNoSlot) {
        frames[i] = nullptr;
        continue;
      }
      part.claimed[slot] = 1;
      frames[i] = part.frame(slot, page_size_);
    }
  }
}

void PageCache::publish(std::uint64_t first_page, std::uint32_t count,
                        unsigned char* const* frames) {
  const std::size_t P = parts_.size();
  for (std::size_t i0 = 0; i0 < P && i0 < count; ++i0) {
    Partition& part = part_of(first_page + i0);
    std::lock_guard<std::mutex> lock(part.mu);
    for (std::size_t i = i0; i < count; i += P) {
      if (frames[i] == nullptr) continue;
      const auto slot = static_cast<std::size_t>(frames[i] -
                                                 part.frames.data()) /
                        page_size_;
      part.claimed[slot] = 0;
      if (part.index.try_emplace(first_page + i, slot).second) {
        part.referenced[slot] = 1;
      } else {
        part.slot_page[slot] = kFreeSlot;
        part.referenced[slot] = 0;
      }
    }
  }
}

void PageCache::clear() {
  for (auto& p : parts_) {
    std::lock_guard<std::mutex> lock(p->mu);
    p->index.clear();
    std::fill(p->slot_page.begin(), p->slot_page.end(), kFreeSlot);
    std::fill(p->referenced.begin(), p->referenced.end(), 0);
    std::fill(p->claimed.begin(), p->claimed.end(), 0);
    p->hand = 0;
  }
}

}  // namespace knor::sem

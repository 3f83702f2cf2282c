#include "sem/row_cache.hpp"

#include <algorithm>
#include <cstring>

namespace knor::sem {

RowCache::RowCache(std::size_t capacity_bytes, index_t d, std::size_t chunks)
    : d_(d), chunks_(std::max<std::size_t>(chunks, 1)) {
  const std::size_t row_bytes = static_cast<std::size_t>(d) * sizeof(value_t);
  capacity_rows_ = row_bytes == 0 ? 0 : capacity_bytes / row_bytes;
  // Even split: the first capacity % chunks chunks get one extra row.
  const std::size_t each = capacity_rows_ / chunks_.size();
  const std::size_t extra = capacity_rows_ % chunks_.size();
  for (std::size_t c = 0; c < chunks_.size(); ++c)
    chunks_[c].quota = each + (c < extra ? 1 : 0);
}

void RowCache::set_update_interval(int interval) {
  update_interval_ = interval < 1 ? 1 : interval;
  next_refresh_ = update_interval_;
}

void RowCache::plan(const std::vector<std::size_t>& active_per_chunk) {
  std::size_t left = capacity_rows_;
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    chunks_[c].quota = std::min(active_per_chunk[c], left);
    left -= chunks_[c].quota;
  }
}

RowCache::Mode RowCache::begin_iteration(int iter) {
  refreshing_ = refresh_due(iter);
  if (refreshing_) {
    // Exponential back-off of refreshes: I, 2I, 4I, ...
    next_refresh_ *= 2;
    for (Chunk& ch : chunks_) {
      ch.staging_index.clear();
      ch.staging_index.reserve(ch.quota);
      ch.staging_rows = AlignedBuffer<value_t>(ch.quota * d_);
    }
  }
  return refreshing_ ? Mode::kRefresh : Mode::kStatic;
}

const value_t* RowCache::lookup(std::size_t chunk, index_t r) {
  const Chunk& ch = chunks_[chunk];
  const auto it = ch.index.find(r);
  if (it == ch.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return ch.rows.data() + it->second * d_;
}

void RowCache::offer(std::size_t chunk, index_t r, const value_t* row_data) {
  if (!refreshing_) return;
  Chunk& ch = chunks_[chunk];
  if (ch.staging_index.size() >= ch.quota) return;  // quota exhausted
  const auto [it, inserted] =
      ch.staging_index.try_emplace(r, ch.staging_index.size());
  if (!inserted) return;
  std::memcpy(ch.staging_rows.data() + it->second * d_, row_data,
              static_cast<std::size_t>(d_) * sizeof(value_t));
}

void RowCache::publish() {
  if (!refreshing_) return;
  for (Chunk& ch : chunks_) {
    std::swap(ch.index, ch.staging_index);
    std::swap(ch.rows, ch.staging_rows);
    ch.staging_index.clear();
  }
  refreshing_ = false;
}

std::size_t RowCache::resident_rows() const {
  std::size_t total = 0;
  for (const Chunk& ch : chunks_) total += ch.index.size();
  return total;
}

}  // namespace knor::sem

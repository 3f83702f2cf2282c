#include "sem/io_engine.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

namespace knor::sem {

struct IoEngine::Ticket::State {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
};

void IoEngine::Ticket::wait() {
  if (!state_) return;
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
}

struct IoEngine::Request {
  std::vector<std::uint64_t> pages;
  std::shared_ptr<Ticket::State> state;
};

IoEngine::IoEngine(PageFile& file, PageCache& cache, int io_threads,
                   std::uint32_t merge_gap)
    : file_(file), cache_(cache), merge_gap_(merge_gap) {
  if (io_threads < 1) io_threads = 1;
  io_threads_.reserve(static_cast<std::size_t>(io_threads));
  for (int t = 0; t < io_threads; ++t)
    io_threads_.emplace_back([this] { io_loop(); });
}

IoEngine::~IoEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : io_threads_) t.join();
}

std::vector<std::uint64_t> IoEngine::pages_of(
    const std::vector<index_t>& rows) const {
  std::vector<std::uint64_t> pages;
  pages.reserve(rows.size() * 2);
  for (index_t r : rows) {
    const std::uint64_t first = file_.first_page_of_row(r);
    const std::uint64_t last = file_.last_page_of_row(r);
    for (std::uint64_t p = first; p <= last; ++p) pages.push_back(p);
  }
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  return pages;
}

void IoEngine::stage_pages(const std::vector<std::uint64_t>& pages) {
  // Coalesce pages into extents: consecutive (or within merge_gap) pages
  // become one device read — SAFS-style request merging. Gap pages inside a
  // merged extent are read too (that is the fragmentation cost Figure 6b
  // quantifies: the device transfers more than was requested).
  //
  // Every requested page is probed exactly once, counting one page-cache
  // hit or miss: a resident page that ends an extent was already probed by
  // the merge loop, so the next round skips it without a second probe.
  std::size_t i = 0;
  bool probed_resident = false;  // pages[i] already counted as a hit
  std::vector<unsigned char> buf;
  while (i < pages.size()) {
    if (probed_resident || cache_.probe(pages[i])) {
      probed_resident = false;
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j + 1 < pages.size() &&
           pages[j + 1] - pages[j] <= 1 + merge_gap_) {
      if (cache_.probe(pages[j + 1])) {
        probed_resident = true;
        break;
      }
      ++j;
    }
    const std::uint64_t first = pages[i];
    const auto count = static_cast<std::uint32_t>(pages[j] - first + 1);
    buf.resize(static_cast<std::size_t>(count) * file_.page_size());
    file_.read_pages(first, count, buf.data());
    for (std::uint32_t p = 0; p < count; ++p)
      cache_.insert(first + p, buf.data() +
                                   static_cast<std::size_t>(p) *
                                       file_.page_size());
    i = j + 1;
  }
}

void IoEngine::fetch_rows(const std::vector<index_t>& rows, value_t* out) {
  if (rows.empty()) return;
  bytes_requested_.fetch_add(rows.size() * file_.row_bytes(),
                             std::memory_order_relaxed);
  stage_pages(pages_of(rows));

  // Copy each row out of its (now resident) pages.
  const std::size_t page_size = file_.page_size();
  const std::size_t row_bytes = file_.row_bytes();
  std::vector<unsigned char> page(page_size);
  auto* dst = reinterpret_cast<unsigned char*>(out);
  for (std::size_t idx = 0; idx < rows.size(); ++idx) {
    const index_t r = rows[idx];
    std::uint64_t off = file_.row_offset(r);
    std::size_t remaining = row_bytes;
    unsigned char* row_dst = dst + idx * row_bytes;
    while (remaining > 0) {
      const std::uint64_t page_id = off / page_size;
      const std::size_t in_page = static_cast<std::size_t>(off % page_size);
      const std::size_t take = std::min(remaining, page_size - in_page);
      if (!cache_.copy_out(page_id, page.data())) {
        // Evicted between staging and copy (tiny cache): re-read directly.
        file_.read_pages(page_id, 1, page.data());
        cache_.insert(page_id, page.data());
      }
      std::memcpy(row_dst, page.data() + in_page, take);
      row_dst += take;
      off += take;
      remaining -= take;
    }
  }
}

IoEngine::Ticket IoEngine::prefetch(std::vector<index_t> rows) {
  Ticket ticket;
  ticket.state_ = std::make_shared<Ticket::State>();
  Request req;
  req.pages = pages_of(rows);
  req.state = ticket.state_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(req));
  }
  cv_.notify_one();
  return ticket;
}

void IoEngine::io_loop() {
  for (;;) {
    Request req;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      req = std::move(queue_.front());
      queue_.pop_front();
    }
    stage_pages(req.pages);
    {
      std::lock_guard<std::mutex> lock(req.state->mu);
      req.state->done = true;
    }
    req.state->cv.notify_all();
  }
}

}  // namespace knor::sem

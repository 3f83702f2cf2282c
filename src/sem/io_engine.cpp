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
  std::vector<index_t> rows;
  std::shared_ptr<Ticket::State> state;
};

namespace {

/// A page the batch touches, with the rows [row_begin, row_end) (indices
/// into the batch) that overlap it.
struct PageSpan {
  std::uint64_t page = 0;
  std::size_t row_begin = 0, row_end = 0;
};

/// Yields the pages touched by ascending rows, each once and in order.
/// O(rows + pages) over the whole batch.
class PageWalk {
 public:
  PageWalk(const PageFile& file, const std::vector<index_t>& rows)
      : file_(file), rows_(rows) {}

  bool next(PageSpan& span) {
    // Rows that end before the next candidate page are done.
    while (row_ < rows_.size() && file_.last_page_of_row(rows_[row_]) < page_)
      ++row_;
    if (row_ == rows_.size()) return false;
    span.page = std::max(page_, file_.first_page_of_row(rows_[row_]));
    span.row_begin = row_;
    span.row_end = row_ + 1;
    while (span.row_end < rows_.size() &&
           file_.first_page_of_row(rows_[span.row_end]) <= span.page)
      ++span.row_end;
    page_ = span.page + 1;
    return true;
  }

 private:
  const PageFile& file_;
  const std::vector<index_t>& rows_;
  std::size_t row_ = 0;     ///< first row not yet wholly walked
  std::uint64_t page_ = 0;  ///< lowest page not yet yielded
};

/// Per-thread scratch of the pass, reused across batches.
struct Scratch {
  std::vector<PageSpan> extent;       ///< needed pages of the open extent
  std::vector<unsigned char*> frames;  ///< claimed frames (nullptr: none)
  std::vector<unsigned char*> dst;     ///< where each extent page lands
  std::vector<unsigned char> spill;    ///< pages that got no frame
};

}  // namespace

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

void IoEngine::stage(const std::vector<index_t>& rows, unsigned char* out) {
  const std::size_t page_size = file_.page_size();
  const std::size_t row_bytes = file_.row_bytes();
  // Copy the bytes of span's rows that lie on its page out of `page`.
  const auto copy_rows = [&](const PageSpan& span, const unsigned char* page) {
    const std::uint64_t page_lo = span.page * page_size;
    const std::uint64_t page_hi = page_lo + page_size;
    for (std::size_t j = span.row_begin; j < span.row_end; ++j) {
      const std::uint64_t off = file_.row_offset(rows[j]);
      const std::uint64_t lo = std::max(off, page_lo);
      const std::uint64_t hi = std::min(off + row_bytes, page_hi);
      std::memcpy(out + j * row_bytes + (lo - off), page + (lo - page_lo),
                  static_cast<std::size_t>(hi - lo));
    }
  };
  // Probe a page (one hit or miss); a resident page's rows are copied out
  // under the same lock.
  const auto probe = [&](const PageSpan& span) {
    return cache_.probe(span.page, [&](const unsigned char* frame) {
      if (out != nullptr) copy_rows(span, frame);
    });
  };

  thread_local Scratch s;
  // Read the open extent — needed pages plus the gap pages between them —
  // with one device request into claimed frames, copy its rows out, then
  // publish the frames.
  const auto load_extent = [&] {
    const std::uint64_t first = s.extent.front().page;
    const auto count =
        static_cast<std::uint32_t>(s.extent.back().page - first + 1);
    s.frames.resize(count);
    s.dst.resize(count);
    cache_.claim(first, count, s.frames.data());
    if (std::find(s.frames.begin(), s.frames.end(), nullptr) !=
        s.frames.end())
      s.spill.resize(static_cast<std::size_t>(count) * page_size);
    for (std::uint32_t i = 0; i < count; ++i)
      s.dst[i] = s.frames[i] != nullptr ? s.frames[i]
                                        : s.spill.data() + i * page_size;
    file_.read_pages(first, count, s.dst.data());
    if (out != nullptr)
      for (const PageSpan& span : s.extent)
        copy_rows(span, s.dst[span.page - first]);
    cache_.publish(first, count, s.frames.data());
  };

  PageWalk walk(file_, rows);
  PageSpan span;
  bool more = walk.next(span);
  while (more) {
    if (probe(span)) {
      more = walk.next(span);
      continue;
    }
    // A missing page opens an extent; following pages within merge_gap
    // join it while they miss. A resident page ends it (counted and served
    // once, here) — SAFS-style request merging.
    s.extent.assign(1, span);
    more = walk.next(span);
    while (more && span.page - s.extent.back().page <= 1 + merge_gap_) {
      if (probe(span)) {
        more = walk.next(span);
        break;
      }
      s.extent.push_back(span);
      more = walk.next(span);
    }
    load_extent();
  }
}

void IoEngine::fetch_rows(const std::vector<index_t>& rows, value_t* out) {
  if (rows.empty()) return;
  bytes_requested_.fetch_add(rows.size() * file_.row_bytes(),
                             std::memory_order_relaxed);
  stage(rows, reinterpret_cast<unsigned char*>(out));
}

IoEngine::Ticket IoEngine::prefetch(std::vector<index_t> rows) {
  Ticket ticket;
  ticket.state_ = std::make_shared<Ticket::State>();
  Request req;
  req.rows = std::move(rows);
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
    stage(req.rows, nullptr);
    {
      std::lock_guard<std::mutex> lock(req.state->mu);
      req.state->done = true;
    }
    req.state->cv.notify_all();
  }
}

}  // namespace knor::sem

#include "sem/page_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "data/matrix_io.hpp"
#include "obs/span.hpp"

namespace knor::sem {

PageFile::PageFile(const std::string& path, std::size_t page_size,
                   SsdCostModel cost)
    : page_size_(page_size == 0 ? 4096 : page_size),
      cost_(cost),
      device_read_us_(obs::Registry::global().histogram("sem.device_read_us",
                                                        obs::Det::kTiming)) {
  // Validate via the shared header reader first (throws on bad files).
  const data::MatrixHeader header = data::read_header(path);
  n_ = header.n;
  d_ = header.d;
  row_bytes_ = static_cast<std::size_t>(d_) * header.elem_size;
  header_bytes_ = data::kHeaderBytes;
  file_bytes_ = header_bytes_ + static_cast<std::uint64_t>(n_) * row_bytes_;
  num_pages_ = (file_bytes_ + page_size_ - 1) / page_size_;

  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0)
    throw std::runtime_error("PageFile: cannot open '" + path + "'");
}

PageFile::~PageFile() {
  if (fd_ >= 0) ::close(fd_);
}

std::size_t PageFile::read_pages(std::uint64_t first_page, std::uint32_t count,
                                 unsigned char* buf) {
  if (first_page >= num_pages_ || count == 0) return 0;
  const std::size_t want = static_cast<std::size_t>(count) * page_size_;
  iovec iov{buf, want};
  return read_extent(first_page * page_size_, &iov, 1, want);
}

std::size_t PageFile::read_pages(std::uint64_t first_page, std::uint32_t count,
                                 unsigned char* const* pages) {
  if (first_page >= num_pages_ || count == 0) return 0;
  std::vector<iovec> iov(count);
  for (std::uint32_t p = 0; p < count; ++p) iov[p] = {pages[p], page_size_};
  return read_extent(first_page * page_size_, iov.data(),
                     static_cast<int>(count),
                     static_cast<std::size_t>(count) * page_size_);
}

std::size_t PageFile::read_extent(std::uint64_t offset, iovec* iov,
                                  int iovcnt, std::size_t want) {
  // Device time, emulated service time included: the part of a fetch's
  // I/O wait (sem.io_wait_us) that is not staging or copying.
  const std::uint64_t t0 = obs::Tracer::now_us();
  std::size_t got = 0;
  int i = 0;  // first iovec not yet filled
  while (got < want) {
    const ssize_t r =
        ::preadv(fd_, iov + i, std::min(iovcnt - i, IOV_MAX),
                 static_cast<off_t>(offset + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("PageFile: pread failed");
    }
    if (r == 0) break;  // EOF: final page partially populated
    got += static_cast<std::size_t>(r);
    // Step past the filled iovecs; a short read resumes mid-iovec.
    for (std::size_t left = static_cast<std::size_t>(r); left > 0;) {
      const std::size_t take = std::min(left, iov[i].iov_len);
      iov[i].iov_base = static_cast<unsigned char*>(iov[i].iov_base) + take;
      iov[i].iov_len -= take;
      left -= take;
      if (iov[i].iov_len == 0) ++i;
    }
  }
  for (; i < iovcnt; ++i) std::memset(iov[i].iov_base, 0, iov[i].iov_len);

  bytes_read_.fetch_add(got, std::memory_order_relaxed);
  read_requests_.fetch_add(1, std::memory_order_relaxed);

  if (cost_.enabled()) {
    // Emulate SSD service time: latency + size / bandwidth.
    double ns = 1e3 * cost_.latency_us;
    if (cost_.gigabytes_per_sec > 0)
      ns += static_cast<double>(got) / cost_.gigabytes_per_sec;
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::nanoseconds(static_cast<std::int64_t>(ns));
    while (std::chrono::steady_clock::now() < until) {
    }
  }
  device_read_us_.record(obs::Tracer::now_us() - t0);
  return got;
}

}  // namespace knor::sem

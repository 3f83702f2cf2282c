// Host facts and device ceilings (roofline denominators), measured in the
// same invocation as the workload so each ratio shares a host state with
// what it divides.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>

#include "bench.hpp"
#include "common/aligned_buffer.hpp"
#include "common/strict_parse.hpp"
#include "dist/comm.hpp"

namespace pb {
namespace {

/// Results of timed loops land here so the compiler cannot drop the work.
volatile double g_sink = 0;

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// "307200K" / "32M" / "1024" -> bytes; 0 when unparsable.
std::uint64_t parse_cache_size(std::string s) {
  std::uint64_t mult = 1;
  if (!s.empty() && (s.back() == 'K' || s.back() == 'M')) {
    mult = s.back() == 'K' ? 1024 : 1024 * 1024;
    s.pop_back();
  }
  std::uint64_t v = 0;
  return knor::parse_u64(s, &v) ? v * mult : 0;
}

/// Splits [0, n) evenly over `threads` and runs fn(begin, end) on each.
template <typename Fn>
void parallel_ranges(std::size_t n, int threads, Fn fn) {
  std::vector<std::thread> pool;
  const std::size_t per = (n + static_cast<std::size_t>(threads) - 1) /
                          static_cast<std::size_t>(threads);
  for (int t = 0; t < threads; ++t) {
    const std::size_t b = std::min(n, per * static_cast<std::size_t>(t));
    const std::size_t e = std::min(n, b + per);
    pool.emplace_back([=] { fn(b, e); });
  }
  for (std::thread& th : pool) th.join();
}

}  // namespace

HostInfo host_info() {
  HostInfo h;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);)
    if (line.rfind("model name", 0) == 0) {
      h.cpu_model = line.substr(line.find(':') + 2);
      break;
    }
  h.nproc = static_cast<int>(std::thread::hardware_concurrency());
  namespace fs = std::filesystem;
  std::error_code ec;
  for (int i = 0; fs::exists("/sys/devices/system/node/node" +
                                 std::to_string(i), ec);
       ++i)
    h.numa_nodes = i + 1;
  int best_level = 0;
  for (int i = 0;; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    if (!fs::exists(dir, ec)) break;
    std::uint64_t level = 0;
    if (!knor::parse_u64(read_line(dir + "/level"), &level)) continue;
    if (static_cast<int>(level) >= best_level) {
      best_level = static_cast<int>(level);
      h.llc_bytes = parse_cache_size(read_line(dir + "/size"));
    }
  }
  return h;
}

double triad_gbps(std::size_t bytes_per_array, int threads) {
  const std::size_t n = bytes_per_array / sizeof(double);
  knor::AlignedBuffer<double> a(n), b(n), c(n);
  parallel_ranges(n, threads, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      b[i] = 1.0 + static_cast<double>(i & 7);
      c[i] = 0.5;
    }
  });
  const double s = 3.0;
  double best = 0;
  for (int pass = 0; pass < 4; ++pass) {
    const double t = timed([&] {
      parallel_ranges(n, threads, [&](std::size_t lo, std::size_t hi) {
        double* __restrict pa = a.data();
        const double* __restrict pb = b.data();
        const double* __restrict pc = c.data();
        for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + s * pc[i];
      });
    });
    // Pass 0 faults the destination pages in; STREAM reports the best.
    if (pass > 0) best = std::max(best, 3.0 * n * sizeof(double) / t / 1e9);
  }
  g_sink = a[n / 2];
  return best;
}

double pread_gbps(const std::string& path, std::size_t page_size) {
  knor::sem::PageFile file(path, page_size);
  const std::size_t pages_per_read = (1u << 20) / page_size;
  std::vector<unsigned char> buf(pages_per_read * page_size);
  double best = 0;
  for (int pass = 0; pass < 3; ++pass) {
    std::uint64_t bytes = 0;
    const double t = timed([&] {
      for (std::uint64_t p = 0; p < file.num_pages(); p += pages_per_read) {
        const auto count = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(pages_per_read, file.num_pages() - p));
        bytes += file.read_pages(p, count, buf.data());
      }
    });
    best = std::max(best, static_cast<double>(bytes) / t / 1e9);
  }
  return best;
}

double allreduce_us(int ranks, std::size_t elems) {
  constexpr int reps = 200;
  knor::dist::Cluster cluster(ranks);
  std::vector<double> times;
  cluster.run([&](knor::dist::Communicator& comm) {
    std::vector<double> buf(elems, 1.0);
    for (int r = 0; r < reps; ++r) {
      const double t0 = now_s();
      comm.allreduce_sum(buf.data(), buf.size());
      if (comm.rank() == 0) times.push_back((now_s() - t0) * 1e6);
    }
  });
  return median(times);
}

KernelTimes time_kernels(const knor::kernels::Ops& ops,
                         knor::ConstMatrixView rows,
                         const knor::DenseMatrix& centroids) {
  using knor::cluster_t;
  using knor::kernels::kGemmPanelWidth;
  const index_t n = rows.rows(), d = rows.cols();
  const int k = static_cast<int>(centroids.rows());
  KernelTimes kt;
  std::uint64_t sink = 0;

  knor::kernels::CentroidPack pack;
  pack.pack(centroids);
  std::vector<double> t_nb;
  for (int rep = 0; rep < 3; ++rep)
    t_nb.push_back(timed([&] {
      for (index_t i = 0; i < n; ++i) {
        double sq = 0;
        sink += ops.nearest_blocked(rows.row(i), pack, &sq);
      }
    }));
  kt.nearest_blocked_ns_per_row = median(t_nb) * 1e9 / static_cast<double>(n);

  knor::TiledMatrix tiles;
  tiles.pack(centroids.const_view(), kGemmPanelWidth, d);
  std::vector<double> cnorm(static_cast<std::size_t>(k));
  for (int c = 0; c < k; ++c)
    cnorm[static_cast<std::size_t>(c)] = ops.dot(
        centroids.row(static_cast<index_t>(c)),
        centroids.row(static_cast<index_t>(c)), d);
  constexpr index_t kTile = 64;  // the engine's default tile rows
  std::vector<cluster_t> best(kTile);
  std::vector<double> score(kTile);
  std::vector<double> t_gemm;
  for (int rep = 0; rep < 3; ++rep)
    t_gemm.push_back(timed([&] {
      for (index_t r0 = 0; r0 < n; r0 += kTile) {
        const index_t m = std::min(kTile, n - r0);
        std::fill(best.begin(), best.end(), 0);
        std::fill(score.begin(), score.end(),
                  std::numeric_limits<double>::infinity());
        ops.gemm_argmin(rows.row(r0), m, d, tiles, 0, tiles.row_panels(),
                        cnorm.data(), best.data(), score.data());
        sink += best[0];
      }
    }));
  kt.gemm_argmin_ns_per_row = median(t_gemm) * 1e9 / static_cast<double>(n);

  double acc = 0;
  const index_t pairs = n * 4;
  std::vector<double> t_ds;
  for (int rep = 0; rep < 3; ++rep)
    t_ds.push_back(timed([&] {
      for (index_t i = 0; i < pairs; ++i)
        acc += ops.dist_sq(rows.row(i % n),
                           centroids.row(static_cast<index_t>(i % k)), d);
    }));
  kt.dist_sq_ns = median(t_ds) * 1e9 / static_cast<double>(pairs);
  g_sink = acc + static_cast<double>(sink);
  return kt;
}

}  // namespace pb

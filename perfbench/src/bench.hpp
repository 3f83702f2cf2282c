// Shared pieces of the knor benchmark binary: arguments, the result
// record it prints, and small timing/statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "knor/knor.hpp"

namespace pb {

using knor::index_t;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< data files and the Chrome trace go here
};

/// Everything one invocation reports: metrics by name (with unit), the run
/// manifest, and the output-check tally. Printed as one JSON line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  void manifest(const std::string& key, const std::string& value);
  void manifest(const std::string& key, double value);
  /// Count one checked operation; a non-empty `error` marks it failed and
  /// is printed to stderr.
  void check(const std::string& what, const std::string& error);
  /// Count `attempted` operations at once, `failed` of them failed.
  void tally(const std::string& what, std::uint64_t attempted,
             std::uint64_t failed);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::string to_json() const;

 private:
  struct Metric {
    std::string name, unit;
    double value;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> manifest_;  // raw JSON
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Runs `fn` and returns its wall time in seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

double median(std::vector<double> v);
/// Nearest-rank quantile of an ascending-sorted vector.
double sorted_quantile(const std::vector<double>& sorted, double q);

/// Fills `out` ((end - begin) x d) with rows [begin, end) of a dataset —
/// how the output checks stream data they do not hold in memory.
using RowSource =
    std::function<void(index_t begin, index_t end, knor::MutMatrixView out)>;

RowSource rows_of(knor::ConstMatrixView m);
RowSource rows_of_file(const std::string& path);

// ---- output checks (checks.cpp) ---------------------------------------------

/// Recomputes a fit's result from the data alone: every centroid is the
/// mean of its members, cluster sizes and energy match, assignments are in
/// range and the run stopped at `cap` iterations. Returns "" or the first
/// disagreement.
std::string check_fit(const RowSource& rows, index_t n, index_t d,
                      const knor::Result& r, int k, int cap);

/// Result::counters against the Result::metrics slice of the same run;
/// `ranks` normalises knord's per-rank sums (see perfbench/README.md).
std::string check_counters(const knor::Result& r, int ranks);

/// FNV-1a over the assignment vector.
std::uint64_t assignment_hash(const std::vector<knor::cluster_t>& a);

/// Checks one serving response against a brute-force argmin / sorted
/// top-m computed with plain scalar loops.
std::string check_response(const knor::serve::Response& resp,
                           knor::ConstMatrixView rows,
                           const knor::DenseMatrix& centroids, int m);

// ---- probes and host facts (probes.cpp, fma_probe.cpp) ----------------------

struct HostInfo {
  std::string cpu_model;
  int nproc = 0;
  int numa_nodes = 0;
  std::uint64_t llc_bytes = 0;
};
HostInfo host_info();

/// Peak double-precision GFLOP/s of `threads` threads running independent
/// FMA chains in the widest vector unit the host and compiler support.
double fma_peak_gflops(int threads, std::string* unit_used);

/// STREAM triad a[i] = b[i] + s * c[i] over `threads` threads; GB/s counts
/// the three streams (24 bytes per element), as STREAM does.
double triad_gbps(std::size_t bytes_per_array, int threads);

/// Sequential 1 MB PageFile::read_pages over a whole .kmat file, GB/s.
double pread_gbps(const std::string& path, std::size_t page_size);

/// Median µs of one Communicator::allreduce_sum of `elems` doubles over
/// `ranks` in-process ranks.
double allreduce_us(int ranks, std::size_t elems);

/// Kernel timings on a workload's own rows and centroids.
struct KernelTimes {
  double nearest_blocked_ns_per_row = 0;
  double gemm_argmin_ns_per_row = 0;
  double dist_sq_ns = 0;
};
KernelTimes time_kernels(const knor::kernels::Ops& ops,
                         knor::ConstMatrixView rows,
                         const knor::DenseMatrix& centroids);

// ---- workloads (workloads.cpp) ----------------------------------------------

/// Runs the named workload; false when the name is unknown.
bool run_workload(const Args& args, Report& report);

}  // namespace pb

// Output checks that do not trust the engine: everything here is
// recomputed from the data with plain scalar loops, never through knor's
// kernels, scheduler or accumulators.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>

#include "bench.hpp"

namespace pb {
namespace {

constexpr index_t kChunkRows = 1 << 15;

std::string fmt(const char* what, double got, double want) {
  std::ostringstream os;
  os.precision(17);
  os << what << ": engine " << got << ", recomputed " << want;
  return os.str();
}

double sq_dist(const double* a, const double* b, index_t d) {
  double s = 0;
  for (index_t j = 0; j < d; ++j) {
    const double t = a[j] - b[j];
    s += t * t;
  }
  return s;
}

/// Brute-force nearest centroid / top-m for one row.
struct BruteForce {
  std::vector<double> dist;  ///< k squared distances
  std::vector<int> order;    ///< centroid indices by (dist, index)
};

BruteForce brute_force(const double* row, const knor::DenseMatrix& c) {
  BruteForce bf;
  const auto k = static_cast<int>(c.rows());
  bf.dist.resize(static_cast<std::size_t>(k));
  bf.order.resize(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    bf.dist[static_cast<std::size_t>(i)] =
        sq_dist(row, c.row(static_cast<index_t>(i)), c.cols());
    bf.order[static_cast<std::size_t>(i)] = i;
  }
  std::stable_sort(bf.order.begin(), bf.order.end(), [&](int a, int b) {
    return bf.dist[static_cast<std::size_t>(a)] <
           bf.dist[static_cast<std::size_t>(b)];
  });
  return bf;
}

}  // namespace

RowSource rows_of(knor::ConstMatrixView m) {
  return [m](index_t begin, index_t end, knor::MutMatrixView out) {
    std::memcpy(out.data(), m.row(begin),
                static_cast<std::size_t>(end - begin) * m.cols() *
                    sizeof(double));
  };
}

RowSource rows_of_file(const std::string& path) {
  auto reader = std::make_shared<knor::data::RowReader>(path);
  return [reader](index_t begin, index_t end, knor::MutMatrixView out) {
    reader->read(begin, end, out);
  };
}

std::string check_fit(const RowSource& rows, index_t n, index_t d,
                      const knor::Result& r, int k, int cap) {
  if (r.iters != static_cast<std::size_t>(cap))
    return fmt("iterations vs cap", static_cast<double>(r.iters), cap);
  if (r.assignments.size() != n) return "assignment vector has wrong size";
  if (r.centroids.rows() != static_cast<index_t>(k) || r.centroids.cols() != d)
    return "centroid matrix has wrong shape";
  for (const knor::cluster_t a : r.assignments)
    if (a >= static_cast<knor::cluster_t>(k)) return "assignment out of range";

  // Pass 1: per-cluster sums and counts, plus the data's magnitude (the
  // scale the centroid tolerance is relative to).
  std::vector<double> sums(static_cast<std::size_t>(k) * d, 0.0);
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(k), 0);
  double scale = 0;
  knor::DenseMatrix buf(std::min<index_t>(kChunkRows, n), d);
  for (index_t b = 0; b < n; b += kChunkRows) {
    const index_t e = std::min(n, b + kChunkRows);
    rows(b, e, buf.view().sub_rows(0, e - b));
    for (index_t i = b; i < e; ++i) {
      const double* x = buf.row(i - b);
      const std::size_t c = r.assignments[i];
      ++counts[c];
      double* s = &sums[c * d];
      for (index_t j = 0; j < d; ++j) {
        s[j] += x[j];
        scale = std::max(scale, std::fabs(x[j]));
      }
    }
  }
  // MTI folds membership *changes* into running sums, so its centroids
  // carry a few ulps of drift per iteration relative to a fresh mean.
  const double tol = 1e-9 * (1.0 + scale);
  for (int c = 0; c < k; ++c) {
    const auto cs = static_cast<std::size_t>(c);
    if (r.cluster_sizes.size() == static_cast<std::size_t>(k) &&
        r.cluster_sizes[cs] != counts[cs])
      return fmt("cluster size", static_cast<double>(r.cluster_sizes[cs]),
                 static_cast<double>(counts[cs]));
    if (counts[cs] == 0) continue;  // empty cluster: no mean to compare
    for (index_t j = 0; j < d; ++j) {
      const double mean = sums[cs * d + j] / static_cast<double>(counts[cs]);
      const double got = r.centroids.row(static_cast<index_t>(c))[j];
      if (!(std::fabs(got - mean) <= tol))
        return fmt("centroid is not the mean of its members", got, mean);
    }
  }

  // Pass 2: energy against the reported centroids.
  double energy = 0;
  for (index_t b = 0; b < n; b += kChunkRows) {
    const index_t e = std::min(n, b + kChunkRows);
    rows(b, e, buf.view().sub_rows(0, e - b));
    for (index_t i = b; i < e; ++i)
      energy += sq_dist(buf.row(i - b), r.centroids.row(r.assignments[i]), d);
  }
  if (!(std::fabs(r.energy - energy) <= 1e-9 * (1.0 + energy)))
    return fmt("energy", r.energy, energy);
  return "";
}

std::string check_counters(const knor::Result& r, int ranks) {
  const knor::obs::Snapshot& m = r.metrics;
  if (m.empty()) return "";  // obs compiled out: nothing to cross-check
  const struct {
    const char* name;
    std::uint64_t counter;
  } pairs[] = {
      {"core.dist_computations", r.counters.dist_computations},
      {"core.clause1_skips", r.counters.clause1_skips},
      {"core.clause2_skips", r.counters.clause2_skips},
      {"core.clause3_skips", r.counters.clause3_skips},
      {"sched.tasks_own", r.counters.tasks_own},
      {"sched.tasks_same_node", r.counters.tasks_same_node},
      {"sched.tasks_remote_node", r.counters.tasks_remote_node},
  };
  for (const auto& p : pairs) {
    // A counter the run never bumped is absent from the slice: read it as 0.
    const std::int64_t v = m.value_or(p.name, 0);
    if (v != static_cast<std::int64_t>(p.counter))
      return fmt(p.name, static_cast<double>(v),
                 static_cast<double>(p.counter));
  }
  const std::int64_t iters = m.value_or("core.iterations", -1);
  if (iters != static_cast<std::int64_t>(r.iters) * ranks)
    return fmt("core.iterations (metrics, summed over ranks)",
               static_cast<double>(iters),
               static_cast<double>(r.iters) * ranks);
  return "";
}

std::uint64_t assignment_hash(const std::vector<knor::cluster_t>& a) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const knor::cluster_t v : a)
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  return h;
}

std::string check_response(const knor::serve::Response& resp,
                           knor::ConstMatrixView rows,
                           const knor::DenseMatrix& centroids, int m) {
  if (resp.shed) return "request was shed";
  const index_t n = rows.rows();
  if (resp.assign.size() != n || resp.dist_sq.size() != n)
    return "response has the wrong number of rows";
  if (m > 0 && (resp.m != m || resp.topm.size() != n * static_cast<std::size_t>(m)))
    return "top-m response has the wrong shape";
  // SIMD kernels may round differently from the scalar oracle, so a
  // reported centroid is accepted when its distance ties the true minimum
  // within a relative 1e-9; a wrong answer misses by far more.
  const auto close = [](double a, double b) {
    return std::fabs(a - b) <= 1e-9 * (1.0 + std::fabs(b));
  };
  for (index_t i = 0; i < n; ++i) {
    const BruteForce bf = brute_force(rows.row(i), centroids);
    const double best = bf.dist[static_cast<std::size_t>(bf.order[0])];
    const knor::cluster_t a = resp.assign[i];
    if (a >= centroids.rows()) return "assignment out of range";
    if (!close(bf.dist[a], best))
      return fmt("distance to the reported centroid", bf.dist[a], best);
    if (!close(resp.dist_sq[i], best))
      return fmt("reported nearest distance", resp.dist_sq[i], best);
    for (int j = 0; j < m; ++j) {
      const knor::serve::TopEntry& t =
          resp.topm[i * static_cast<std::size_t>(m) + static_cast<std::size_t>(j)];
      const double want =
          bf.dist[static_cast<std::size_t>(bf.order[static_cast<std::size_t>(j)])];
      if (t.cluster >= centroids.rows() || !close(bf.dist[t.cluster], want) ||
          !close(t.dist_sq, want))
        return fmt("top-m distance", t.dist_sq, want);
      for (int q = 0; q < j; ++q)
        if (resp.topm[i * static_cast<std::size_t>(m) +
                      static_cast<std::size_t>(q)].cluster == t.cluster)
          return "top-m lists a centroid twice";
    }
  }
  return "";
}

}  // namespace pb

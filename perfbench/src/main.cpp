// knor_perfbench — runs one knor benchmark workload and prints its
// result record as a single JSON line on stdout (progress goes to stderr).
//
//   knor_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --out-dir DIR
//
// perfbench/run.py builds this binary, runs it, adds the trace's per-span
// self times and prints the benchmark's JSON result line. Exit codes: 0 with
// every output check passing, 1 when a check failed, 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "common/strict_parse.hpp"

namespace pb {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "knor_perfbench: %s\nusage: knor_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --out-dir DIR\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[5] = {false, false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string val = argv[++i];
    std::uint64_t u = 0;
    double s = 0;
    if (flag == "--workload" && !have[0]) {
      a.workload = val;
      have[0] = true;
    } else if (flag == "--seed" && !have[1]) {
      if (!knor::parse_u64(val, &u)) usage("bad --seed " + val);
      a.seed = u;
      have[1] = true;
    } else if (flag == "--seconds" && !have[2]) {
      if (!knor::parse_double(val, &s) || !(s > 0) || s > 600)
        usage("bad --seconds " + val);
      a.seconds = s;
      have[2] = true;
    } else if (flag == "--trace" && !have[3]) {
      if (val != "0" && val != "1") usage("bad --trace " + val);
      a.trace = val == "1";
      have[3] = true;
    } else if (flag == "--out-dir" && !have[4]) {
      a.out_dir = val;
      have[4] = true;
    } else {
      usage("unknown or repeated flag " + flag);
    }
  }
  for (const bool h : have)
    if (!h) usage("every flag is required");
  return a;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  metrics_.push_back({name, unit, value});
}

bool Report::has(const std::string& name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return true;
  return false;
}

void Report::manifest(const std::string& key, const std::string& value) {
  manifest_.emplace_back(key, json_string(value));
}

void Report::manifest(const std::string& key, double value) {
  manifest_.emplace_back(key, json_number(value));
}

void Report::check(const std::string& what, const std::string& error) {
  ++attempted_;
  if (!error.empty()) {
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", what.c_str(),
                 error.c_str());
  }
}

void Report::tally(const std::string& what, std::uint64_t attempted,
                   std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0)
    std::fprintf(stderr, "CHECK FAILED [%s]: %llu of %llu\n", what.c_str(),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    os << (i ? ", " : "") << json_string(metrics_[i].name)
       << ": {\"value\": " << json_number(metrics_[i].value)
       << ", \"unit\": " << json_string(metrics_[i].unit) << "}";
  os << "}, \"manifest\": {";
  for (std::size_t i = 0; i < manifest_.size(); ++i)
    os << (i ? ", " : "") << json_string(manifest_[i].first) << ": "
       << manifest_[i].second;
  os << "}}";
  return os.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace pb

int main(int argc, char** argv) {
  const pb::Args args = pb::parse_args(argc, argv);
  pb::Report report;
  try {
    std::filesystem::create_directories(args.out_dir);
    if (!pb::run_workload(args, report)) pb::usage("unknown workload " +
                                                   args.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "knor_perfbench: %s\n", e.what());
    report.check("run", e.what());
  }
  std::printf("%s\n", report.to_json().c_str());
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}

// knor_bench — unified driver over every registered paper-reproduction
// suite (bench/harness/). One command reproduces the paper's evaluation:
//
//   knor_bench --scale smoke --out BENCH_results.json --report RESULTS.md
//
// Exit status is nonzero if any selected suite throws or emits no samples
// (the bench-smoke CI gate). `--strip FILE` canonicalizes a results file by
// removing the machine-dependent timing fields, so
//   diff <(knor_bench --strip a.json) <(knor_bench --strip b.json)
// verifies the determinism contract of DESIGN.md §6.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/logger.hpp"
#include "common/strict_parse.hpp"
#include "harness/harness.hpp"
#include "harness/report.hpp"
#include "obs/export.hpp"

namespace {

using namespace knor::bench;

[[noreturn]] void usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr, R"(knor_bench — paper-results reproduction harness

usage:
  knor_bench [--suite NAME[,NAME...]] [--scale smoke|paper] [--factor F]
             [--repeats N] [--warmup N] [--out FILE] [--report FILE]
             [--metrics FILE] [--trace FILE] [--quiet]
  knor_bench --list
  knor_bench --strip FILE

options:
  --suite NAMES   comma-separated suite names (default: all registered)
  --scale TIER    smoke (CI: ~50x smaller data, 1 repeat) or paper
                  (container-feasible reproduction scale, 3 repeats) [paper]
  --factor F      extra dataset scale multiplier (also via KNOR_BENCH_SCALE)
  --repeats N     timing repeats per measurement (median reported)
  --warmup N      discarded warmup runs per measurement
  --out FILE      write BENCH_results.json (schema: DESIGN.md §6)
  --report FILE   write the RESULTS.md markdown report
  --metrics FILE  write the process metric registry as JSON after all
                  suites ran (env KNOR_METRICS; DESIGN.md §10)
  --trace FILE    write a Chrome trace-event JSON of engine phases
                  (env KNOR_TRACE)
  --list          print registered suites and exit
  --strip FILE    print FILE with timing fields removed (determinism diffs;
                  also strips the "timing" half of a --metrics export)
  --quiet         suppress per-suite progress on stderr
)");
  std::exit(error != nullptr ? 2 : 0);
}

int cmd_list() {
  for (const Suite& suite : Registry::instance().suites())
    std::printf("%-22s %s\n", suite.name, suite.title);
  return 0;
}

int cmd_strip(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  Json doc = Json::parse(buf.str(), &error);
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  erase_keys_recursive(doc, timing_keys());
  std::fputs(doc.dump(2).c_str(), stdout);
  return 0;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

// Strict numeric parsing (knor_cli-style rejection): `--repeats abc` must
// exit nonzero with a message, never silently become 0 samples that "pass".
int parse_int(const std::string& flag, const std::string& value) {
  std::int64_t v = 0;
  if (!knor::parse_i64(value, &v) || v < INT_MIN || v > INT_MAX)
    usage((flag + " expects an integer, got '" + value + "'").c_str());
  return static_cast<int>(v);
}

double parse_num(const std::string& flag, const std::string& value) {
  double v = 0.0;
  if (!knor::parse_double(value, &v))
    usage((flag + " expects a number, got '" + value + "'").c_str());
  return v;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : csv) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Strict env validation up front: a typo'd KNOR_LOG/KNOR_LOG_FORMAT
  // exits nonzero here instead of terminating inside a lazy static init.
  try {
    knor::log_init_from_env();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::string suites_csv, out_path, report_path;
  std::string metrics_path, trace_path;
  bool quiet = false;
  Scale scale = Scale::kPaper;
  double factor = 0;
  int repeats = 0, warmup = -1;

  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Same contract as tools/cli_args.hpp: `--suite a --suite b` must not
    // silently run only b.
    if (!seen.insert(arg).second) usage(("repeated flag " + arg).c_str());
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") usage();
    else if (arg == "--list") return cmd_list();
    else if (arg == "--strip") return cmd_strip(next());
    else if (arg == "--suite") suites_csv = next();
    else if (arg == "--scale") {
      const std::string tier = next();
      if (tier == "smoke") scale = Scale::kSmoke;
      else if (tier == "paper") scale = Scale::kPaper;
      else usage(("unknown scale " + tier).c_str());
    } else if (arg == "--factor") {
      factor = parse_num(arg, next());
      if (!(factor > 0)) usage("--factor must be > 0");
    } else if (arg == "--repeats") {
      repeats = parse_int(arg, next());
      if (repeats < 1) usage("--repeats must be >= 1");
    } else if (arg == "--warmup") {
      warmup = parse_int(arg, next());
      if (warmup < 0) usage("--warmup must be >= 0");
    }
    else if (arg == "--out") out_path = next();
    else if (arg == "--report") report_path = next();
    else if (arg == "--metrics") metrics_path = next();
    else if (arg == "--trace") trace_path = next();
    else if (arg == "--quiet") quiet = true;
    else usage(("unknown argument " + arg).c_str());
  }

  // Resolve before any suite runs: a --trace/KNOR_TRACE path enables the
  // tracer (spans that close while it is disabled are dropped).
  const knor::obs::ExportConfig exports =
      knor::obs::export_config(metrics_path, trace_path);

  RunOptions opts;
  try {
    // for_scale validates KNOR_BENCH_SCALE strictly — garbage exits 2 here.
    opts = RunOptions::for_scale(scale);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  if (factor > 0) opts.scale_factor *= factor;
  if (repeats > 0) opts.repeats = repeats;
  if (warmup >= 0) opts.warmup = warmup;
  opts.verbose = !quiet;

  std::vector<Suite> selected;
  if (suites_csv.empty()) {
    selected = Registry::instance().suites();
  } else {
    for (const std::string& name : split_csv(suites_csv)) {
      const Suite* suite = Registry::instance().find(name);
      if (suite == nullptr) usage(("unknown suite " + name).c_str());
      selected.push_back(*suite);
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr, "error: no suites registered\n");
    return 1;
  }

  std::vector<SuiteRun> runs;
  int failures = 0;
  for (const Suite& suite : selected) {
    if (!quiet)
      std::fprintf(stderr, "[%zu/%zu] %s ...\n", runs.size() + 1,
                   selected.size(), suite.name);
    SuiteRun run = run_suite(suite, opts);
    if (!run.ok) {
      ++failures;
      std::fprintf(stderr, "FAILED %s: %s\n", suite.name, run.error.c_str());
    } else if (!run.has_samples()) {
      ++failures;
      std::fprintf(stderr, "FAILED %s: emitted no samples\n", suite.name);
    } else if (!quiet) {
      std::fprintf(stderr, "       %s: %zu rows, %.2fs, fingerprint %s\n",
                   suite.name, run.rows.size(), run.wall_s,
                   run.fingerprint.c_str());
    }
    runs.push_back(std::move(run));
  }

  try {
    knor::obs::write_exports(exports);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (!out_path.empty() &&
      !write_file(out_path, results_json(runs, opts).dump(2)))
    return 1;
  if (!report_path.empty() &&
      !write_file(report_path, render_report(runs, opts)))
    return 1;

  // Console summary.
  std::printf("%-22s %6s %8s %10s  %s\n", "suite", "rows", "wall(s)",
              "status", "fingerprint");
  for (const SuiteRun& run : runs)
    std::printf("%-22s %6zu %8.2f %10s  %s\n", run.suite.name,
                run.rows.size(), run.wall_s,
                !run.ok ? "FAILED"
                        : (run.has_samples() ? "ok" : "NO SAMPLES"),
                run.fingerprint.c_str());
  if (!out_path.empty()) std::printf("wrote %s\n", out_path.c_str());
  if (!report_path.empty()) std::printf("wrote %s\n", report_path.c_str());
  if (failures > 0)
    std::printf("%d of %zu suites FAILED\n", failures, runs.size());
  return failures > 0 ? 1 : 0;
}

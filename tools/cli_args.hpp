// Shared --flag [value] parser for the knor command-line tools, with ONE
// strict-parsing contract: a malformed numeric value calls the tool's fail
// handler (which prints usage and exits nonzero) instead of atoi-style
// silently becoming 0 — the bug class tests/cli_smoke.cmake pins for every
// tool. Flags with values become map entries; bare flags map to "" and are
// read via has(). A flag given twice is rejected, never last-one-wins.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "core/kmeans_types.hpp"

namespace knor::tools {

class Args {
 public:
  /// Called with a message on any parse error; must not return (the tools
  /// pass a usage()-and-exit lambda).
  using FailFn = std::function<void(const std::string&)>;

  Args(int argc, char** argv, int first, FailFn fail)
      : fail_(std::move(fail)) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) fail_("unexpected argument " + key);
      key = key.substr(2);
      // No silent last-flag-wins: `--k 4 --k 8` is ambiguous, so reject it.
      if (values_.count(key) > 0) fail_("repeated flag --" + key);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
        values_[key] = argv[++i];
      else
        values_[key] = "";
    }
  }

  bool has(const std::string& key) const {
    read_.insert(key);
    return values_.count(key) > 0;
  }

  std::string str(const std::string& key, const std::string& dflt = "") const {
    read_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
  }

  long long num(const std::string& key, long long dflt) const {
    read_.insert(key);
    const auto it = values_.find(key);
    if (it == values_.end()) return dflt;
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (it->second.empty() || *end != '\0' || errno == ERANGE)
      fail_("--" + key + " expects an integer, got '" + it->second + "'");
    return v;
  }

  /// num() with a lower bound — the guard every count-like flag needs
  /// before an unsigned cast (a negative value would wrap to 2^64-ish and
  /// either overflow buffer sizing or silently disable the feature).
  long long num_min(const std::string& key, long long dflt,
                    long long min_value) const {
    const long long v = num(key, dflt);
    if (v < min_value)
      fail_("--" + key + " must be >= " + std::to_string(min_value) +
            ", got " + std::to_string(v));
    return v;
  }

  /// Report a semantic error through the tool's fail handler (usage +
  /// nonzero exit).
  void fail(const std::string& msg) const { fail_(msg); }

  /// Reject flags the tool never consulted. Call AFTER every flag of the
  /// selected verb/code path has been read (has()/str()/num()/real() all
  /// count): a flag nobody asked about is a typo — `--rows-per-request`
  /// silently doing nothing while the run "succeeds" with the default is
  /// the same bug class as atoi-style value leniency.
  void reject_unknown() const {
    for (const auto& kv : values_)
      if (read_.count(kv.first) == 0) fail_("unknown flag --" + kv.first);
  }

  double real(const std::string& key, double dflt) const {
    read_.insert(key);
    const auto it = values_.find(key);
    if (it == values_.end()) return dflt;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (it->second.empty() || *end != '\0' || errno == ERANGE)
      fail_("--" + key + " expects a number, got '" + it->second + "'");
    return v;
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
  FailFn fail_;
};

/// The engine-selection flags every tool shares — `--k --threads --seed
/// --numa-nodes --task-size --numa-bind --sched --simd --init` — parsed in
/// ONE place so knor_cli and knor_stream cannot drift (the README promises
/// they behave identically). Tool-specific knobs (iters, tolerance, prune,
/// NUMA-obliviousness) layer on top at the call site.
inline Options engine_options_from(const Args& args) {
  Options opts;
  opts.k = static_cast<int>(args.num_min("k", 8, 1));
  opts.threads = static_cast<int>(args.num_min("threads", 0, 0));
  opts.seed = static_cast<std::uint64_t>(args.num("seed", 42));
  opts.numa_nodes = static_cast<int>(args.num_min("numa-nodes", 0, 0));
  opts.task_size = static_cast<index_t>(args.num_min("task-size", 0, 0));
  const std::string bind = args.str("numa-bind", "on");
  if (bind == "on")
    opts.numa_bind = true;
  else if (bind == "off")
    opts.numa_bind = false;
  else
    args.fail("--numa-bind must be on or off, got " + bind);
  const std::string sched_name = args.str("sched", "numa");
  if (sched_name == "numa")
    opts.sched = sched::SchedPolicy::kNumaAware;
  else if (sched_name == "fifo")
    opts.sched = sched::SchedPolicy::kFifo;
  else if (sched_name == "static")
    opts.sched = sched::SchedPolicy::kStatic;
  else
    args.fail("unknown --sched policy " + sched_name);
  // Same parser + rejection as the KNOR_SIMD env path (core/kernels/simd):
  // the thrown message reaches the tool's catch and exits nonzero.
  opts.simd = kernels::parse_isa_or_throw(args.str("simd", "auto"), "--simd");
  const std::string init = args.str("init", "forgy");
  if (init == "forgy")
    opts.init = Init::kForgy;
  else if (init == "random")
    opts.init = Init::kRandom;
  else if (init == "kmeans++")
    opts.init = Init::kKmeansPP;
  else
    args.fail("unknown init " + init);
  return opts;
}

}  // namespace knor::tools

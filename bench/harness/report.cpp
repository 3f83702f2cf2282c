#include "harness/report.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

namespace knor::bench {

std::string pretty_number(double v) {
  if (std::isnan(v) || std::isinf(v)) return "-";
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 1e15)
    return std::to_string(static_cast<long long>(v));
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

namespace {

// The hand-written preamble RESULTS.md always carries: the scale caveat and
// the substitution-note links a reader needs before trusting any number.
const char* kPreamble =
    "This file is **auto-generated** by `knor_bench` (do not edit by hand; "
    "regenerate with the command in the header above). It reproduces the "
    "paper's evaluation — Tables 1-3, Figures 4-13, plus the paper's "
    "parameter-choice ablations — at container scale.\n"
    "\n"
    "**Read this before trusting any number below:**\n"
    "\n"
    "- **Scale.** The paper clusters billions of points on a 48-core NUMA "
    "server and a 32-node cluster. This run uses generated proxy datasets "
    "thousands of times smaller (the `scale_factor` in each section's "
    "configuration). *Shapes and ratios* are the reproduction target — "
    "which curve wins, how gaps grow with k — never absolute times. "
    "The substitution ledger in [DESIGN.md §1](DESIGN.md#1-substitution-notes) "
    "records every proxy: simulated NUMA topology (§1.1) with a modeled "
    "remote-access penalty (§1.2), generated stand-ins for the paper's "
    "datasets (§1.3), the SAFS-lite I/O stack (§1.4), behavioural framework "
    "stand-ins (§1.5), the makespan proxy that replaces wall time on an "
    "oversubscribed container (§1.6), and ranks-as-threads with an "
    "interconnect cost model (§1.7).\n"
    "- **Timing columns are machine-dependent.** Every timing cell shows "
    "the median over the run's repeats (min-max in parentheses when "
    "repeats > 1). All other columns — counters, bytes, iteration counts — "
    "are deterministic: two runs at the same scale must produce them "
    "bit-identically (`knor_bench --strip` + diff verifies this; CI does).\n"
    "- **Smoke scale** (`--scale smoke`) exists so CI can execute every "
    "suite in seconds; at that size some paper trends compress (caches fit "
    "everything, iteration counts drop). Use `--scale paper` for numbers "
    "worth reading closely.\n";

std::string anchor_of(const std::string& title) {
  // GitHub-style anchor: lowercase, alnum kept, spaces -> dashes.
  std::string anchor;
  for (const char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c)))
      anchor += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    else if (c == ' ' || c == '-')
      anchor += '-';
  }
  return anchor;
}

std::string timing_cell(const TimingAgg& agg) {
  // A non-finite median (failed/absent measurement, serialized as JSON
  // null) renders as a bare "-" — no fabricated min-max range around it.
  if (!std::isfinite(agg.median)) return "-";
  std::string cell = pretty_number(agg.median);
  if (agg.repeats > 1)
    cell += " (" + pretty_number(agg.min) + "-" + pretty_number(agg.max) + ")";
  return cell;
}

/// Ordered union of keys over all rows, first-appearance order.
template <class Getter>
std::vector<std::string> key_union(const std::vector<Row>& rows, Getter get) {
  std::vector<std::string> keys;
  for (const Row& row : rows)
    for (const auto& [key, value] : get(row))
      if (std::find(keys.begin(), keys.end(), key) == keys.end())
        keys.push_back(key);
  return keys;
}

struct Table {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> cells;
};

Table tabulate(const std::vector<Row>& rows) {
  const auto label_keys =
      key_union(rows, [](const Row& r) -> const auto& { return r.labels; });
  const auto stat_keys =
      key_union(rows, [](const Row& r) -> const auto& { return r.stats; });
  // A name some rows report as a stat and others as a timing (fig5's
  // tasks_* counters) is ONE column: it renders among the stats, and a row
  // that timed it fills the cell with its timing.
  auto timing_keys =
      key_union(rows, [](const Row& r) -> const auto& { return r.timings; });
  timing_keys.erase(
      std::remove_if(timing_keys.begin(), timing_keys.end(),
                     [&](const std::string& key) {
                       return std::find(stat_keys.begin(), stat_keys.end(),
                                        key) != stat_keys.end();
                     }),
      timing_keys.end());
  const auto timing_of = [](const Row& row, const std::string& key,
                            std::string& cell) {
    for (const auto& [k, v] : row.timings)
      if (k == key) {
        cell = timing_cell(v);
        return;
      }
  };
  Table t;
  t.header = label_keys;
  t.header.insert(t.header.end(), stat_keys.begin(), stat_keys.end());
  t.header.insert(t.header.end(), timing_keys.begin(), timing_keys.end());
  for (const Row& row : rows) {
    std::vector<std::string> line;
    for (const auto& key : label_keys) {
      std::string cell;
      for (const auto& [k, v] : row.labels)
        if (k == key) { cell = v; break; }
      line.push_back(cell);
    }
    for (const auto& key : stat_keys) {
      std::string cell;
      for (const auto& [k, v] : row.stats)
        if (k == key) { cell = pretty_number(v); break; }
      if (cell.empty()) timing_of(row, key, cell);
      line.push_back(cell);
    }
    for (const auto& key : timing_keys) {
      std::string cell;
      timing_of(row, key, cell);
      line.push_back(cell);
    }
    t.cells.push_back(std::move(line));
  }
  return t;
}

/// Effective chart metric + per-row values. Returns false when nothing is
/// chartable (no metric, fewer than 2 rows, or no positive value).
bool chart_values(const SuiteRun& run, std::string& metric,
                  std::vector<std::pair<std::string, double>>& out) {
  metric = run.chart_metric;
  if (metric.empty()) {
    for (const Row& row : run.rows) {
      if (!row.timings.empty()) { metric = row.timings.front().first; break; }
      if (!row.stats.empty()) { metric = row.stats.front().first; break; }
    }
  }
  if (metric.empty()) return false;
  for (const Row& row : run.rows) {
    double value = NAN;
    for (const auto& [k, agg] : row.timings)
      if (k == metric) { value = agg.median; break; }
    if (std::isnan(value))
      for (const auto& [k, v] : row.stats)
        if (k == metric) { value = v; break; }
    if (!std::isfinite(value)) continue;  // no bar for a failed measurement
    std::string label;
    for (const auto& [k, v] : row.labels) {
      if (v.empty()) continue;  // blank label values would leave "1/" stubs
      if (!label.empty()) label += '/';
      label += v;
    }
    out.emplace_back(label.empty() ? "(all)" : label, value);
  }
  if (out.size() < 2) return false;
  double max = 0;
  for (const auto& [label, v] : out) max = std::max(max, v);
  return max > 0;
}

void append_chart(const SuiteRun& run, std::string& out) {
  std::string metric;
  std::vector<std::pair<std::string, double>> values;
  if (!chart_values(run, metric, values)) return;
  constexpr std::size_t kMaxBars = 28;
  const std::size_t shown = std::min(values.size(), kMaxBars);
  double max_value = 0;
  std::size_t label_width = 0;
  for (std::size_t i = 0; i < shown; ++i) {
    max_value = std::max(max_value, values[i].second);
    label_width = std::max(label_width, values[i].first.size());
  }
  out += "```text\n" + metric + "\n";
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& [label, value] = values[i];
    const int bar = value <= 0 ? 0
                               : std::max(1, static_cast<int>(
                                                  std::lround(40 * value /
                                                              max_value)));
    out += label;
    out.append(label_width - label.size() + 2, ' ');
    out.append(static_cast<std::size_t>(bar), '#');
    out += " " + pretty_number(value) + "\n";
  }
  if (values.size() > shown)
    out += "(" + std::to_string(values.size() - shown) + " more rows in the table above)\n";
  out += "```\n\n";
}

void append_section(const SuiteRun& run, std::string& out) {
  out += "## " + std::string(run.suite.title) + "\n\n";
  out += "*Suite `" + std::string(run.suite.name) + "` — reproduces " +
         run.suite.paper_ref + ".*\n\n";
  if (!run.ok) {
    out += "**FAILED:** `" + run.error + "`\n\n";
    return;
  }
  out += "> **Paper-expected trend:** " + std::string(run.suite.expected) +
         "\n\n";
  out += "<details><summary>Configuration (fingerprint <code>" +
         run.fingerprint + "</code>)</summary>\n\n";
  for (const auto& [key, value] : run.config)
    out += "- `" + key + "` = " + value + "\n";
  out += "\n</details>\n\n";
  if (run.rows.empty()) {
    out += "*(no rows emitted)*\n\n";
    return;
  }
  const Table t = tabulate(run.rows);
  for (const auto& h : t.header) out += "| " + h + " ";
  out += "|\n";
  for (std::size_t i = 0; i < t.header.size(); ++i) out += "|---";
  out += "|\n";
  for (const auto& line : t.cells) {
    for (const auto& cell : line) out += "| " + (cell.empty() ? "-" : cell) + " ";
    out += "|\n";
  }
  out += "\n";
  append_chart(run, out);
  for (const std::string& note : run.notes) out += "- " + note + "\n";
  if (!run.notes.empty()) out += "\n";
}

}  // namespace

std::string render_report(const std::vector<SuiteRun>& runs,
                          const RunOptions& opts) {
  std::string out = "# RESULTS — paper-reproduction benchmark report\n\n";
  char header[256];
  std::snprintf(header, sizeof header,
                "Generated by `knor_bench --scale %s` (scale_factor %s, "
                "repeats %d, warmup %d); regenerate with\n"
                "`build/tools/knor_bench --scale %s --out BENCH_results.json "
                "--report RESULTS.md`.\n\n",
                to_string(opts.scale), format_double(opts.scale_factor).c_str(),
                opts.repeats, opts.warmup, to_string(opts.scale));
  out += header;
  out += kPreamble;
  out += "\n## Contents\n\n";
  for (const SuiteRun& run : runs)
    out += "- [" + std::string(run.suite.title) + "](#" +
           anchor_of(run.suite.title) + ")" + (run.ok ? "" : " **(FAILED)**") +
           "\n";
  out += "\n";
  for (const SuiteRun& run : runs) append_section(run, out);
  return out;
}

std::string render_text(const SuiteRun& run) {
  std::string out;
  out += "\n================================================================\n";
  out += std::string(run.suite.title) + "\n  (reproduces " +
         run.suite.paper_ref + "; see RESULTS.md and DESIGN.md §1)\n";
  out += "================================================================\n";
  for (const auto& [key, value] : run.config)
    out += key + " = " + value + "\n";
  out += "config fingerprint " + run.fingerprint + "\n\n";
  if (!run.ok) {
    out += "FAILED: " + run.error + "\n";
    return out;
  }
  const Table t = tabulate(run.rows);
  std::vector<std::size_t> widths(t.header.size());
  for (std::size_t c = 0; c < t.header.size(); ++c) {
    widths[c] = t.header[c].size();
    for (const auto& line : t.cells)
      widths[c] = std::max(widths[c], line[c].size());
  }
  const auto emit_line = [&](const std::vector<std::string>& line) {
    for (std::size_t c = 0; c < line.size(); ++c) {
      out += line[c];
      if (c + 1 < line.size())
        out.append(widths[c] - line[c].size() + 2, ' ');
    }
    out += "\n";
  };
  emit_line(t.header);
  for (const auto& line : t.cells) emit_line(line);
  out += "\n";
  for (const std::string& note : run.notes) out += "note: " + note + "\n";
  out += "Expected (paper): " + std::string(run.suite.expected) + "\n";
  return out;
}

}  // namespace knor::bench

// Bench-harness unit tests: JSON emitter escaping + round-trip, timing
// aggregation math on synthetic samples, and the determinism contract —
// bit-identical fingerprints and timing-stripped JSON across two runs of
// the same suite (DESIGN.md §6).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "harness/harness.hpp"
#include "harness/report.hpp"
#include "harness/json.hpp"

namespace {

using namespace knor::bench;

TEST(Json, EscapingRoundTrip) {
  const std::string nasty =
      "quote\" backslash\\ newline\n tab\t cr\r ctrl\x01 bell\x07 done";
  Json doc = Json::object();
  doc.set("k\"ey", nasty);
  const std::string text = doc.dump(2);
  // The control characters must be escaped, never raw, in the output.
  EXPECT_EQ(text.find('\x01'), std::string::npos);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
  EXPECT_NE(text.find("\\n"), std::string::npos);
  std::string error;
  const Json back = Json::parse(text, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_NE(back.find("k\"ey"), nullptr);
  EXPECT_EQ(back.find("k\"ey")->str(), nasty);
}

TEST(Json, NumberRoundTrip) {
  for (const double v : {0.0, 1.0, -1.0, 0.1, 1e-9, 3.141592653589793,
                         1234567890123.0, -2.5e17, 6.02e23}) {
    const std::string s = format_double(v);
    // strtod as an independent round-trip oracle. knor_lint: allow KL001
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  EXPECT_EQ(format_double(42), "42");          // integers print bare
  EXPECT_EQ(format_double(-7), "-7");
}

// JSON has no NaN/Inf: they must serialize as null (never a fabricated
// "0"), parse back as null, and read as NaN through number().
TEST(Json, NanAndInfSerializeAsNull) {
  EXPECT_EQ(format_double(NAN), "null");
  EXPECT_EQ(format_double(INFINITY), "null");
  EXPECT_EQ(format_double(-INFINITY), "null");

  Json doc = Json::object();
  doc.set("bad", Json(static_cast<double>(NAN)));
  doc.set("good", 1.5);
  const std::string text = doc.dump(0);
  EXPECT_NE(text.find("\"bad\": null"), std::string::npos) << text;
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;

  std::string error;
  const Json back = Json::parse(text, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_NE(back.find("bad"), nullptr);
  EXPECT_TRUE(back.find("bad")->is_null());
  EXPECT_TRUE(std::isnan(back.find("bad")->number()));
  EXPECT_DOUBLE_EQ(back.find("good")->number(), 1.5);
  // The round trip is stable: re-dumping the parsed document emits null
  // again, not 0.
  EXPECT_NE(back.dump(0).find("\"bad\": null"), std::string::npos);
}

// A NaN timing (failed measurement) must render as "-" in the report, not
// as a plausible number.
TEST(Report, NanTimingRendersAsDash) {
  const Suite nan_suite = {"missing_timing", "Missing-timing suite",
                           "test fixture", "trend", 4, [](Context& ctx) {
                             ctx.row()
                                 .label("variant", "broken")
                                 .timing("wall_ms",
                                         TimingAgg::single(
                                             static_cast<double>(NAN)));
                             ctx.row().label("variant", "fine").timing(
                                 "wall_ms", 2.0);
                           }};
  const RunOptions opts = RunOptions::for_scale(Scale::kSmoke);
  const SuiteRun run = run_suite(nan_suite, opts);
  ASSERT_TRUE(run.ok);
  const std::string md = render_report({run}, opts);
  EXPECT_NE(md.find("| broken | - |"), std::string::npos) << md;
  EXPECT_EQ(md.find("nan"), std::string::npos);
  // ...and the JSON side of the same run serializes the NaN as null.
  const std::string js = results_json({run}, opts).dump(0);
  EXPECT_NE(js.find("null"), std::string::npos);
  EXPECT_EQ(js.find("nan"), std::string::npos);
}

// A name some rows emit as a stat and others as a timing (fig5's tasks_*
// counters) renders as ONE column, not one per kind.
TEST(Report, StatAndTimingOfOneNameShareAColumn) {
  const Suite mixed = {"mixed_kinds", "Mixed-kind suite", "test fixture",
                       "trend", 4, [](Context& ctx) {
                         ctx.row().label("config", "timed").timing("tasks",
                                                                   3.0);
                         ctx.row().label("config", "counted").stat("tasks",
                                                                   5.0);
                       }};
  const RunOptions opts = RunOptions::for_scale(Scale::kSmoke);
  const SuiteRun run = run_suite(mixed, opts);
  ASSERT_TRUE(run.ok);
  const std::string md = render_report({run}, opts);
  EXPECT_NE(md.find("| config | tasks |\n"), std::string::npos) << md;
  EXPECT_NE(md.find("| timed | 3 |"), std::string::npos) << md;
  EXPECT_NE(md.find("| counted | 5 |"), std::string::npos) << md;
}

TEST(Json, DocumentRoundTrip) {
  Json doc = Json::object();
  doc.set("null", Json());
  doc.set("flag", true);
  doc.set("n", 3);
  doc.set("x", 0.25);
  Json arr = Json::array();
  arr.push(1).push("two").push(Json::object().set("deep", false));
  doc.set("arr", std::move(arr));
  doc.set("empty_obj", Json::object());
  doc.set("empty_arr", Json::array());
  for (const int indent : {0, 2, 4}) {
    std::string error;
    const Json back = Json::parse(doc.dump(indent), &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(back, doc) << "indent=" << indent;
  }
}

TEST(Json, ParseErrors) {
  std::string error;
  Json::parse("{\"a\": }", &error);
  EXPECT_FALSE(error.empty());
  Json::parse("[1, 2", &error);
  EXPECT_FALSE(error.empty());
  Json::parse("{} trailing", &error);
  EXPECT_FALSE(error.empty());
}

TEST(Json, EraseKeysRecursive) {
  Json doc = Json::object();
  doc.set("keep", 1);
  doc.set("timings", Json::object().set("x", 2));
  Json row = Json::object();
  row.set("stats", Json::object().set("a", 3));
  row.set("timings", Json::object().set("b", 4));
  row.set("wall_s", 0.5);
  doc.set("rows", Json::array().push(std::move(row)));
  erase_keys_recursive(doc, {"timings", "wall_s"});
  const std::string text = doc.dump(0);
  EXPECT_EQ(text.find("timings"), std::string::npos);
  EXPECT_EQ(text.find("wall_s"), std::string::npos);
  EXPECT_NE(text.find("keep"), std::string::npos);
  EXPECT_NE(text.find("stats"), std::string::npos);
}

TEST(TimingAgg, MedianOfOddSamples) {
  const TimingAgg agg = TimingAgg::from_samples({5.0, 1.0, 3.0});
  EXPECT_DOUBLE_EQ(agg.median, 3.0);
  EXPECT_DOUBLE_EQ(agg.min, 1.0);
  EXPECT_DOUBLE_EQ(agg.max, 5.0);
  EXPECT_EQ(agg.repeats, 3);
}

TEST(TimingAgg, MedianOfEvenSamples) {
  const TimingAgg agg = TimingAgg::from_samples({4.0, 1.0, 2.0, 8.0});
  EXPECT_DOUBLE_EQ(agg.median, 3.0);  // (2 + 4) / 2
  EXPECT_DOUBLE_EQ(agg.min, 1.0);
  EXPECT_DOUBLE_EQ(agg.max, 8.0);
}

TEST(TimingAgg, SingleAndEmptyAndSpread) {
  const TimingAgg one = TimingAgg::single(2.5);
  EXPECT_DOUBLE_EQ(one.median, 2.5);
  EXPECT_EQ(one.repeats, 1);
  EXPECT_DOUBLE_EQ(one.spread_pct(), 0.0);

  const TimingAgg none = TimingAgg::from_samples({});
  EXPECT_EQ(none.repeats, 0);
  EXPECT_DOUBLE_EQ(none.median, 0.0);

  const TimingAgg agg = TimingAgg::from_samples({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(agg.spread_pct(), 100.0);  // (3-1)/2
  EXPECT_DOUBLE_EQ(agg.scaled(1e3).median, 2000.0);
}

// A deterministic suite: config + stats are pure functions of the scale,
// timings intentionally vary call to call.
int g_calls = 0;
void fake_suite(Context& ctx) {
  ++g_calls;
  ctx.config("dataset", "synthetic n=" + std::to_string(ctx.scaled(100000)));
  ctx.config("k", 10);
  ctx.row()
      .label("variant", "a")
      .stat("bytes", 4096)
      .timing("wall_ms", 1.0 + 0.1 * g_calls);  // deliberately unstable
  ctx.row().label("variant", "b").stat("bytes", 8192);
}

const Suite kFakeSuite = {"fake_suite", "Fake suite", "test fixture",
                          "expected trend text", 1, fake_suite};

TEST(Harness, FingerprintIdenticalAcrossRuns) {
  const RunOptions opts = RunOptions::for_scale(Scale::kSmoke);
  const SuiteRun a = run_suite(kFakeSuite, opts);
  const SuiteRun b = run_suite(kFakeSuite, opts);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.fingerprint.size(), 18u);  // "0x" + 16 hex digits
}

TEST(Harness, FingerprintSensitiveToConfig) {
  const std::vector<std::pair<std::string, std::string>> c1 = {{"k", "10"}};
  const std::vector<std::pair<std::string, std::string>> c2 = {{"k", "20"}};
  EXPECT_NE(config_fingerprint("s", c1), config_fingerprint("s", c2));
  // Field separation: ("ab","c") must differ from ("a","bc").
  EXPECT_NE(config_fingerprint("s", {{"ab", "c"}}),
            config_fingerprint("s", {{"a", "bc"}}));
  EXPECT_NE(config_fingerprint("s1", c1), config_fingerprint("s2", c1));
}

TEST(Harness, JsonIdenticalModuloTimings) {
  const RunOptions opts = RunOptions::for_scale(Scale::kSmoke);
  const SuiteRun a = run_suite(kFakeSuite, opts);
  const SuiteRun b = run_suite(kFakeSuite, opts);
  Json ja = results_json({a}, opts);
  Json jb = results_json({b}, opts);
  // The timing fields genuinely differ (the fake suite varies them)...
  EXPECT_NE(ja, jb);
  // ...and stripping exactly the documented timing keys restores equality.
  erase_keys_recursive(ja, timing_keys());
  erase_keys_recursive(jb, timing_keys());
  EXPECT_EQ(ja.dump(2), jb.dump(2));
}

TEST(Harness, SuiteErrorsAreCaptured) {
  const Suite throwing = {"throwing", "t", "t", "t", 2,
                          [](Context&) { throw std::runtime_error("boom"); }};
  const SuiteRun run = run_suite(throwing, RunOptions::for_scale(Scale::kSmoke));
  EXPECT_FALSE(run.ok);
  EXPECT_EQ(run.error, "boom");
  EXPECT_FALSE(run.has_samples());
}

TEST(Harness, HasSamplesRequiresAStatOrTiming) {
  const Suite empty_rows = {"empty_rows", "t", "t", "t", 3, [](Context& ctx) {
                              ctx.row().label("only", "labels");
                            }};
  const SuiteRun run =
      run_suite(empty_rows, RunOptions::for_scale(Scale::kSmoke));
  EXPECT_TRUE(run.ok);
  EXPECT_FALSE(run.has_samples());
}

TEST(Harness, ScaledFloorsAt1000Rows) {
  Context ctx(RunOptions::for_scale(Scale::kSmoke));
  EXPECT_EQ(ctx.scaled(10), 1000u);
  Context paper(RunOptions::for_scale(Scale::kPaper));
  EXPECT_GE(paper.scaled(100000), 1000u);
}

TEST(Report, RendersTablesAndTrend) {
  const RunOptions opts = RunOptions::for_scale(Scale::kSmoke);
  const SuiteRun run = run_suite(kFakeSuite, opts);
  const std::string md = render_report({run}, opts);
  EXPECT_NE(md.find("Fake suite"), std::string::npos);
  EXPECT_NE(md.find("expected trend text"), std::string::npos);
  EXPECT_NE(md.find("| variant "), std::string::npos);
  EXPECT_NE(md.find(run.fingerprint), std::string::npos);
  EXPECT_NE(md.find("DESIGN.md"), std::string::npos);  // the preamble links
  const std::string text = render_text(run);
  EXPECT_NE(text.find("variant"), std::string::npos);
  EXPECT_NE(text.find("Expected (paper):"), std::string::npos);
}

}  // namespace

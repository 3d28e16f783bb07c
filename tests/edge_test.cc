// Edge-case coverage across modules: degenerate inputs, formatting
// round-trips, boundary behavior that the per-module suites do not
// exercise.
#include <cmath>
#include <string>

#include "common/units.h"
#include "core/analysis/workload_report.h"
#include "core/synth/synthesizer.h"
#include "core/synth/workload_model.h"
#include "gtest/gtest.h"
#include "stats/empirical_cdf.h"
#include "stats/histogram.h"
#include "trace/trace.h"
#include "trace/trace_io.h"

namespace swim {
namespace {

trace::JobRecord TinyJob(uint64_t id, double submit) {
  trace::JobRecord job;
  job.job_id = id;
  job.submit_time = submit;
  job.duration = 1;
  job.input_bytes = 1;
  job.map_tasks = 1;
  job.map_task_seconds = 1;
  return job;
}

// --- EmpiricalCdf degenerate shapes -----------------------------------------

TEST(EdgeCdfTest, SingleValueCdf) {
  stats::EmpiricalCdf cdf({5.0});
  EXPECT_DOUBLE_EQ(cdf.median(), 5.0);
  EXPECT_DOUBLE_EQ(cdf.Fraction(4.9), 0.0);
  EXPECT_DOUBLE_EQ(cdf.Fraction(5.0), 1.0);
  auto curve = cdf.LogCurve(16);
  ASSERT_FALSE(curve.x.empty());
  EXPECT_DOUBLE_EQ(curve.fraction.back(), 1.0);
}

TEST(EdgeCdfTest, AllZerosCdf) {
  stats::EmpiricalCdf cdf({0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(cdf.median(), 0.0);
  EXPECT_DOUBLE_EQ(cdf.Fraction(0.0), 1.0);
  // LogCurve clamps to its floor and still terminates.
  auto curve = cdf.LogCurve(8);
  EXPECT_FALSE(curve.x.empty());
}

TEST(EdgeCdfTest, EmptySample) {
  stats::EmpiricalCdf cdf;
  Pcg32 rng(1);
  EXPECT_DOUBLE_EQ(cdf.Sample(rng), 0.0);
  EXPECT_TRUE(cdf.LogCurve().x.empty());
}

TEST(EdgeCdfTest, LogCurveSinglePointRequest) {
  // points == 1 used to divide by (points - 1); must return one finite
  // point at the max, not NaN.
  stats::EmpiricalCdf cdf({1.0, 10.0, 100.0});
  auto curve = cdf.LogCurve(1);
  ASSERT_EQ(curve.x.size(), 1u);
  EXPECT_TRUE(std::isfinite(curve.x[0]));
  EXPECT_DOUBLE_EQ(curve.x[0], 100.0);
  EXPECT_DOUBLE_EQ(curve.fraction[0], 1.0);
}

TEST(EdgeCdfTest, LogCurveNonPositiveSamplesStayFinite) {
  // With a non-positive floor, samples <= 0 used to feed std::log10
  // directly -> NaN grid. The curve must start at the smallest positive
  // sample instead.
  stats::EmpiricalCdf cdf({0.0, 0.0, 2.0, 20.0});
  auto curve = cdf.LogCurve(8, /*floor=*/0.0);
  ASSERT_FALSE(curve.x.empty());
  for (size_t i = 0; i < curve.x.size(); ++i) {
    EXPECT_TRUE(std::isfinite(curve.x[i])) << i;
    EXPECT_TRUE(std::isfinite(curve.fraction[i])) << i;
  }
  EXPECT_GE(curve.x.front(), 2.0 * 0.99);
  EXPECT_DOUBLE_EQ(curve.fraction.back(), 1.0);

  // Entirely non-positive: degenerate single point, still finite.
  stats::EmpiricalCdf zeros({-1.0, 0.0});
  auto flat = zeros.LogCurve(4, /*floor=*/-5.0);
  ASSERT_FALSE(flat.x.empty());
  for (double x : flat.x) EXPECT_TRUE(std::isfinite(x));
  EXPECT_DOUBLE_EQ(flat.fraction.back(), 1.0);
}

// --- Histogram rendering ------------------------------------------------------

TEST(EdgeHistogramTest, ToStringListsNonEmptyBins) {
  stats::LogHistogram h(1.0, 1e4, 1);
  h.Add(50);
  h.Add(5000);
  std::string text = h.ToString();
  EXPECT_NE(text.find("1"), std::string::npos);
  // Two populated bins -> two lines.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

// --- Units boundaries ------------------------------------------------------------

TEST(EdgeUnitsTest, ExactUnitBoundaries) {
  EXPECT_EQ(FormatBytes(kKB), "1 KB");
  EXPECT_EQ(FormatBytes(kKB - 1), "999 B");
  EXPECT_EQ(FormatDuration(kMinute), "1 min");
  EXPECT_EQ(FormatDuration(kHour), "1 hrs");
  EXPECT_EQ(FormatDuration(0), "0 sec");
}

// --- Trace with out-of-order bulk set ----------------------------------------------

TEST(EdgeTraceTest, SetJobsSortsBulk) {
  trace::Trace t;
  std::vector<trace::JobRecord> jobs;
  for (int i = 9; i >= 0; --i) jobs.push_back(TinyJob(i + 1, i * 10.0));
  t.SetJobs(std::move(jobs));
  EXPECT_DOUBLE_EQ(t.StartTime(), 0.0);
  EXPECT_EQ(t.jobs().front().job_id, 1u);   // submitted at t=0
  EXPECT_EQ(t.jobs().back().job_id, 10u);   // submitted at t=90

  // Ties keep their input order whether SetJobs sorts (unsorted input) or
  // skips the sort (input already in submit order).
  std::vector<trace::JobRecord> tied = {TinyJob(1, 5.0), TinyJob(2, 0.0),
                                        TinyJob(3, 5.0), TinyJob(4, 0.0),
                                        TinyJob(5, 5.0)};
  std::vector<trace::JobRecord> sorted = {TinyJob(2, 0.0), TinyJob(4, 0.0),
                                          TinyJob(1, 5.0), TinyJob(3, 5.0),
                                          TinyJob(5, 5.0)};
  for (auto* input : {&tied, &sorted}) {
    trace::Trace ties;
    ties.SetJobs(*input);
    std::vector<uint64_t> ids;
    for (const auto& job : ties.jobs()) ids.push_back(job.job_id);
    EXPECT_EQ(ids, (std::vector<uint64_t>{2, 4, 1, 3, 5}));
  }
}

TEST(EdgeTraceTest, CsvHandlesCrlfAndBlankLines) {
  trace::Trace t;
  t.AddJob(TinyJob(1, 0));
  std::string csv = trace::TraceToCsv(t);
  // Re-join with CRLF and stray blank lines.
  std::string crlf;
  for (char c : csv) {
    if (c == '\n') {
      crlf += "\r\n\r\n";
    } else {
      crlf.push_back(c);
    }
  }
  auto parsed = trace::TraceFromCsv(crlf);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->size(), 1u);
}

// --- Report formatting without optional columns -------------------------------------

TEST(EdgeReportTest, FormatsTraceWithoutNamesOrPaths) {
  trace::Trace t;
  for (int i = 0; i < 50; ++i) t.AddJob(TinyJob(i + 1, i * 60.0));
  auto report = core::AnalyzeWorkload(t);
  ASSERT_TRUE(report.ok());
  std::string text = core::FormatReport(*report);
  EXPECT_NE(text.find("no file paths"), std::string::npos);
  EXPECT_NE(text.find("no job names"), std::string::npos);
}

// --- Synthesis at extreme scales ------------------------------------------------------

TEST(EdgeSynthTest, SingleExemplarModelStillSynthesizes) {
  trace::Trace t;
  t.AddJob(TinyJob(1, 100));
  auto model = core::BuildModel(t);
  ASSERT_TRUE(model.ok());
  core::SynthesisOptions options;
  options.job_count = 50;
  auto synth = core::SynthesizeTrace(*model, options);
  ASSERT_TRUE(synth.ok());
  EXPECT_EQ(synth->size(), 50u);
  EXPECT_TRUE(synth->Validate().ok());
}

TEST(EdgeSynthTest, SpanStretchExpandsArrivals) {
  trace::Trace t;
  for (int i = 0; i < 200; ++i) t.AddJob(TinyJob(i + 1, i * 30.0));
  auto model = core::BuildModel(t);
  ASSERT_TRUE(model.ok());
  core::SynthesisOptions options;
  options.job_count = 200;
  options.span_seconds = model->span_seconds * 10.0;
  auto synth = core::SynthesizeTrace(*model, options);
  ASSERT_TRUE(synth.ok());
  EXPECT_GT(synth->Span(), model->span_seconds * 2.0);
}

TEST(EdgeSynthTest, ParametricHandlesAllZeroDimension) {
  // A model whose jobs all have zero shuffle must not emit NaNs.
  trace::Trace t;
  for (int i = 0; i < 100; ++i) t.AddJob(TinyJob(i + 1, i));
  auto model = core::BuildModel(t);
  ASSERT_TRUE(model.ok());
  core::SynthesisOptions options;
  options.method = core::SynthesisMethod::kParametricLognormal;
  options.job_count = 100;
  auto synth = core::SynthesizeTrace(*model, options);
  ASSERT_TRUE(synth.ok());
  for (const auto& job : synth->jobs()) {
    EXPECT_FALSE(std::isnan(job.shuffle_bytes));
    EXPECT_DOUBLE_EQ(job.shuffle_bytes, 0.0);
  }
}

}  // namespace
}  // namespace swim

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.h"
#include "common/random.h"
#include "core/analysis/compute.h"
#include "core/analysis/data_access.h"
#include "core/analysis/temporal.h"
#include "core/analysis/workload_report.h"
#include "gtest/gtest.h"
#include "stats/zipf.h"
#include "trace/trace.h"

namespace swim::core {
namespace {

trace::JobRecord MakeJob(uint64_t id, double submit, double input,
                         double shuffle, double output,
                         const std::string& name = "",
                         const std::string& in_path = "",
                         const std::string& out_path = "") {
  trace::JobRecord job;
  job.job_id = id;
  job.submit_time = submit;
  job.duration = 60;
  job.input_bytes = input;
  job.shuffle_bytes = shuffle;
  job.output_bytes = output;
  job.map_tasks = 1;
  job.map_task_seconds = input / 1e6 + 1;
  if (shuffle > 0) {
    job.reduce_tasks = 1;
    job.reduce_task_seconds = shuffle / 1e6 + 1;
  }
  job.name = name;
  job.input_path = in_path;
  job.output_path = out_path;
  return job;
}

// --- Data sizes (Figure 1) --------------------------------------------------

TEST(DataSizeTest, MediansMatchConstruction) {
  trace::Trace t;
  t.AddJob(MakeJob(1, 0, 100, 0, 10));
  t.AddJob(MakeJob(2, 10, 200, 50, 20));
  t.AddJob(MakeJob(3, 20, 300, 100, 30));
  DataSizeCdfs cdfs = ComputeDataSizeCdfs(t);
  EXPECT_DOUBLE_EQ(cdfs.input.median(), 200.0);
  EXPECT_DOUBLE_EQ(cdfs.shuffle.median(), 50.0);
  EXPECT_DOUBLE_EQ(cdfs.output.median(), 20.0);
  EXPECT_EQ(cdfs.input.size(), 3u);
}

// --- File popularity (Figure 2) ------------------------------------------------

TEST(PopularityTest, CountsAccessesPerPath) {
  trace::Trace t;
  for (int i = 0; i < 6; ++i) {
    t.AddJob(MakeJob(i + 1, i * 10, 100, 0, 10, "", "in/hot", "out/x"));
  }
  t.AddJob(MakeJob(7, 100, 100, 0, 10, "", "in/cold", "out/y"));
  FilePopularity pop = ComputeInputPopularity(t);
  EXPECT_EQ(pop.distinct_files, 2u);
  EXPECT_EQ(pop.total_accesses, 7u);
  EXPECT_DOUBLE_EQ(pop.frequencies[0], 6.0);
  EXPECT_DOUBLE_EQ(pop.frequencies[1], 1.0);
}

TEST(PopularityTest, EmptyWhenNoPaths) {
  trace::Trace t;
  t.AddJob(MakeJob(1, 0, 1, 0, 1));
  FilePopularity pop = ComputeInputPopularity(t);
  EXPECT_EQ(pop.distinct_files, 0u);
  EXPECT_EQ(ComputeOutputPopularity(t).distinct_files, 0u);
}

// PopularityFromCounts as a sort: collect the nonzero counts, sort them
// descending, fit. The count-of-counts derivation must match it exactly.
FilePopularity SortedPopularityOracle(const std::vector<size_t>& counts) {
  FilePopularity result;
  for (size_t count : counts) {
    if (count == 0) continue;
    result.frequencies.push_back(static_cast<double>(count));
    result.total_accesses += count;
  }
  result.distinct_files = result.frequencies.size();
  std::sort(result.frequencies.begin(), result.frequencies.end(),
            std::greater<double>());
  result.zipf = stats::FitZipf(result.frequencies);
  return result;
}

void ExpectMatchesOracle(const std::vector<size_t>& counts) {
  const FilePopularity want = SortedPopularityOracle(counts);
  const FilePopularity got = PopularityFromCounts(counts);
  EXPECT_EQ(got.distinct_files, want.distinct_files);
  EXPECT_EQ(got.total_accesses, want.total_accesses);
  EXPECT_EQ(got.frequencies, want.frequencies);
  EXPECT_EQ(got.zipf.ranks, want.zipf.ranks);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.zipf.slope),
            std::bit_cast<uint64_t>(want.zipf.slope));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.zipf.intercept),
            std::bit_cast<uint64_t>(want.zipf.intercept));
  EXPECT_EQ(std::bit_cast<uint64_t>(got.zipf.r_squared),
            std::bit_cast<uint64_t>(want.zipf.r_squared));
}

TEST(PopularityTest, CountOfCountsMatchesSortOracle) {
  {
    SCOPED_TRACE("empty");
    ExpectMatchesOracle({});
  }
  {
    SCOPED_TRACE("all zero");
    ExpectMatchesOracle(std::vector<size_t>(1000, 0));
  }
  {
    SCOPED_TRACE("single file");
    ExpectMatchesOracle({0, 0, 7, 0});
  }
  {
    SCOPED_TRACE("heavy ties");
    std::vector<size_t> counts;
    for (size_t i = 0; i < 30000; ++i) counts.push_back(1 + i % 4);
    ExpectMatchesOracle(counts);
  }
  {
    SCOPED_TRACE("one huge count among ones");
    std::vector<size_t> counts(5000, 1);
    counts[2500] = 100000;
    ExpectMatchesOracle(counts);
  }
  {
    SCOPED_TRACE("random Zipf counts");
    stats::ZipfSampler sampler(50000, 0.83);
    Pcg32 rng(43);
    std::vector<size_t> counts(50000, 0);
    for (int i = 0; i < 400000; ++i) ++counts[sampler.Sample(rng)];
    ExpectMatchesOracle(counts);
  }
}

TEST(PopularityTest, CountOfCountsEmitsRunsDescending) {
  // Two paths read 3 times, one read once; index 0 is ignored.
  const FilePopularity pop = PopularityFromCountOfCounts({9, 1, 0, 2});
  EXPECT_EQ(pop.distinct_files, 3u);
  EXPECT_EQ(pop.total_accesses, 7u);
  EXPECT_EQ(pop.frequencies, (std::vector<double>{3.0, 3.0, 1.0}));
}

// --- Size skew (Figures 3/4) -----------------------------------------------------

TEST(SizeSkewTest, CurveSeparatesJobsFromBytes) {
  trace::Trace t;
  // 9 jobs on a tiny file, 1 job on a huge file.
  for (int i = 0; i < 9; ++i) {
    t.AddJob(MakeJob(i + 1, i, 1 * kMB, 0, 0, "", "in/small", ""));
  }
  t.AddJob(MakeJob(10, 100, 1 * kTB, 0, 0, "", "in/huge", ""));
  SizeSkewCurve curve = ComputeSizeSkew(t, /*use_output=*/false);
  ASSERT_FALSE(curve.points.empty());
  EXPECT_EQ(curve.jobs_with_paths, 10u);
  EXPECT_NEAR(curve.total_stored_bytes, 1 * kTB + 1 * kMB, 1e3);
  // At 1 GB: 90% of jobs but ~0% of stored bytes - the paper's skew.
  SizeSkewPoint at_gb;
  for (const auto& p : curve.points) {
    if (p.file_bytes <= 1 * kGB) at_gb = p;
  }
  EXPECT_NEAR(at_gb.fraction_of_jobs, 0.9, 0.01);
  EXPECT_LT(at_gb.fraction_of_stored_bytes, 0.01);
}

TEST(SizeSkewTest, EightyXRule) {
  trace::Trace t;
  // Hot file: 80 accesses, 1 GB. Cold files: 20 accesses, 10 GB each.
  for (int i = 0; i < 80; ++i) {
    t.AddJob(MakeJob(i + 1, i, 1 * kGB, 0, 0, "", "in/hot", ""));
  }
  for (int i = 0; i < 20; ++i) {
    t.AddJob(MakeJob(100 + i, 100 + i, 10 * kGB, 0, 0, "",
                     "in/cold" + std::to_string(i), ""));
  }
  double fraction =
      StoredBytesFractionForJobCoverage(t, 0.8, /*use_output=*/false);
  // 80% of accesses covered by the hot file = 1 GB of 201 GB stored.
  EXPECT_NEAR(fraction, 1.0 / 201.0, 0.001);
}

// --- Re-access (Figures 5/6) --------------------------------------------------------

TEST(ReaccessTest, IntervalsBetweenReads) {
  trace::Trace t;
  t.AddJob(MakeJob(1, 0, 1, 0, 1, "", "in/a", ""));
  t.AddJob(MakeJob(2, 100, 1, 0, 1, "", "in/a", ""));
  t.AddJob(MakeJob(3, 700, 1, 0, 1, "", "in/a", ""));
  ReaccessIntervals intervals = ComputeReaccessIntervals(t);
  ASSERT_EQ(intervals.input_input.size(), 2u);
  EXPECT_DOUBLE_EQ(intervals.input_input.min(), 100.0);
  EXPECT_DOUBLE_EQ(intervals.input_input.max(), 600.0);
}

TEST(ReaccessTest, OutputToInputChain) {
  trace::Trace t;
  // Job 1 writes out/x at t=60 (submit 0 + duration 60); job 2 reads it at
  // t=360.
  t.AddJob(MakeJob(1, 0, 1, 0, 100, "", "in/seed", "out/x"));
  t.AddJob(MakeJob(2, 360, 100, 0, 1, "", "out/x", ""));
  ReaccessIntervals intervals = ComputeReaccessIntervals(t);
  ASSERT_EQ(intervals.output_input.size(), 1u);
  EXPECT_DOUBLE_EQ(intervals.output_input.min(), 300.0);
}

TEST(ReaccessTest, FractionsCountProvenance) {
  trace::Trace t;
  t.AddJob(MakeJob(1, 0, 1, 0, 1, "", "in/a", "out/x"));   // fresh
  t.AddJob(MakeJob(2, 100, 1, 0, 1, "", "in/a", ""));      // input re-access
  t.AddJob(MakeJob(3, 200, 1, 0, 1, "", "out/x", ""));     // output re-access
  t.AddJob(MakeJob(4, 300, 1, 0, 1, "", "in/b", ""));      // fresh
  ReaccessFractions fractions = ComputeReaccessFractions(t);
  EXPECT_EQ(fractions.jobs_with_paths, 4u);
  EXPECT_DOUBLE_EQ(fractions.input_reaccess, 0.25);
  EXPECT_DOUBLE_EQ(fractions.output_reaccess, 0.25);
}

TEST(ReaccessTest, NoPathsMeansZero) {
  trace::Trace t;
  t.AddJob(MakeJob(1, 0, 1, 0, 1));
  ReaccessFractions fractions = ComputeReaccessFractions(t);
  EXPECT_EQ(fractions.jobs_with_paths, 0u);
  EXPECT_EQ(fractions.input_reaccess, 0.0);
}

// --- Temporal (Figures 7-9) ------------------------------------------------------

TEST(TemporalTest, SubmissionSeriesDimensions) {
  trace::Trace t;
  t.AddJob(MakeJob(1, 0, 1e6, 0, 0));
  t.AddJob(MakeJob(2, 3600 * 5, 1e6, 0, 0));
  SubmissionSeries series = ComputeSubmissionSeries(t);
  EXPECT_EQ(series.jobs_per_hour.size(), 6u);
  EXPECT_DOUBLE_EQ(series.jobs_per_hour[0], 1.0);
  EXPECT_DOUBLE_EQ(series.jobs_per_hour[5], 1.0);
  EXPECT_DOUBLE_EQ(series.jobs_per_hour[2], 0.0);
}

TEST(TemporalTest, WeekWindowClamps) {
  std::vector<double> series(300, 1.0);
  EXPECT_EQ(WeekWindow(series).size(), 168u);
  EXPECT_EQ(WeekWindow(series, 200).size(), 100u);
  EXPECT_TRUE(WeekWindow({}).empty());
}

TEST(TemporalTest, CorrelationsDetectCoupledDimensions) {
  trace::Trace t;
  Pcg32 rng(9);
  // Bytes and task-seconds proportional; job counts constant.
  for (int h = 0; h < 200; ++h) {
    double scale = 1.0 + 10.0 * rng.NextDouble();
    trace::JobRecord job = MakeJob(h + 1, h * 3600.0 + 10, scale * 1e9,
                                   scale * 1e8, scale * 1e7);
    job.map_task_seconds = scale * 1000;
    t.AddJob(job);
  }
  SeriesCorrelations corr = ComputeSeriesCorrelations(t);
  EXPECT_GT(corr.bytes_task_seconds, 0.95);
  EXPECT_EQ(corr.jobs_bytes, 0.0);  // jobs/hour is constant
}

TEST(TemporalTest, DiurnalStrengthHighForDailyPattern) {
  trace::Trace t;
  uint64_t id = 1;
  for (int d = 0; d < 7; ++d) {
    for (int h = 0; h < 24; ++h) {
      int jobs = (h >= 9 && h <= 17) ? 10 : 1;  // business hours
      for (int j = 0; j < jobs; ++j) {
        t.AddJob(MakeJob(id++, d * 86400.0 + h * 3600.0 + j, 1, 0, 1));
      }
    }
  }
  EXPECT_GT(DiurnalStrength(t), 0.5);
}

// --- Compute (Figure 10, Table 2) ------------------------------------------------

TEST(JobNamesTest, SharesByThreeWeightings) {
  trace::Trace t;
  // 3 small "ad" jobs, 1 huge "insert" job.
  for (int i = 0; i < 3; ++i) {
    t.AddJob(MakeJob(i + 1, i, 1e6, 0, 0, "ad_hoc_" + std::to_string(i)));
  }
  trace::JobRecord big =
      MakeJob(4, 100, 1e12, 0, 0, "INSERT OVERWRITE TABLE x");
  big.map_task_seconds = 1e6;
  t.AddJob(big);
  JobNameReport report = AnalyzeJobNames(t);
  ASSERT_GE(report.words.size(), 2u);
  EXPECT_EQ(report.words[0].word, "ad");
  EXPECT_DOUBLE_EQ(report.words[0].by_jobs, 0.75);
  EXPECT_LT(report.words[0].by_bytes, 0.01);
  // Framework attribution: insert -> Hive.
  EXPECT_NEAR(report.framework_by_jobs[static_cast<int>(
                  trace::Framework::kHive)],
              0.25, 1e-9);
  EXPECT_NEAR(report.framework_by_bytes[static_cast<int>(
                  trace::Framework::kHive)],
              1.0, 0.01);
}

TEST(JobNamesTest, UnnamedJobsExcluded) {
  trace::Trace t;
  t.AddJob(MakeJob(1, 0, 1, 0, 1));
  JobNameReport report = AnalyzeJobNames(t);
  EXPECT_EQ(report.named_jobs, 0u);
  EXPECT_TRUE(report.words.empty());
}

TEST(JobNamesTest, TopTwoFrameworkShare) {
  trace::Trace t;
  t.AddJob(MakeJob(1, 0, 1, 0, 1, "insert a"));
  t.AddJob(MakeJob(2, 1, 1, 0, 1, "PigLatin:x.pig"));
  t.AddJob(MakeJob(3, 2, 1, 0, 1, "custom_thing"));
  t.AddJob(MakeJob(4, 3, 1, 0, 1, "select b"));
  JobNameReport report = AnalyzeJobNames(t);
  // Hive (0.5) + Pig or Native (0.25) = 0.75.
  EXPECT_NEAR(report.TopTwoFrameworkJobShare(), 0.75, 1e-9);
}

TEST(ClassifyTest, SeparatesSmallAndLargeJobs) {
  trace::Trace t;
  Pcg32 rng(17);
  for (int i = 0; i < 400; ++i) {
    trace::JobRecord job =
        MakeJob(i + 1, i * 10.0, 1e5 * (1 + rng.NextDouble()), 0,
                1e4 * (1 + rng.NextDouble()));
    job.duration = 30;
    job.map_task_seconds = 20;
    t.AddJob(job);
  }
  for (int i = 0; i < 40; ++i) {
    trace::JobRecord job =
        MakeJob(500 + i, i * 100.0, 1e12 * (1 + rng.NextDouble()),
                1e11 * (1 + rng.NextDouble()), 1e10);
    job.duration = 3600;
    job.map_task_seconds = 1e6;
    job.reduce_task_seconds = 1e5;
    t.AddJob(job);
  }
  auto result = ClassifyJobs(t);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->k, 2);
  EXPECT_NEAR(result->largest_class_fraction, 400.0 / 440.0, 0.05);
  EXPECT_NEAR(result->fraction_under_10gb, 400.0 / 440.0, 1e-9);
  EXPECT_EQ(result->classes[0].label, "Small jobs");
}

TEST(ClassifyTest, EmptyTraceFails) {
  trace::Trace t;
  EXPECT_FALSE(ClassifyJobs(t).ok());
}

TEST(ClassifyTest, SingleJobGivesOneClass) {
  trace::Trace t;
  t.AddJob(MakeJob(1, 0, 1e6, 0, 1e5));
  auto result = ClassifyJobs(t);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->k, 1);
  EXPECT_DOUBLE_EQ(result->largest_class_fraction, 1.0);
}

TEST(LabelTest, VocabularyMatchesPaper) {
  JobClass small;
  small.input_bytes = 1 * kMB;
  small.output_bytes = 100 * kKB;
  small.duration_seconds = 30;
  small.map_task_seconds = 20;
  EXPECT_EQ(LabelForCentroid(small), "Small jobs");

  JobClass load;
  load.input_bytes = 400 * kKB;
  load.output_bytes = 447 * kGB;
  load.duration_seconds = kHour;
  load.map_task_seconds = 66657;
  EXPECT_EQ(LabelForCentroid(load), "Load data");

  JobClass aggregate;
  aggregate.input_bytes = 4.7 * kTB;
  aggregate.shuffle_bytes = 374 * kMB;
  aggregate.output_bytes = 24 * kMB;
  aggregate.duration_seconds = 9 * kMinute;
  aggregate.map_task_seconds = 876786;
  aggregate.reduce_task_seconds = 705;
  EXPECT_NE(LabelForCentroid(aggregate).find("Aggregate"), std::string::npos);

  JobClass map_only;
  map_only.input_bytes = 1.2 * kTB;
  map_only.output_bytes = 27 * kGB;
  map_only.duration_seconds = 2.5 * kHour;
  map_only.map_task_seconds = 437615;
  EXPECT_NE(LabelForCentroid(map_only).find("Map only"), std::string::npos);

  JobClass expand;
  expand.input_bytes = 100 * kGB;
  expand.shuffle_bytes = 120 * kGB;
  expand.output_bytes = 600 * kGB;
  expand.duration_seconds = kHour;
  expand.map_task_seconds = 1e6;
  expand.reduce_task_seconds = 1e6;
  EXPECT_NE(LabelForCentroid(expand).find("Expand"), std::string::npos);
}

// --- Facade ----------------------------------------------------------------------

TEST(WorkloadReportTest, RunsFullPipeline) {
  trace::Trace t;
  t.mutable_metadata().name = "mini";
  for (int i = 0; i < 100; ++i) {
    t.AddJob(MakeJob(i + 1, i * 120.0, 1e6, 0, 1e5, "ad_" + std::to_string(i),
                     "in/a", "out/" + std::to_string(i)));
  }
  auto report = AnalyzeWorkload(t);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->summary.jobs, 100u);
  EXPECT_EQ(report->names.named_jobs, 100u);
  EXPECT_GE(report->classes.k, 1);
  std::string text = FormatReport(*report);
  EXPECT_NE(text.find("mini"), std::string::npos);
  EXPECT_NE(text.find("Small jobs"), std::string::npos);
}

TEST(WorkloadReportTest, EmptyTraceFails) {
  trace::Trace t;
  EXPECT_FALSE(AnalyzeWorkload(t).ok());
}

}  // namespace
}  // namespace swim::core

// Tests for the streaming analysis fast path and the follow-mode reader:
// exact-stage byte identity against the batch pipeline, GK quantiles
// against the SortedStats oracle, thread-count determinism, incremental ==
// one-shot, and follower resilience to truncation / mutation / garbage.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/analysis/follow.h"
#include "core/analysis/streaming.h"
#include "core/analysis/workload_report.h"
#include "gtest/gtest.h"
#include "stats/descriptive.h"
#include "trace/columnar.h"
#include "trace/stf1_mutator.h"
#include "trace/trace_io.h"
#include "workloads/paper_workloads.h"
#include "workloads/trace_generator.h"

namespace swim::core {
namespace {

trace::Trace GenerateWorkload(const char* name, size_t jobs) {
  auto spec = workloads::PaperWorkloadByName(name);
  EXPECT_TRUE(spec.ok());
  workloads::GeneratorOptions options;
  options.job_count_override = jobs;
  auto generated = workloads::GenerateTrace(*spec, options);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  return *std::move(generated);
}

trace::ColumnarTraceView ViewOf(const trace::Trace& trace) {
  auto view =
      trace::ColumnarTraceView::FromBytes(trace::TraceToColumnarBytes(trace));
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  return std::move(*view);
}

StreamingReport StreamAll(const trace::ColumnarTraceView& view,
                          StreamingOptions options = {}) {
  StreamingAnalyzer analyzer(options);
  auto status = analyzer.ObserveColumns(view, 0, view.job_count());
  EXPECT_TRUE(status.ok()) << status.ToString();
  auto report = analyzer.Report(&view);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return *std::move(report);
}

std::string WriteTempFile(const char* name, const std::string& bytes) {
  std::string path = ::testing::TempDir() + name;
  std::FILE* out = std::fopen(path.c_str(), "wb");
  EXPECT_NE(out, nullptr);
  EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
  std::fclose(out);
  return path;
}

void AppendToFile(const std::string& path, const std::string& bytes) {
  std::FILE* out = std::fopen(path.c_str(), "ab");
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
  std::fclose(out);
}

/// A trace holding the first `rows` jobs of `full` (metadata preserved).
trace::Trace Prefix(const trace::Trace& full, size_t rows) {
  trace::Trace prefix;
  prefix.mutable_metadata() = full.metadata();
  for (size_t i = 0; i < rows; ++i) prefix.AddJob(full.jobs()[i]);
  return prefix;
}

// --- Exact-stage identity with the batch pipeline -------------------------

void ExpectPopularityEqual(const FilePopularity& streaming,
                           const FilePopularity& batch) {
  EXPECT_EQ(streaming.distinct_files, batch.distinct_files);
  EXPECT_EQ(streaming.total_accesses, batch.total_accesses);
  ASSERT_EQ(streaming.frequencies.size(), batch.frequencies.size());
  for (size_t i = 0; i < streaming.frequencies.size(); ++i) {
    ASSERT_EQ(streaming.frequencies[i], batch.frequencies[i]) << i;
  }
  EXPECT_EQ(streaming.zipf.slope, batch.zipf.slope);
  EXPECT_EQ(streaming.zipf.intercept, batch.zipf.intercept);
  EXPECT_EQ(streaming.zipf.r_squared, batch.zipf.r_squared);
}

void ExpectExactStagesEqual(const StreamingReport& streaming,
                            const WorkloadReport& batch) {
  // Table 1 accumulators.
  EXPECT_EQ(streaming.summary.jobs, batch.summary.jobs);
  EXPECT_EQ(streaming.summary.bytes_moved, batch.summary.bytes_moved);
  EXPECT_EQ(streaming.summary.span_seconds, batch.summary.span_seconds);
  EXPECT_EQ(streaming.summary.map_only_jobs, batch.summary.map_only_jobs);
  EXPECT_EQ(streaming.summary.machines, batch.summary.machines);

  // File popularity: identical multiset of counts and identical fit.
  ExpectPopularityEqual(streaming.input_popularity, batch.input_popularity);
  ExpectPopularityEqual(streaming.output_popularity, batch.output_popularity);

  // Re-access fractions replicate the chronological scan exactly.
  EXPECT_EQ(streaming.reaccess_fractions.jobs_with_paths,
            batch.reaccess_fractions.jobs_with_paths);
  EXPECT_EQ(streaming.reaccess_fractions.input_reaccess,
            batch.reaccess_fractions.input_reaccess);
  EXPECT_EQ(streaming.reaccess_fractions.output_reaccess,
            batch.reaccess_fractions.output_reaccess);

  // Temporal stages consume the identical padded hourly series.
  EXPECT_EQ(streaming.burstiness.jobs.PeakToMedian(),
            batch.burstiness.jobs.PeakToMedian());
  EXPECT_EQ(streaming.burstiness.bytes.PeakToMedian(),
            batch.burstiness.bytes.PeakToMedian());
  EXPECT_EQ(streaming.burstiness.task_seconds.PeakToMedian(),
            batch.burstiness.task_seconds.PeakToMedian());
  EXPECT_EQ(streaming.correlations.jobs_bytes, batch.correlations.jobs_bytes);
  EXPECT_EQ(streaming.correlations.jobs_task_seconds,
            batch.correlations.jobs_task_seconds);
  EXPECT_EQ(streaming.correlations.bytes_task_seconds,
            batch.correlations.bytes_task_seconds);
  EXPECT_EQ(streaming.diurnal_strength, batch.diurnal_strength);

  // Name shares go through the shared JobNameAccumulator.
  EXPECT_EQ(streaming.names.named_jobs, batch.names.named_jobs);
  ASSERT_EQ(streaming.names.words.size(), batch.names.words.size());
  for (size_t i = 0; i < streaming.names.words.size(); ++i) {
    ASSERT_EQ(streaming.names.words[i].word, batch.names.words[i].word);
    ASSERT_EQ(streaming.names.words[i].by_jobs, batch.names.words[i].by_jobs);
    ASSERT_EQ(streaming.names.words[i].by_bytes,
              batch.names.words[i].by_bytes);
  }
  for (size_t f = 0; f < trace::kFrameworkCount; ++f) {
    EXPECT_EQ(streaming.names.framework_by_jobs[f],
              batch.names.framework_by_jobs[f]);
  }
}

TEST(StreamingTest, ExactStagesMatchBatchBitForBit) {
  // Every paper workload, through both input modes. Between them they
  // cover traces without paths (CC-a, FB-2009), with input paths only and
  // no names (FB-2010), and with both (CC-b..CC-e).
  size_t without_paths = 0;
  size_t without_names = 0;
  for (const std::string& name : workloads::PaperWorkloadNames()) {
    SCOPED_TRACE(name);
    const trace::Trace trace = GenerateWorkload(name.c_str(), 12000);
    auto batch = AnalyzeWorkload(trace);
    ASSERT_TRUE(batch.ok());
    if (batch->input_popularity.distinct_files == 0) ++without_paths;
    if (batch->names.named_jobs == 0) ++without_names;

    const trace::ColumnarTraceView view = ViewOf(trace);
    {
      SCOPED_TRACE("ObserveColumns");
      ExpectExactStagesEqual(StreamAll(view), *batch);
    }
    StreamingAnalyzer from_rows;
    from_rows.SetMetadata(trace.metadata());
    ASSERT_TRUE(from_rows
                    .ObserveJobs(Span<const trace::JobRecord>(
                        trace.jobs().data(), trace.jobs().size()))
                    .ok());
    auto rows_report = from_rows.Report();
    ASSERT_TRUE(rows_report.ok());
    SCOPED_TRACE("ObserveJobs");
    ExpectExactStagesEqual(*rows_report, *batch);
  }
  EXPECT_GT(without_paths, 0u);
  EXPECT_GT(without_names, 0u);
}

TEST(StreamingTest, GkQuantilesWithinEpsilonOfOracle) {
  const trace::Trace trace = GenerateWorkload("FB-2010", 20000);
  const trace::ColumnarTraceView view = ViewOf(trace);
  StreamingOptions options;
  options.quantile_epsilon = 0.005;
  const StreamingReport streaming = StreamAll(view, options);

  auto check = [&](const StreamingQuantiles& got,
                   std::vector<double> column) {
    stats::SortedStats oracle(std::move(column));
    const double n = static_cast<double>(oracle.count());
    const auto rank_of = [&](double value, double p) {
      const auto& sorted = oracle.sorted();
      const double lo = static_cast<double>(
          std::lower_bound(sorted.begin(), sorted.end(), value) -
          sorted.begin());
      const double hi = static_cast<double>(
          std::upper_bound(sorted.begin(), sorted.end(), value) -
          sorted.begin());
      const double target = 1.0 + p * (n - 1.0);
      const double margin = options.quantile_epsilon * n + 1.0;
      EXPECT_LE(lo + 1.0, target + margin) << "p=" << p;
      EXPECT_GE(hi, target - margin) << "p=" << p;
    };
    rank_of(got.p25, 0.25);
    rank_of(got.p50, 0.50);
    rank_of(got.p75, 0.75);
    rank_of(got.p90, 0.90);
    rank_of(got.p99, 0.99);
  };
  auto column = [&](Span<const double> span) {
    return std::vector<double>(span.begin(), span.end());
  };
  check(streaming.input_bytes, column(view.input_bytes()));
  check(streaming.shuffle_bytes, column(view.shuffle_bytes()));
  check(streaming.output_bytes, column(view.output_bytes()));
  check(streaming.duration, column(view.durations()));
}

TEST(StreamingTest, ByteIdenticalAcrossThreadCounts) {
  const trace::Trace trace = GenerateWorkload("CC-b", 150000);
  const trace::ColumnarTraceView view = ViewOf(trace);
  StreamingOptions serial;
  serial.threads = 1;
  StreamingOptions wide;
  wide.threads = 8;
  const std::string a = FormatStreamingReport(StreamAll(view, serial));
  const std::string b = FormatStreamingReport(StreamAll(view, wide));
  EXPECT_EQ(a, b);
}

TEST(StreamingTest, IncrementalMatchesOneShotExactStages) {
  const trace::Trace trace = GenerateWorkload("CC-b", 9000);
  const trace::ColumnarTraceView view = ViewOf(trace);
  const StreamingReport one_shot = StreamAll(view);

  StreamingAnalyzer incremental;
  size_t at = 0;
  // Uneven batch sizes, as a follower would produce.
  for (size_t step : {1u, 137u, 4000u, 2u, 4860u}) {
    const size_t end = std::min(view.job_count(), at + step);
    ASSERT_TRUE(incremental.ObserveColumns(view, at, end).ok());
    at = end;
  }
  ASSERT_EQ(at, view.job_count());
  auto report = incremental.Report(&view);
  ASSERT_TRUE(report.ok());

  // Exact stages are running scalar accumulations in row order: batching
  // cannot change them.
  EXPECT_EQ(report->summary.bytes_moved, one_shot.summary.bytes_moved);
  EXPECT_EQ(report->summary.span_seconds, one_shot.summary.span_seconds);
  EXPECT_EQ(report->reaccess_fractions.input_reaccess,
            one_shot.reaccess_fractions.input_reaccess);
  EXPECT_EQ(report->reaccess_fractions.output_reaccess,
            one_shot.reaccess_fractions.output_reaccess);
  EXPECT_EQ(report->input_popularity.zipf.slope,
            one_shot.input_popularity.zipf.slope);
  EXPECT_EQ(report->correlations.bytes_task_seconds,
            one_shot.correlations.bytes_task_seconds);
  EXPECT_EQ(report->diurnal_strength, one_shot.diurnal_strength);
  EXPECT_EQ(report->fraction_under_10gb, one_shot.fraction_under_10gb);
  // GK answers may differ across batchings but stay within epsilon of each
  // other's rank window (both are within eps of the truth).
  EXPECT_NEAR(report->duration.p50, one_shot.duration.p50,
              0.05 * one_shot.duration.p50 + 1.0);
}

/// Folds `trace` in the uneven batches a follower produces (1, 137, 4000,
/// 2, then the rest), through both input modes, and after every batch
/// checks the exact stages against the batch pipeline on that prefix.
void ExpectEveryPollExact(const trace::Trace& trace) {
  const trace::ColumnarTraceView view = ViewOf(trace);
  StreamingAnalyzer columnar;
  StreamingAnalyzer rows;
  rows.SetMetadata(trace.metadata());
  size_t at = 0;
  for (size_t step : {size_t{1}, size_t{137}, size_t{4000}, size_t{2},
                      trace.size()}) {
    const size_t end = std::min(trace.size(), at + step);
    SCOPED_TRACE("rows [" + std::to_string(at) + ", " + std::to_string(end) +
                 ")");
    ASSERT_TRUE(columnar.ObserveColumns(view, at, end).ok());
    ASSERT_TRUE(rows.ObserveJobs(Span<const trace::JobRecord>(
                                     trace.jobs().data() + at, end - at))
                    .ok());
    at = end;
    auto batch = AnalyzeWorkload(Prefix(trace, end));
    ASSERT_TRUE(batch.ok());
    auto columnar_report = columnar.Report(&view);
    ASSERT_TRUE(columnar_report.ok());
    auto rows_report = rows.Report();
    ASSERT_TRUE(rows_report.ok());
    {
      SCOPED_TRACE("ObserveColumns");
      ExpectExactStagesEqual(*columnar_report, *batch);
    }
    {
      SCOPED_TRACE("ObserveJobs");
      ExpectExactStagesEqual(*rows_report, *batch);
    }
  }
  ASSERT_EQ(at, trace.size());
}

TEST(StreamingTest, EveryPollMatchesBatchOnThePrefix) {
  {
    // Input paths, output paths and names.
    SCOPED_TRACE("CC-b");
    ExpectEveryPollExact(GenerateWorkload("CC-b", 9000));
  }
  {
    // Input paths only, no names.
    SCOPED_TRACE("FB-2010");
    ExpectEveryPollExact(GenerateWorkload("FB-2010", 9000));
  }
}

TEST(StreamingTest, EveryPollMatchesBatchOnHandBuiltRows) {
  // Rows [4138, 4140) form the 2-row batch of ExpectEveryPollExact; they
  // touch only files never seen before. Elsewhere every tenth row reads
  // one hot path (430 reads, so it walks through that many runs of the
  // count-of-counts table), and every seventh reads an output written
  // fifty rows earlier.
  trace::Trace trace;
  trace.mutable_metadata().name = "hand-built";
  trace.mutable_metadata().machines = 10;
  const char* const kNames[] = {"insert", "select", "piglatin", "oozie"};
  for (size_t i = 0; i < 4300; ++i) {
    trace::JobRecord job;
    job.job_id = i + 1;
    job.submit_time = 30.0 * static_cast<double>(i / 2);  // pairs share a time
    job.duration = 45.0 + static_cast<double>(i % 5);
    job.input_bytes = 1e6 * static_cast<double>(1 + i % 13);
    job.output_bytes = 1e5 * static_cast<double>(1 + i % 7);
    job.map_tasks = 1;
    job.map_task_seconds = 10.0;
    job.name = kNames[i % 4];
    if (i == 4138 || i == 4139) {
      job.input_path = "fresh/in" + std::to_string(i);
      job.output_path = "fresh/out" + std::to_string(i);
    } else {
      if (i % 10 == 0) {
        job.input_path = "hot";
      } else if (i % 7 == 3 && i >= 50) {
        job.input_path = "out/" + std::to_string(i - 50);
      } else if (i % 3 != 0) {
        job.input_path = "in/" + std::to_string(i % 997);
      }
      if (i % 2 == 1) job.output_path = "out/" + std::to_string(i);
    }
    trace.AddJob(job);
  }
  auto batch = AnalyzeWorkload(trace);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->input_popularity.frequencies.front(), 430.0);
  ASSERT_GT(batch->reaccess_fractions.output_reaccess, 0.0);
  ExpectEveryPollExact(trace);
}

TEST(StreamingTest, JobsModeMatchesColumnarModeExactStages) {
  const trace::Trace trace = GenerateWorkload("CC-b", 8000);
  const trace::ColumnarTraceView view = ViewOf(trace);
  const StreamingReport columnar = StreamAll(view);

  StreamingAnalyzer from_rows;
  from_rows.SetMetadata(trace.metadata());
  ASSERT_TRUE(from_rows
                  .ObserveJobs(Span<const trace::JobRecord>(
                      trace.jobs().data(), trace.jobs().size()))
                  .ok());
  auto report = from_rows.Report();
  ASSERT_TRUE(report.ok());

  EXPECT_EQ(report->summary.bytes_moved, columnar.summary.bytes_moved);
  EXPECT_EQ(report->reaccess_fractions.input_reaccess,
            columnar.reaccess_fractions.input_reaccess);
  EXPECT_EQ(report->input_popularity.zipf.slope,
            columnar.input_popularity.zipf.slope);
  ASSERT_EQ(report->names.words.size(), columnar.names.words.size());
  for (size_t i = 0; i < report->names.words.size(); ++i) {
    ASSERT_EQ(report->names.words[i].word, columnar.names.words[i].word);
  }
  // Both modes emit identical formatted output (modulo nothing: the
  // sketches saw the same values in the same chunk layout).
  EXPECT_EQ(FormatStreamingReport(*report), FormatStreamingReport(columnar));
}

TEST(StreamingTest, RejectedBatchLeavesAnalyzerUntouched) {
  const trace::Trace trace = GenerateWorkload("CC-b", 1000);
  const trace::ColumnarTraceView view = ViewOf(trace);
  StreamingAnalyzer analyzer;
  ASSERT_TRUE(analyzer.ObserveColumns(view, 0, 500).ok());
  const std::string before =
      FormatStreamingReport(*analyzer.Report(&view));

  // Re-observing rows 0..500 violates submit monotonicity (they precede
  // the consumed mark) and must be rejected wholesale.
  auto status = analyzer.ObserveColumns(view, 0, 500);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(analyzer.jobs_observed(), 500u);
  EXPECT_EQ(FormatStreamingReport(*analyzer.Report(&view)), before);

  // A NaN row is caught in the validation pre-pass.
  trace::Trace bad = Prefix(trace, 0);
  trace::JobRecord poison = trace.jobs()[999];
  poison.input_bytes = std::nan("");
  bad.AddJob(poison);
  StreamingAnalyzer fresh;
  auto bad_status = fresh.ObserveJobs(Span<const trace::JobRecord>(
      bad.jobs().data(), bad.jobs().size()));
  EXPECT_FALSE(bad_status.ok());
  EXPECT_EQ(fresh.jobs_observed(), 0u);

  // In row mode too, a batch whose last row is bad is rejected whole, and
  // the analyzer continues as if it had never seen it.
  StreamingAnalyzer from_rows;
  from_rows.SetMetadata(trace.metadata());
  ASSERT_TRUE(from_rows
                  .ObserveJobs(Span<const trace::JobRecord>(
                      trace.jobs().data(), 500))
                  .ok());
  const std::string rows_before = FormatStreamingReport(*from_rows.Report());
  std::vector<trace::JobRecord> tail(trace.jobs().begin() + 500,
                                     trace.jobs().begin() + 600);
  tail.back().map_tasks = -1;
  EXPECT_FALSE(from_rows
                   .ObserveJobs(Span<const trace::JobRecord>(tail.data(),
                                                             tail.size()))
                   .ok());
  EXPECT_EQ(from_rows.jobs_observed(), 500u);
  EXPECT_EQ(FormatStreamingReport(*from_rows.Report()), rows_before);
  tail.back().map_tasks = trace.jobs()[599].map_tasks;
  ASSERT_TRUE(from_rows
                  .ObserveJobs(Span<const trace::JobRecord>(tail.data(),
                                                            tail.size()))
                  .ok());
  StreamingAnalyzer one_shot;
  one_shot.SetMetadata(trace.metadata());
  ASSERT_TRUE(one_shot
                  .ObserveJobs(Span<const trace::JobRecord>(
                      trace.jobs().data(), 600))
                  .ok());
  const StreamingReport continued = *from_rows.Report();
  const StreamingReport expected = *one_shot.Report();
  EXPECT_EQ(continued.summary.bytes_moved, expected.summary.bytes_moved);
  EXPECT_EQ(continued.input_popularity.frequencies,
            expected.input_popularity.frequencies);
  EXPECT_EQ(continued.reaccess_fractions.input_reaccess,
            expected.reaccess_fractions.input_reaccess);
}

TEST(StreamingTest, EmptyReportIsAnError) {
  StreamingAnalyzer analyzer;
  EXPECT_FALSE(analyzer.Report().ok());
}

// --- Follow mode: STF1 ----------------------------------------------------

TEST(FollowTest, Stf1GrowthIsConsumedIncrementally) {
  const trace::Trace full = GenerateWorkload("CC-b", 6000);
  const std::string path = WriteTempFile(
      "follow_grow.stf1", trace::TraceToColumnarBytes(Prefix(full, 2000)));

  auto follower = TraceFollower::Open(path);
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  auto first = follower->Poll();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->new_jobs, 2000u);

  // Grow the snapshot (the producer pattern: rewrite with more rows).
  WriteTempFile("follow_grow.stf1",
                trace::TraceToColumnarBytes(Prefix(full, 6000)));
  auto second = follower->Poll();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->new_jobs, 4000u);
  EXPECT_EQ(second->total_jobs, 6000u);

  // No growth -> a no-op poll.
  auto third = follower->Poll();
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->new_jobs, 0u);

  // The incrementally-built report matches a one-shot stream of the full
  // trace on its exact stages.
  const StreamingReport one_shot = StreamAll(ViewOf(full));
  auto report = follower->Report();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->summary.bytes_moved, one_shot.summary.bytes_moved);
  EXPECT_EQ(report->reaccess_fractions.input_reaccess,
            one_shot.reaccess_fractions.input_reaccess);
  EXPECT_EQ(report->input_popularity.zipf.slope,
            one_shot.input_popularity.zipf.slope);
}

TEST(FollowTest, Stf1ShrinkIsAnError) {
  const trace::Trace full = GenerateWorkload("CC-b", 3000);
  const std::string path = WriteTempFile(
      "follow_shrink.stf1", trace::TraceToColumnarBytes(full));
  auto follower = TraceFollower::Open(path);
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(follower->Poll().ok());
  WriteTempFile("follow_shrink.stf1",
                trace::TraceToColumnarBytes(Prefix(full, 1000)));
  auto poll = follower->Poll();
  EXPECT_FALSE(poll.ok());
  EXPECT_EQ(follower->jobs_consumed(), 3000u);  // analyzer untouched
}

TEST(FollowTest, Stf1PrefixMutationIsAnError) {
  const trace::Trace full = GenerateWorkload("CC-b", 3000);
  const std::string path = WriteTempFile(
      "follow_mutate.stf1", trace::TraceToColumnarBytes(Prefix(full, 2000)));
  auto follower = TraceFollower::Open(path);
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(follower->Poll().ok());

  // "Grow" with a file whose consumed prefix differs: shift every submit
  // time. The spot checks must refuse it.
  trace::Trace shifted;
  shifted.mutable_metadata() = full.metadata();
  for (size_t i = 0; i < full.size(); ++i) {
    trace::JobRecord job = full.jobs()[i];
    job.submit_time += 1.0;
    shifted.AddJob(job);
  }
  WriteTempFile("follow_mutate.stf1", trace::TraceToColumnarBytes(shifted));
  auto poll = follower->Poll();
  EXPECT_FALSE(poll.ok());
  EXPECT_EQ(follower->jobs_consumed(), 2000u);
}

TEST(FollowTest, Stf1MutatorFuzzNeverPoisonsTheAnalyzer) {
  // Corrupt the grown snapshot 200 ways; every poll must either error
  // cleanly or consume valid rows, and after restoring the good file the
  // follower must converge to the same exact-stage state as an untouched
  // one-shot run — corruption can delay the tail but never taint it.
  const trace::Trace full = GenerateWorkload("CC-b", 2500);
  const std::string good_half =
      trace::TraceToColumnarBytes(Prefix(full, 1500));
  const std::string good_full = trace::TraceToColumnarBytes(full);
  const trace::Stf1Mutator mutator(2026);
  const std::string path = WriteTempFile("follow_fuzz.stf1", good_half);

  auto follower = TraceFollower::Open(path);
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(follower->Poll().ok());
  ASSERT_EQ(follower->jobs_consumed(), 1500u);

  size_t clean_errors = 0;
  for (uint64_t iteration = 0; iteration < 200; ++iteration) {
    WriteTempFile("follow_fuzz.stf1",
                  mutator.Mutate(good_full, iteration));
    auto poll = follower->Poll();
    if (!poll.ok()) ++clean_errors;
    // Whatever happened, consumed never regresses and never exceeds the
    // full trace.
    ASSERT_GE(follower->jobs_consumed(), 1500u);
    ASSERT_LE(follower->jobs_consumed(), full.size());
    if (follower->jobs_consumed() == full.size()) break;
  }
  // Restore the pristine full file; the follower finishes the job.
  WriteTempFile("follow_fuzz.stf1", good_full);
  auto final_poll = follower->Poll();
  ASSERT_TRUE(final_poll.ok()) << final_poll.status().ToString();
  EXPECT_EQ(follower->jobs_consumed(), full.size());
  EXPECT_GT(clean_errors, 0u);  // the mutator did land corruption

  const StreamingReport one_shot = StreamAll(ViewOf(full));
  auto report = follower->Report();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->summary.bytes_moved, one_shot.summary.bytes_moved);
  EXPECT_EQ(report->reaccess_fractions.input_reaccess,
            one_shot.reaccess_fractions.input_reaccess);
  EXPECT_EQ(report->input_popularity.zipf.slope,
            one_shot.input_popularity.zipf.slope);
}

// --- Follow mode: CSV -----------------------------------------------------

TEST(FollowTest, CsvAppendsAreConsumedIncrementally) {
  const trace::Trace full = GenerateWorkload("CC-b", 4000);
  const std::string csv = trace::TraceToCsv(full);
  // Split at a line boundary near the middle.
  const size_t half = csv.find('\n', csv.size() / 2) + 1;
  const std::string path =
      WriteTempFile("follow_grow.csv", csv.substr(0, half));

  auto follower = TraceFollower::Open(path);
  ASSERT_TRUE(follower.ok());
  auto first = follower->Poll();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first->new_jobs, 0u);
  EXPECT_LT(first->new_jobs, full.size());

  AppendToFile(path, csv.substr(half));
  auto second = follower->Poll();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->total_jobs, full.size());

  const StreamingReport one_shot = StreamAll(ViewOf(full));
  auto report = follower->Report();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->summary.bytes_moved, one_shot.summary.bytes_moved);
  EXPECT_EQ(report->reaccess_fractions.input_reaccess,
            one_shot.reaccess_fractions.input_reaccess);
}

TEST(FollowTest, CsvHalfFlushedLineWaitsForCompletion) {
  const trace::Trace full = GenerateWorkload("CC-b", 100);
  const std::string csv = trace::TraceToCsv(full);
  const size_t last_line_start = csv.rfind('\n', csv.size() - 2) + 1;
  // Write everything except the tail of the final record.
  const std::string path = WriteTempFile(
      "follow_torn.csv", csv.substr(0, last_line_start + 10));
  auto follower = TraceFollower::Open(path);
  ASSERT_TRUE(follower.ok());
  auto first = follower->Poll();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->total_jobs, 99u);  // the torn row is not consumed
  // Complete the record; the next poll picks it up.
  AppendToFile(path, csv.substr(last_line_start + 10));
  auto second = follower->Poll();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->new_jobs, 1u);
  EXPECT_EQ(second->total_jobs, 100u);
}

// The one-shot streaming report over a whole CSV document (what
// swim_analyze --stream prints for it).
std::string OneShotCsvReport(const std::string& csv) {
  auto parsed = trace::TraceFromCsv(csv);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  StreamingAnalyzer analyzer;
  analyzer.SetMetadata(parsed->metadata());
  EXPECT_TRUE(analyzer
                  .ObserveJobs(Span<const trace::JobRecord>(
                      parsed->jobs().data(), parsed->jobs().size()))
                  .ok());
  auto report = analyzer.Report();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return FormatStreamingReport(*report);
}

TEST(FollowTest, CsvQuoteInMetadataCommentDoesNotStall) {
  // '#' lines never continue a record, so the quote in this name must not
  // hold back the record boundary of every line after it.
  const trace::Trace full = GenerateWorkload("CC-b", 300);
  std::string csv = trace::TraceToCsv(full);
  csv = "#name=O\"Brien" + csv.substr(csv.find('\n'));
  const std::string path = WriteTempFile("follow_quoted_meta.csv", csv);
  auto follower = TraceFollower::Open(path);
  ASSERT_TRUE(follower.ok());
  auto poll = follower->Poll();
  ASSERT_TRUE(poll.ok()) << poll.status().ToString();
  EXPECT_EQ(poll->total_jobs, full.size());
  auto report = follower->Report();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(FormatStreamingReport(*report), OneShotCsvReport(csv));
}

TEST(FollowTest, CsvQuotedNewlineWaitsAcrossPolls) {
  // A quoted name holding a newline (and doubled quotes) in the middle of
  // the file; the file is cut inside that quote, right after the embedded
  // newline, where a line-based reader would see a complete line.
  const trace::Trace generated = GenerateWorkload("CC-b", 300);
  trace::Trace full;
  full.mutable_metadata() = generated.metadata();
  for (size_t i = 0; i < generated.size(); ++i) {
    trace::JobRecord job = generated.jobs()[i];
    if (i == 150) job.name = "say \"hi\"\nbye";
    full.AddJob(job);
  }
  const std::string csv = trace::TraceToCsv(full);
  const size_t cut = csv.find("\"say \"\"hi\"\"\n") + 12;
  ASSERT_EQ(csv.substr(cut, 4), "bye\"");
  const std::string path =
      WriteTempFile("follow_quoted_newline.csv", csv.substr(0, cut));
  auto follower = TraceFollower::Open(path);
  ASSERT_TRUE(follower.ok());
  auto first = follower->Poll();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->total_jobs, 150u);  // stops before the open record
  auto idle = follower->Poll();
  ASSERT_TRUE(idle.ok()) << idle.status().ToString();
  EXPECT_EQ(idle->new_jobs, 0u);

  AppendToFile(path, csv.substr(cut));
  auto second = follower->Poll();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->new_jobs, full.size() - 150);
  auto report = follower->Report();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const StreamingReport one_shot = StreamAll(ViewOf(full));
  EXPECT_EQ(report->summary.bytes_moved, one_shot.summary.bytes_moved);
  ASSERT_EQ(report->names.words.size(), one_shot.names.words.size());
  for (size_t i = 0; i < report->names.words.size(); ++i) {
    EXPECT_EQ(report->names.words[i].word, one_shot.names.words[i].word);
  }
}

TEST(FollowTest, CsvShrinkIsAnError) {
  const trace::Trace full = GenerateWorkload("CC-b", 200);
  const std::string csv = trace::TraceToCsv(full);
  const std::string path = WriteTempFile("follow_csvshrink.csv", csv);
  auto follower = TraceFollower::Open(path);
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(follower->Poll().ok());
  WriteTempFile("follow_csvshrink.csv", csv.substr(0, csv.size() / 2));
  EXPECT_FALSE(follower->Poll().ok());
  EXPECT_EQ(follower->jobs_consumed(), 200u);
}

TEST(FollowTest, OutOfOrderCsvAppendIsAnError) {
  const trace::Trace full = GenerateWorkload("CC-b", 500);
  const std::string csv = trace::TraceToCsv(full);
  const std::string path = WriteTempFile("follow_ooo.csv", csv);
  auto follower = TraceFollower::Open(path);
  ASSERT_TRUE(follower.ok());
  ASSERT_TRUE(follower->Poll().ok());
  // Append a row whose submit time precedes the consumed stream.
  trace::Trace tail;
  tail.mutable_metadata() = full.metadata();
  trace::JobRecord early = full.jobs()[0];
  early.job_id = 999999;
  tail.AddJob(early);
  std::string tail_csv = trace::TraceToCsv(tail);
  // Keep only the data row (drop comments + header).
  const size_t header_end =
      tail_csv.find('\n', tail_csv.find("job_id,")) + 1;
  AppendToFile(path, tail_csv.substr(header_end));
  EXPECT_FALSE(follower->Poll().ok());
  EXPECT_EQ(follower->jobs_consumed(), 500u);
}

}  // namespace
}  // namespace swim::core

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/random.h"
#include "common/units.h"
#include "frameworks/workflow.h"
#include "gtest/gtest.h"
#include "sim/replay.h"
#include "sim/scheduler.h"
#include "trace/trace.h"

namespace swim::sim {
namespace {

trace::JobRecord SimpleJob(uint64_t id, double submit, int64_t maps,
                           double map_secs, int64_t reduces = 0,
                           double reduce_secs = 0.0, double bytes = 1e6) {
  trace::JobRecord job;
  job.job_id = id;
  job.submit_time = submit;
  job.duration = map_secs + reduce_secs;
  job.input_bytes = bytes;
  job.map_tasks = maps;
  job.map_task_seconds = map_secs;
  job.reduce_tasks = reduces;
  job.reduce_task_seconds = reduce_secs;
  if (reduces > 0) job.shuffle_bytes = bytes / 10;
  return job;
}

ReplayOptions SmallCluster(const std::string& scheduler = "fifo") {
  ReplayOptions options;
  options.cluster.nodes = 1;
  options.cluster.map_slots_per_node = 2;
  options.cluster.reduce_slots_per_node = 2;
  options.scheduler = scheduler;
  return options;
}

// --- Basic execution -------------------------------------------------------

TEST(ReplayTest, SingleJobRunsAtIdealLatency) {
  trace::Trace t;
  // 2 map tasks of 50s each on 2 map slots -> one wave of 50s, then one
  // reduce task of 30s.
  t.AddJob(SimpleJob(1, 0, 2, 100, 1, 30));
  auto result = ReplayTrace(t, SmallCluster());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->outcomes.size(), 1u);
  EXPECT_NEAR(result->outcomes[0].latency, 80.0, 0.01);
  EXPECT_NEAR(result->outcomes[0].ideal_latency, 80.0, 0.01);
  EXPECT_NEAR(result->outcomes[0].Slowdown(), 1.0, 0.01);
}

TEST(ReplayTest, MultipleWavesWhenSlotsScarce) {
  trace::Trace t;
  // 4 map tasks of 25s each on 2 slots -> two waves of 25s = 50s.
  t.AddJob(SimpleJob(1, 0, 4, 100));
  auto result = ReplayTrace(t, SmallCluster());
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->outcomes[0].latency, 50.0, 0.01);
  // Ideal (one wave) would be 25s.
  EXPECT_NEAR(result->outcomes[0].Slowdown(), 2.0, 0.01);
}

TEST(ReplayTest, ReducesWaitForMaps) {
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0, 1, 40, 1, 40));
  auto result = ReplayTrace(t, SmallCluster());
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->outcomes[0].latency, 80.0, 0.01);
}

TEST(ReplayTest, AllJobsComplete) {
  trace::Trace t;
  for (int i = 0; i < 50; ++i) {
    t.AddJob(SimpleJob(i + 1, i * 5.0, 1 + i % 3, 30.0 + i, i % 2, 10));
  }
  auto result = ReplayTrace(t, SmallCluster());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcomes.size(), 50u);
}

TEST(ReplayTest, DeterministicForSeed) {
  trace::Trace t;
  for (int i = 0; i < 30; ++i) {
    t.AddJob(SimpleJob(i + 1, i * 3.0, 2, 40, 1, 20));
  }
  ReplayOptions options = SmallCluster();
  options.straggler_probability = 0.2;
  auto a = ReplayTrace(t, options);
  auto b = ReplayTrace(t, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->outcomes.size(), b->outcomes.size());
  for (size_t i = 0; i < a->outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->outcomes[i].latency, b->outcomes[i].latency);
  }
}

// --- Occupancy conservation ---------------------------------------------------

TEST(ReplayTest, OccupancyIntegralEqualsTaskSeconds) {
  trace::Trace t;
  double total_task_seconds = 0;
  for (int i = 0; i < 20; ++i) {
    t.AddJob(SimpleJob(i + 1, i * 100.0, 2, 60, 1, 30));
    total_task_seconds += 90;
  }
  auto result = ReplayTrace(t, SmallCluster());
  ASSERT_TRUE(result.ok());
  double integral = 0;
  for (double o : result->hourly_occupancy) integral += o * 3600.0;
  EXPECT_NEAR(integral, total_task_seconds, 1.0);
}

TEST(ReplayTest, UtilizationBounded) {
  trace::Trace t;
  for (int i = 0; i < 100; ++i) t.AddJob(SimpleJob(i + 1, i * 1.0, 4, 200));
  auto result = ReplayTrace(t, SmallCluster());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->utilization, 0.0);
  EXPECT_LE(result->utilization, 1.0 + 1e-9);
}

// --- Task capping ---------------------------------------------------------------

TEST(ReplayTest, TaskCapPreservesTaskSeconds) {
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0, 100000, 5000.0));
  ReplayOptions options = SmallCluster();
  options.max_tasks_per_job = 10;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  // 10 merged tasks of 500s on 2 slots -> 5 waves of 500s = 2500s.
  EXPECT_NEAR(result->outcomes[0].latency, 2500.0, 0.1);
}

// Satellite regression: a zero ideal latency with nonzero observed latency
// used to report slowdown 0 (better-than-ideal), dragging MeanSlowdown
// *down* for the degenerate jobs it should flag. The convention is now
// +infinity for pure queueing on zero ideal work; only a genuinely free
// job (both zero) is slowdown 1.
TEST(ReplayTest, SlowdownConventionOnZeroIdeal) {
  JobOutcome outcome;
  outcome.ideal_latency = 40.0;
  outcome.latency = 80.0;
  EXPECT_DOUBLE_EQ(outcome.Slowdown(), 2.0);
  outcome.ideal_latency = 0.0;
  EXPECT_TRUE(std::isinf(outcome.Slowdown()));
  EXPECT_GT(outcome.Slowdown(), 0.0);
  outcome.latency = 0.0;
  EXPECT_DOUBLE_EQ(outcome.Slowdown(), 1.0);
}

// --- Scheduler comparisons --------------------------------------------------------

/// One huge job submitted just before many small jobs: the paper's
/// head-of-line-blocking scenario (section 6.2: "poor management of a
/// single large job potentially impacts performance for a large number of
/// small jobs").
trace::Trace HeadOfLineTrace() {
  trace::Trace t;
  trace::JobRecord huge = SimpleJob(1, 0, 40, 40 * 600.0, 0, 0, 1e13);
  t.AddJob(huge);
  for (int i = 0; i < 20; ++i) {
    t.AddJob(SimpleJob(2 + i, 1.0 + i, 1, 10, 0, 0, 1e6));
  }
  return t;
}

TEST(SchedulerTest, FifoBlocksSmallJobsBehindHuge) {
  auto fifo = ReplayTrace(HeadOfLineTrace(), SmallCluster("fifo"));
  auto fair = ReplayTrace(HeadOfLineTrace(), SmallCluster("fair"));
  ASSERT_TRUE(fifo.ok());
  ASSERT_TRUE(fair.ok());
  double fifo_small_p50 = fifo->LatencyQuantile(/*small_jobs=*/true, 0.5);
  double fair_small_p50 = fair->LatencyQuantile(/*small_jobs=*/true, 0.5);
  // Under FIFO the small jobs wait for the huge job's map waves.
  EXPECT_GT(fifo_small_p50, 10 * fair_small_p50);
}

TEST(SchedulerTest, TwoTierProtectsSmallJobs) {
  auto fifo = ReplayTrace(HeadOfLineTrace(), SmallCluster("fifo"));
  auto tiered = ReplayTrace(HeadOfLineTrace(), SmallCluster("two-tier"));
  ASSERT_TRUE(fifo.ok());
  ASSERT_TRUE(tiered.ok());
  EXPECT_LT(tiered->LatencyQuantile(true, 0.9),
            fifo->LatencyQuantile(true, 0.9) / 5);
  // The huge job still completes.
  EXPECT_EQ(tiered->CountJobs(false), 1u);
}

TEST(SchedulerTest, SrptLetsSmallJobsJumpTheQueue) {
  // SRPT needs no tier threshold: the small jobs' remaining work out-ranks
  // the elephant's the moment a slot frees, so they drain ahead of its
  // remaining waves.
  auto fifo = ReplayTrace(HeadOfLineTrace(), SmallCluster("fifo"));
  auto srpt = ReplayTrace(HeadOfLineTrace(), SmallCluster("srpt"));
  ASSERT_TRUE(fifo.ok());
  ASSERT_TRUE(srpt.ok());
  EXPECT_LT(srpt->LatencyQuantile(true, 0.5),
            fifo->LatencyQuantile(true, 0.5) / 10);
  // The elephant still completes.
  EXPECT_EQ(srpt->CountJobs(false), 1u);
  EXPECT_EQ(srpt->unfinished_jobs, 0u);
}

// Satellite regression: on a 1-slot pool the capacity tier's cap
// (share x slots = 0.7 truncated to 0) starved large jobs forever. The
// clamp guarantees the tier >= 1 slot, so the trace drains.
TEST(SchedulerTest, TwoTierDrainsLargeJobsOnOneSlotCluster) {
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0.0, 4, 400.0, 2, 100.0, 1e13));  // large job
  for (int i = 0; i < 3; ++i) {
    t.AddJob(SimpleJob(2 + i, 5.0 + i, 1, 10.0, 0, 0.0, 1e6));
  }
  ReplayOptions options;
  options.cluster.nodes = 1;
  options.cluster.map_slots_per_node = 1;
  options.cluster.reduce_slots_per_node = 1;
  options.scheduler = "two-tier";
  auto current = ReplayTrace(t, options);
  auto legacy = ReplayTraceLegacy(t, options);
  ASSERT_TRUE(current.ok());
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(current->outcomes.size(), 4u);
  EXPECT_EQ(current->unfinished_jobs, 0u);
  EXPECT_EQ(legacy->outcomes.size(), 4u);
  EXPECT_EQ(legacy->unfinished_jobs, 0u);
  EXPECT_EQ(current->makespan, legacy->makespan);
}

TEST(SchedulerTest, FactoryNames) {
  EXPECT_EQ(MakeScheduler("fifo").value()->name(), "FIFO");
  EXPECT_EQ(MakeScheduler("FAIR").value()->name(), "Fair");
  EXPECT_EQ(MakeScheduler("two-tier").value()->name(), "TwoTier");
  EXPECT_EQ(MakeScheduler("srpt").value()->name(), "SRPT");
  EXPECT_EQ(MakeScheduler("DeadLine").value()->name(), "Deadline");
}

// Satellite regression: unknown policy names were silently mapped to
// FIFO, so a typo'd sweep replayed every cell with the wrong policy.
// They must now be a hard error that names the valid policies.
TEST(SchedulerTest, FactoryRejectsUnknownPolicies) {
  for (const char* policy : {"unknown", "fare", "", "fifo2"}) {
    auto scheduler = MakeScheduler(policy);
    ASSERT_FALSE(scheduler.ok()) << policy;
    EXPECT_NE(scheduler.status().message().find("fifo, fair, two-tier"),
              std::string::npos)
        << scheduler.status().message();
  }
  // The engines surface the same error instead of replaying as FIFO.
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0.0, 2, 10));
  ReplayOptions options = SmallCluster();
  options.scheduler = "fare";
  EXPECT_FALSE(ReplayTrace(t, options).ok());
  EXPECT_FALSE(ReplayTraceLegacy(t, options).ok());
}

// --- Stragglers ---------------------------------------------------------------------

TEST(StragglerTest, InjectionIncreasesLatency) {
  trace::Trace t;
  for (int i = 0; i < 200; ++i) {
    t.AddJob(SimpleJob(i + 1, i * 50.0, 2, 60, 0, 0));
  }
  ReplayOptions clean = SmallCluster();
  ReplayOptions slow = SmallCluster();
  slow.straggler_probability = 0.5;
  slow.straggler_factor = 10.0;
  auto clean_result = ReplayTrace(t, clean);
  auto slow_result = ReplayTrace(t, slow);
  ASSERT_TRUE(clean_result.ok());
  ASSERT_TRUE(slow_result.ok());
  EXPECT_GT(slow_result->LatencyQuantile(true, 0.9),
            clean_result->LatencyQuantile(true, 0.9) * 2);
}

TEST(StragglerTest, SingleWaveJobsFullyExposed) {
  // A job with one map task hit by a straggler runs straggler_factor x
  // longer - the paper's point that few-task jobs cannot hide stragglers.
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0, 1, 100));
  ReplayOptions options = SmallCluster();
  options.straggler_probability = 1.0;
  options.straggler_factor = 5.0;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->outcomes[0].latency, 500.0, 0.1);
}

TEST(StragglerTest, SpeculationCapsMultiTaskJobs) {
  // 4 map tasks, all straggling 10x; with speculation the siblings expose
  // them and the penalty caps at 2x.
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0, 4, 400));  // 4 tasks x 100 s
  ReplayOptions options = SmallCluster();
  options.straggler_probability = 1.0;
  options.straggler_factor = 10.0;
  auto plain = ReplayTrace(t, options);
  options.speculative_execution = true;
  auto speculative = ReplayTrace(t, options);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(speculative.ok());
  // Plain: 2 waves x 1000 s; speculative: 2 waves x 200 s.
  EXPECT_NEAR(plain->outcomes[0].latency, 2000.0, 0.1);
  EXPECT_NEAR(speculative->outcomes[0].latency, 400.0, 0.1);
}

TEST(StragglerTest, SpeculationCannotHelpSingleTaskJobs) {
  // The paper's section 6.2 point: a single-task job has no sibling to
  // compare against, so speculation never triggers.
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0, 1, 100));
  ReplayOptions options = SmallCluster();
  options.straggler_probability = 1.0;
  options.straggler_factor = 10.0;
  options.speculative_execution = true;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->outcomes[0].latency, 1000.0, 0.1);  // full 10x
}

// --- Validation -----------------------------------------------------------------------

TEST(ReplayTest, RejectsBadInputs) {
  trace::Trace empty;
  EXPECT_FALSE(ReplayTrace(empty).ok());
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0, 1, 10));
  ReplayOptions options;
  options.cluster.nodes = 0;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
  options = {};
  options.max_tasks_per_job = 0;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
}

// --- Failure injection ------------------------------------------------------

trace::Trace FailureFleet(int jobs = 40) {
  trace::Trace t;
  for (int i = 1; i <= jobs; ++i) {
    t.AddJob(SimpleJob(static_cast<uint64_t>(i), 5.0 * i, 4, 120, 2, 40));
  }
  return t;
}

TEST(FailureTest, RejectsBadFailureOptions) {
  trace::Trace t = FailureFleet(1);
  ReplayOptions options;
  options.failures.task_failure_probability = 1.5;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
  options = {};
  options.failures.failure_point = 0.0;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
  options = {};
  options.failures.max_attempts = 0;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
  options = {};
  options.failures.node_loss_per_hour = -1;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
  options = {};
  options.failures.retry_backoff_seconds = -1;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
}

TEST(FailureTest, DisabledModelLeavesReplayUntouched) {
  // With both failure knobs at zero the failure RNG streams are never
  // consulted: results (incl. straggler draws) must equal a run with the
  // model's other knobs set to arbitrary values.
  trace::Trace t = FailureFleet();
  ReplayOptions plain = SmallCluster("fair");
  plain.straggler_probability = 0.1;
  ReplayOptions with_knobs = plain;
  with_knobs.failures.max_attempts = 2;
  with_knobs.failures.retry_backoff_seconds = 99;
  with_knobs.failures.failure_point = 0.9;
  auto a = ReplayTrace(t, plain);
  auto b = ReplayTrace(t, with_knobs);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->outcomes.size(), b->outcomes.size());
  for (size_t i = 0; i < a->outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->outcomes[i].latency, b->outcomes[i].latency);
    EXPECT_EQ(a->outcomes[i].retries, 0);
  }
  EXPECT_EQ(b->failures.task_failures, 0);
  EXPECT_EQ(b->failures.node_losses, 0);
  EXPECT_EQ(b->failures.retries, 0);
  EXPECT_DOUBLE_EQ(b->failures.failed_task_seconds, 0.0);
}

TEST(FailureTest, DeterministicForSeed) {
  trace::Trace t = FailureFleet();
  ReplayOptions options = SmallCluster("fair");
  options.straggler_probability = 0.05;
  options.failures.task_failure_probability = 0.1;
  options.failures.node_loss_per_hour = 2.0;
  options.seed = 77;
  auto a = ReplayTrace(t, options);
  auto b = ReplayTrace(t, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->outcomes.size(), b->outcomes.size());
  for (size_t i = 0; i < a->outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->outcomes[i].latency, b->outcomes[i].latency);
    EXPECT_EQ(a->outcomes[i].retries, b->outcomes[i].retries);
  }
  EXPECT_EQ(a->failures.task_failures, b->failures.task_failures);
  EXPECT_EQ(a->failures.node_losses, b->failures.node_losses);
  EXPECT_EQ(a->failures.tasks_lost_to_nodes, b->failures.tasks_lost_to_nodes);
  EXPECT_DOUBLE_EQ(a->failures.failed_task_seconds,
                   b->failures.failed_task_seconds);
  // A different seed must actually change the draw.
  options.seed = 78;
  auto c = ReplayTrace(t, options);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->failures.task_failures, c->failures.task_failures);
}

TEST(FailureTest, RetriesRecoverFailedTasks) {
  trace::Trace t = FailureFleet();
  ReplayOptions options = SmallCluster("fifo");
  options.failures.task_failure_probability = 0.2;
  options.failures.max_attempts = 8;  // generous budget: everything finishes
  options.failures.retry_backoff_seconds = 1.0;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcomes.size(), 40u);
  EXPECT_EQ(result->unfinished_jobs, 0u);
  EXPECT_GT(result->failures.task_failures, 0);
  // Every failed attempt was eventually re-executed.
  EXPECT_EQ(result->failures.retries, result->failures.task_failures);
  EXPECT_GT(result->failures.failed_task_seconds, 0.0);
  int64_t outcome_retries = 0;
  for (const auto& o : result->outcomes) outcome_retries += o.retries;
  EXPECT_EQ(outcome_retries, result->failures.retries);
}

TEST(FailureTest, CertainFailureKillsEveryJob) {
  trace::Trace t = FailureFleet();
  ReplayOptions options = SmallCluster("fifo");
  options.failures.task_failure_probability = 1.0;
  options.failures.max_attempts = 2;
  options.failures.retry_backoff_seconds = 0.0;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->outcomes.empty());
  EXPECT_EQ(result->failures.failed_jobs, 40);
  EXPECT_EQ(result->unfinished_jobs, 40u);
  EXPECT_GT(result->failures.failed_task_seconds, 0.0);
  // Wasted time never exceeds what the attempt budget allows.
  EXPECT_GT(result->failures.task_failures, 0);
}

TEST(FailureTest, FailuresSlowJobsDown) {
  trace::Trace t = FailureFleet();
  ReplayOptions clean = SmallCluster("fair");
  ReplayOptions faulty = clean;
  faulty.failures.task_failure_probability = 0.25;
  faulty.failures.max_attempts = 10;
  auto a = ReplayTrace(t, clean);
  auto b = ReplayTrace(t, faulty);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(b->outcomes.size(), 40u);
  EXPECT_GT(b->MeanSlowdown(true), a->MeanSlowdown(true));
}

TEST(FailureTest, NodeLossKillsRunningTasks) {
  trace::Trace t = FailureFleet();
  ReplayOptions options = SmallCluster("fifo");
  options.failures.node_loss_per_hour = 30.0;  // aggressive: ~1 per 2 min
  options.failures.max_attempts = 10;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->failures.node_losses, 0);
  EXPECT_GT(result->failures.tasks_lost_to_nodes, 0);
  EXPECT_GT(result->failures.failed_task_seconds, 0.0);
  EXPECT_EQ(result->failures.task_failures, 0);  // only node kills active
  // Generous attempt budget: the work still completes.
  EXPECT_EQ(result->outcomes.size(), 40u);
}

TEST(FailureTest, ComposesWithStragglersAndSpeculation) {
  trace::Trace t = FailureFleet();
  ReplayOptions options = SmallCluster("two-tier");
  options.straggler_probability = 0.1;
  options.speculative_execution = true;
  options.failures.task_failure_probability = 0.1;
  options.failures.node_loss_per_hour = 5.0;
  options.failures.max_attempts = 12;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcomes.size(), 40u);
  EXPECT_GT(result->failures.task_failures, 0);
  EXPECT_GT(result->failures.retries, 0);
  auto again = ReplayTrace(t, options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(result->failures.retries, again->failures.retries);
}

// --- Occupancy gap jumping --------------------------------------------------

TEST(OccupancyTest, WeekLongIdleGapReplaysFast) {
  // Regression for the retired hour-by-hour Advance loop: two short jobs a
  // week apart used to cost one bucket iteration per idle hour. The
  // gap-jumping meter must fill the same buckets (zeros in between, same
  // vector length) in O(boundary hours), which shows up as wall time.
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0.0, 2, 100));
  t.AddJob(SimpleJob(2, 7.0 * 86400.0, 2, 100));
  auto start = std::chrono::steady_clock::now();
  auto result = ReplayTrace(t, SmallCluster());
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcomes.size(), 2u);
  // 7 days = 168 hours; the second job finishes 50s into hour 168.
  ASSERT_EQ(result->hourly_occupancy.size(), 169u);
  double integral = 0.0;
  for (double o : result->hourly_occupancy) integral += o * 3600.0;
  EXPECT_NEAR(integral, 200.0, 1e-6);  // 2x100s maps per job, 2 jobs
  for (size_t h = 1; h < 168; ++h) {
    EXPECT_EQ(result->hourly_occupancy[h], 0.0) << "hour " << h;
  }
  // Generous bound (debug/sanitizer builds): the retired loop took
  // millions of iterations; the jump takes thousands of x fewer.
  EXPECT_LT(elapsed, 0.5);
}

TEST(OccupancyTest, MultiYearGapStillExact) {
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0.0, 1, 60));
  t.AddJob(SimpleJob(2, 3.0 * 365.0 * 86400.0, 1, 60));
  auto result = ReplayTrace(t, SmallCluster());
  ASSERT_TRUE(result.ok());
  double integral = 0.0;
  for (double o : result->hourly_occupancy) integral += o * 3600.0;
  EXPECT_NEAR(integral, 120.0, 1e-6);
  EXPECT_EQ(result->hourly_occupancy.size(), 26281u);  // 3*365*24 + 1
}

// --- Scheduler tie-breaking -------------------------------------------------

TEST(SchedulerTieBreakTest, EqualJobsResolveBySubmitThenIndex) {
  // Six jobs equal on every policy key, in submit order with runs of
  // equal submit times, as ReplayTemplate::Build lays them out. Every
  // policy, given any runnable subset as an index-ascending list (the
  // PickJob contract), must pick the (earliest submit, lowest index) job,
  // computed here by brute force.
  const std::vector<double> submits = {50.0, 50.0, 100.0, 100.0, 100.0, 200.0};
  std::vector<SimJob> jobs(submits.size());
  std::vector<trace::JobRecord> records(submits.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    records[i] = SimpleJob(i + 1, submits[i], 4, 40);
    jobs[i].record = &records[i];
    jobs[i].submit_time = submits[i];
    jobs[i].maps_total = 4;
    jobs[i].map_task_duration = 10.0;
    jobs[i].deadline = 1000.0;
    jobs[i].is_small = true;
  }
  SchedulerContext context;
  for (const char* policy : {"fifo", "fair", "two-tier", "srpt", "deadline"}) {
    auto scheduler = MakeScheduler(policy).value();
    for (uint32_t mask = 1; mask < (1u << jobs.size()); ++mask) {
      std::vector<size_t> runnable;
      size_t expected = jobs.size();
      for (size_t i = 0; i < jobs.size(); ++i) {
        if ((mask & (1u << i)) == 0) continue;
        runnable.push_back(i);
        if (expected == jobs.size() ||
            submits[i] < submits[expected] ||
            (submits[i] == submits[expected] && i < expected)) {
          expected = i;
        }
      }
      EXPECT_EQ(scheduler->PickJob(jobs, runnable, TaskKind::kMap, 8,
                                   context),
                static_cast<int>(expected))
          << policy << " mask " << mask;
    }
  }
}

TEST(SchedulerTieBreakTest, FairTieOnSlotCountsPinsToSubmitThenIndex) {
  std::vector<SimJob> jobs(3);
  std::vector<trace::JobRecord> records(3);
  for (size_t i = 0; i < jobs.size(); ++i) {
    records[i] = SimpleJob(i + 1, 10.0, 4, 40);
    jobs[i].record = &records[i];
    jobs[i].submit_time = 10.0;
    jobs[i].maps_total = 4;
  }
  jobs[0].maps_launched = 2;  // holds more slots: loses despite index 0
  FairScheduler fair;
  SchedulerContext context;
  for (const std::vector<size_t>& runnable :
       {std::vector<size_t>{0, 1, 2}, std::vector<size_t>{1, 2}}) {
    EXPECT_EQ(fair.PickJob(jobs, runnable, TaskKind::kMap, 8, context), 1);
  }
  EXPECT_EQ(fair.PickJob(jobs, std::vector<size_t>{0, 2}, TaskKind::kMap, 8,
                         context),
            2);
}

TEST(SchedulerTieBreakTest, SrptPicksLeastRemainingWorkUnderPermutation) {
  std::vector<SimJob> jobs(4);
  std::vector<trace::JobRecord> records(4);
  for (size_t i = 0; i < jobs.size(); ++i) {
    records[i] = SimpleJob(i + 1, 10.0 * static_cast<double>(i), 4, 40);
    jobs[i].record = &records[i];
    jobs[i].submit_time = records[i].submit_time;
    jobs[i].maps_total = 4;
    // Remaining work 400, 320, 240, 160: the latest submit has the least.
    jobs[i].map_task_duration = 100.0 - 20.0 * static_cast<double>(i);
  }
  SrptScheduler srpt;
  SchedulerContext context;
  const std::vector<std::vector<size_t>> permutations = {
      {0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}};
  for (const auto& runnable : permutations) {
    // FIFO would pick 0; SRPT must pick 3 regardless of list order.
    EXPECT_EQ(srpt.PickJob(jobs, runnable, TaskKind::kMap, 8, context), 3);
  }
  // Finishing most of job 0's wave shrinks its key below everyone's: the
  // priority is *remaining* work, not total size.
  jobs[0].maps_finished = 3;  // remaining 1 x 100 = 100 < job 3's 160
  for (const auto& runnable : permutations) {
    EXPECT_EQ(srpt.PickJob(jobs, runnable, TaskKind::kMap, 8, context), 0);
  }
}

TEST(SchedulerTieBreakTest, DeadlineRanksEdfAndEscalatesOverdue) {
  std::vector<SimJob> jobs(4);
  std::vector<trace::JobRecord> records(4);
  for (size_t i = 0; i < jobs.size(); ++i) {
    records[i] = SimpleJob(i + 1, 0.0, 4, 40);
    jobs[i].record = &records[i];
    jobs[i].submit_time = 0.0;
    jobs[i].maps_total = 4;
    jobs[i].map_task_duration = 10.0;
  }
  jobs[0].deadline = -1.0;  // no deadline: ranks last
  jobs[1].deadline = 500.0;
  jobs[2].deadline = 300.0;
  jobs[3].deadline = 400.0;
  jobs[2].map_task_duration = 50.0;  // most remaining work
  DeadlineScheduler edf;
  SchedulerContext context;
  const std::vector<std::vector<size_t>> permutations = {
      {0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}};
  // Nothing overdue yet: earliest deadline (job 2) wins.
  context.now = 100.0;
  for (const auto& runnable : permutations) {
    EXPECT_EQ(edf.PickJob(jobs, runnable, TaskKind::kMap, 8, context), 2);
  }
  // Jobs 2 and 3 are now overdue. Escalation ranks the overdue pool by
  // least remaining work - job 3 (40s) beats job 2 (200s) even though
  // job 2's deadline is earlier - and outranks the on-time job 1.
  context.now = 450.0;
  for (const auto& runnable : permutations) {
    EXPECT_EQ(edf.PickJob(jobs, runnable, TaskKind::kMap, 8, context), 3);
  }
  // With every deadline passed, the no-deadline job still ranks last.
  context.now = 600.0;
  for (const std::vector<size_t>& runnable :
       {std::vector<size_t>{0, 1}, std::vector<size_t>{1, 0}}) {
    EXPECT_EQ(edf.PickJob(jobs, runnable, TaskKind::kMap, 8, context), 1);
  }
}

// --- Engine vs captured baseline -------------------------------------------

// The ReplayTrace engine against ReplayTraceLegacy - the pre-rebuild
// engine kept verbatim in replay_legacy.cc as the captured baseline. The
// ISSUE's acceptance bar: bit-identical ReplayResults on FB-2010-style
// traces for every policy, with and without failure injection.

trace::Trace Fb2010Style(size_t jobs, uint64_t seed) {
  // The paper's FB-2010 shape in miniature: >90% small jobs (a few short
  // tasks), a heavy tail of large multi-wave jobs, bursty submits.
  trace::Trace t;
  Pcg32 rng(seed, /*stream=*/0xfb10);
  double submit = 0.0;
  for (size_t i = 0; i < jobs; ++i) {
    submit += rng.NextExponential(1.0 / 20.0);  // ~20s mean interarrival
    if (rng.NextBernoulli(0.92)) {
      int64_t maps = rng.NextInt(1, 4);
      t.AddJob(SimpleJob(i + 1, submit, maps,
                         static_cast<double>(maps) * rng.NextDouble(5, 60),
                         rng.NextBernoulli(0.3) ? 1 : 0, 15.0, 1e6));
    } else {
      int64_t maps = rng.NextInt(50, 400);
      int64_t reduces = rng.NextInt(5, 40);
      t.AddJob(SimpleJob(
          i + 1, submit, maps,
          static_cast<double>(maps) * rng.NextDouble(30, 300), reduces,
          static_cast<double>(reduces) * rng.NextDouble(20, 120), 5e12));
    }
  }
  return t;
}

/// A trace assembled out of submit order with long runs of equal submit
/// times: each job lands on a random whole minute, and jobs are added in
/// generation order, so Trace::jobs() must sort them and equal submits
/// keep their insertion order. About ten jobs share each minute; 90% are
/// small, 10% are multi-wave elephants with reduces.
trace::Trace TiedSubmitTrace(size_t jobs, uint64_t seed) {
  trace::Trace t;
  Pcg32 rng(seed, /*stream=*/0x71e5);
  const int64_t minutes = static_cast<int64_t>(jobs / 10);
  for (size_t i = 0; i < jobs; ++i) {
    const double submit = 60.0 * static_cast<double>(rng.NextInt(0, minutes));
    if (rng.NextBernoulli(0.9)) {
      int64_t maps = rng.NextInt(1, 4);
      t.AddJob(SimpleJob(i + 1, submit, maps,
                         static_cast<double>(maps) * rng.NextDouble(10, 60),
                         rng.NextBernoulli(0.3) ? 1 : 0, 20.0, 1e6));
    } else {
      int64_t maps = rng.NextInt(40, 200);
      int64_t reduces = rng.NextInt(2, 20);
      t.AddJob(SimpleJob(
          i + 1, submit, maps,
          static_cast<double>(maps) * rng.NextDouble(60, 300), reduces,
          static_cast<double>(reduces) * rng.NextDouble(30, 120), 5e12));
    }
  }
  return t;
}

/// Most jobs arrived and not yet finished at any one time, from the
/// outcomes: an upper bound on the runnable lists' length and, on a
/// saturated cluster where queued jobs wait for their first slot, close
/// to it.
size_t PeakJobsInSystem(const ReplayResult& result) {
  std::vector<std::pair<double, int>> edges;
  for (const JobOutcome& o : result.outcomes) {
    edges.emplace_back(o.submit_time, 1);
    edges.emplace_back(o.submit_time + o.latency, -1);
  }
  std::sort(edges.begin(), edges.end());  // a finish sorts before a submit
  size_t peak = 0;
  int64_t in_system = 0;
  for (const auto& edge : edges) {
    in_system += edge.second;
    peak = std::max(peak, static_cast<size_t>(in_system));
  }
  return peak;
}

void ExpectBitIdentical(const ReplayResult& a, const ReplayResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << what;
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    ASSERT_EQ(a.outcomes[i].job_id, b.outcomes[i].job_id)
        << what << " outcome " << i;
    ASSERT_EQ(a.outcomes[i].latency, b.outcomes[i].latency)
        << what << " outcome " << i;
    ASSERT_EQ(a.outcomes[i].ideal_latency, b.outcomes[i].ideal_latency)
        << what << " outcome " << i;
    ASSERT_EQ(a.outcomes[i].retries, b.outcomes[i].retries)
        << what << " outcome " << i;
    ASSERT_EQ(a.outcomes[i].is_small, b.outcomes[i].is_small)
        << what << " outcome " << i;
    ASSERT_EQ(a.outcomes[i].deadline, b.outcomes[i].deadline)
        << what << " outcome " << i;
    ASSERT_EQ(a.outcomes[i].missed_sla, b.outcomes[i].missed_sla)
        << what << " outcome " << i;
    ASSERT_EQ(a.outcomes[i].tenant, b.outcomes[i].tenant)
        << what << " outcome " << i;
    ASSERT_EQ(a.outcomes[i].preempted_tasks, b.outcomes[i].preempted_tasks)
        << what << " outcome " << i;
    ASSERT_EQ(a.outcomes[i].admission_delay, b.outcomes[i].admission_delay)
        << what << " outcome " << i;
  }
  EXPECT_EQ(a.scheduler, b.scheduler) << what;
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.utilization, b.utilization) << what;
  EXPECT_EQ(a.hourly_occupancy, b.hourly_occupancy) << what;
  EXPECT_EQ(a.unfinished_jobs, b.unfinished_jobs) << what;
  EXPECT_EQ(a.failures.task_failures, b.failures.task_failures) << what;
  EXPECT_EQ(a.failures.node_losses, b.failures.node_losses) << what;
  EXPECT_EQ(a.failures.tasks_lost_to_nodes, b.failures.tasks_lost_to_nodes)
      << what;
  EXPECT_EQ(a.failures.retries, b.failures.retries) << what;
  EXPECT_EQ(a.failures.failed_jobs, b.failures.failed_jobs) << what;
  EXPECT_EQ(a.failures.failed_task_seconds, b.failures.failed_task_seconds)
      << what;
  EXPECT_EQ(a.sla.small_jobs_with_deadline, b.sla.small_jobs_with_deadline)
      << what;
  EXPECT_EQ(a.sla.large_jobs_with_deadline, b.sla.large_jobs_with_deadline)
      << what;
  EXPECT_EQ(a.sla.small_misses, b.sla.small_misses) << what;
  EXPECT_EQ(a.sla.large_misses, b.sla.large_misses) << what;
  EXPECT_EQ(a.sla.preemption_rounds, b.sla.preemption_rounds) << what;
  EXPECT_EQ(a.sla.preempted_tasks, b.sla.preempted_tasks) << what;
  EXPECT_EQ(a.sla.admission_parked_jobs, b.sla.admission_parked_jobs) << what;
  EXPECT_EQ(a.sla.total_admission_delay, b.sla.total_admission_delay) << what;
  ASSERT_EQ(a.sla.tenants.size(), b.sla.tenants.size()) << what;
  for (size_t i = 0; i < a.sla.tenants.size(); ++i) {
    EXPECT_EQ(a.sla.tenants[i].tenant, b.sla.tenants[i].tenant) << what;
    EXPECT_EQ(a.sla.tenants[i].jobs, b.sla.tenants[i].jobs) << what;
    EXPECT_EQ(a.sla.tenants[i].parked_jobs, b.sla.tenants[i].parked_jobs)
        << what;
    EXPECT_EQ(a.sla.tenants[i].total_admission_delay,
              b.sla.tenants[i].total_admission_delay)
        << what;
    EXPECT_EQ(a.sla.tenants[i].max_admission_delay,
              b.sla.tenants[i].max_admission_delay)
        << what;
  }
}

/// XXH64 over a canonical serialization of every ReplayResult field, in
/// declaration order: integers widened to 64 bits, doubles and flags by
/// their bytes (little-endian hosts), strings and vectors length-prefixed.
/// Replays the legacy engine cannot run (preemption) are pinned to these
/// digests instead of an oracle.
uint64_t ResultDigest(const ReplayResult& r) {
  std::string bytes;
  auto put = [&bytes](auto value) {
    char raw[sizeof(value)];
    std::memcpy(raw, &value, sizeof(value));
    bytes.append(raw, sizeof(value));
  };
  auto put_int = [&put](int64_t value) { put(value); };
  put_int(static_cast<int64_t>(r.scheduler.size()));
  bytes += r.scheduler;
  put_int(static_cast<int64_t>(r.outcomes.size()));
  for (const JobOutcome& o : r.outcomes) {
    put_int(static_cast<int64_t>(o.job_id));
    put(o.submit_time);
    put(o.latency);
    put(o.ideal_latency);
    put(static_cast<uint8_t>(o.is_small));
    put_int(o.retries);
    put(o.deadline);
    put(static_cast<uint8_t>(o.missed_sla));
    put_int(o.tenant);
    put_int(o.preempted_tasks);
    put(o.admission_delay);
  }
  put_int(static_cast<int64_t>(r.unfinished_jobs));
  put_int(r.failures.task_failures);
  put_int(r.failures.node_losses);
  put_int(r.failures.tasks_lost_to_nodes);
  put_int(r.failures.retries);
  put_int(r.failures.failed_jobs);
  put(r.failures.failed_task_seconds);
  put_int(r.sla.small_jobs_with_deadline);
  put_int(r.sla.large_jobs_with_deadline);
  put_int(r.sla.small_misses);
  put_int(r.sla.large_misses);
  put_int(r.sla.preemption_rounds);
  put_int(r.sla.preempted_tasks);
  put_int(r.sla.admission_parked_jobs);
  put(r.sla.total_admission_delay);
  put_int(static_cast<int64_t>(r.sla.tenants.size()));
  for (const TenantStats& tenant : r.sla.tenants) {
    put_int(tenant.tenant);
    put_int(tenant.jobs);
    put_int(tenant.parked_jobs);
    put(tenant.total_admission_delay);
    put(tenant.max_admission_delay);
  }
  put_int(static_cast<int64_t>(r.hourly_occupancy.size()));
  for (double occupancy : r.hourly_occupancy) put(occupancy);
  put(r.makespan);
  put(r.utilization);
  return Checksum64(bytes.data(), bytes.size());
}

TEST(EngineBaselineTest, BitIdenticalToLegacyAcrossPoliciesPlain) {
  trace::Trace t = Fb2010Style(600, 2010);
  for (const char* policy : {"fifo", "fair", "two-tier", "srpt", "deadline"}) {
    ReplayOptions options;
    options.cluster.nodes = 30;
    options.scheduler = policy;
    auto current = ReplayTrace(t, options);
    auto legacy = ReplayTraceLegacy(t, options);
    ASSERT_TRUE(current.ok());
    ASSERT_TRUE(legacy.ok());
    ExpectBitIdentical(*current, *legacy, policy);
  }
}

TEST(EngineBaselineTest, BitIdenticalToLegacyWithStragglersAndFailures) {
  trace::Trace t = Fb2010Style(400, 417);
  for (const char* policy : {"fifo", "fair", "two-tier", "srpt", "deadline"}) {
    ReplayOptions options;
    options.cluster.nodes = 20;
    options.scheduler = policy;
    options.straggler_probability = 0.1;
    options.straggler_factor = 6.0;
    options.speculative_execution = true;
    options.failures.task_failure_probability = 0.08;
    options.failures.node_loss_per_hour = 2.0;
    options.failures.max_attempts = 3;
    options.failures.retry_backoff_seconds = 20.0;
    auto current = ReplayTrace(t, options);
    auto legacy = ReplayTraceLegacy(t, options);
    ASSERT_TRUE(current.ok());
    ASSERT_TRUE(legacy.ok());
    ExpectBitIdentical(*current, *legacy, policy);
  }
}

TEST(EngineBaselineTest, BitIdenticalToLegacyWithDependencies) {
  trace::Trace t = Fb2010Style(200, 88);
  ReplayOptions options;
  options.cluster.nodes = 10;
  options.scheduler = "fair";
  // Chain every fifth job onto the previous multiple of five.
  for (uint64_t id = 6; id <= 200; id += 5) {
    options.dependencies[id] = {id - 5};
  }
  auto current = ReplayTrace(t, options);
  auto legacy = ReplayTraceLegacy(t, options);
  ASSERT_TRUE(current.ok());
  ASSERT_TRUE(legacy.ok());
  ExpectBitIdentical(*current, *legacy, "fair+deps");
}

TEST(EngineBaselineTest, BitIdenticalOnSaturatedTinyCluster) {
  // Deep backlog: every slot contested, the grant loop's batch fairness
  // and tie-breaking fully exercised.
  trace::Trace t = Fb2010Style(300, 7);
  ReplayOptions options;
  options.cluster.nodes = 1;
  options.cluster.map_slots_per_node = 3;
  options.cluster.reduce_slots_per_node = 2;
  for (const char* policy : {"fifo", "fair", "two-tier", "srpt", "deadline"}) {
    options.scheduler = policy;
    auto current = ReplayTrace(t, options);
    auto legacy = ReplayTraceLegacy(t, options);
    ASSERT_TRUE(current.ok());
    ASSERT_TRUE(legacy.ok());
    ExpectBitIdentical(*current, *legacy, policy);
  }
}

TEST(EngineBaselineTest, BitIdenticalToLegacyWithAdmissionControl) {
  // Admission (parked jobs, tenant tokens, SLA accounting) is implemented
  // separately in both engines; the oracle contract must hold with it on,
  // including under failure injection.
  trace::Trace t = Fb2010Style(300, 53);
  ReplayOptions options;
  options.cluster.nodes = 10;
  options.sla.tenants = 4;
  options.sla.tenant_max_running = 2;
  options.failures.task_failure_probability = 0.05;
  options.failures.node_loss_per_hour = 1.0;
  for (const char* policy : {"fifo", "srpt", "deadline"}) {
    options.scheduler = policy;
    auto current = ReplayTrace(t, options);
    auto legacy = ReplayTraceLegacy(t, options);
    ASSERT_TRUE(current.ok());
    ASSERT_TRUE(legacy.ok());
    ExpectBitIdentical(*current, *legacy, std::string(policy) + "+admission");
  }
}

TEST(EngineBaselineTest, ArrivalAtCompletionTimePopsFirst) {
  // Integer times on a tight cluster: job 2 is submitted at exactly t=10,
  // when job 1's first map wave completes, and the integer tail keeps
  // submissions landing on wave completions. The legacy engine queued
  // every arrival up front with a lower seq than any task event, so the
  // arrival pops first and job 2 competes for the slots that wave frees.
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0.0, 4, 40.0, 1, 10.0, 5e12));
  t.AddJob(SimpleJob(2, 10.0, 1, 10.0));
  Pcg32 rng(15, /*stream=*/0x7e);
  for (uint64_t id = 3; id <= 60; ++id) {
    const int64_t maps = rng.NextInt(1, 6);
    const int64_t reduces = rng.NextInt(0, 2);
    t.AddJob(SimpleJob(id, 10.0 * static_cast<double>(id / 2), maps,
                       10.0 * static_cast<double>(maps * rng.NextInt(1, 2)),
                       reduces, 10.0 * static_cast<double>(reduces),
                       rng.NextBernoulli(0.3) ? 5e12 : 1e6));
  }
  for (const char* policy : {"fifo", "fair", "two-tier", "srpt", "deadline"}) {
    ReplayOptions options = SmallCluster(policy);
    options.cluster.reduce_slots_per_node = 1;
    auto current = ReplayTrace(t, options);
    auto legacy = ReplayTraceLegacy(t, options);
    ASSERT_TRUE(current.ok());
    ASSERT_TRUE(legacy.ok());
    ExpectBitIdentical(*current, *legacy, policy);
  }
}

TEST(EngineBaselineTest, NodeLossKeepsFiringThroughIdleGap) {
  // Two bursts two days apart: every task of the first burst finishes
  // long before the second is submitted, so node losses fire while
  // nothing is in flight and only arrivals remain. They must keep
  // rescheduling through the gap, as they did when arrivals sat in the
  // event queue.
  trace::Trace t;
  for (uint64_t id = 1; id <= 20; ++id) {
    const double burst = id <= 10 ? 0.0 : 2.0 * 86400.0;
    t.AddJob(SimpleJob(id, burst + 30.0 * static_cast<double>(id), 6, 600.0,
                       2, 120.0));
  }
  for (const char* policy : {"fifo", "fair", "two-tier", "srpt", "deadline"}) {
    ReplayOptions options = SmallCluster(policy);
    options.failures.node_loss_per_hour = 1.0;
    options.failures.max_attempts = 10;
    auto current = ReplayTrace(t, options);
    auto legacy = ReplayTraceLegacy(t, options);
    ASSERT_TRUE(current.ok());
    ASSERT_TRUE(legacy.ok());
    EXPECT_GT(current->failures.node_losses, 24) << policy;
    ExpectBitIdentical(*current, *legacy, std::string(policy) + "+gap");
  }
}

TEST(EngineBaselineTest, OutOfOrderTraceReplaysInSubmitOrder) {
  // Workflow traces are built with AddJob at random submit times, and
  // background jobs are then appended in reverse submit order, so the
  // trace is assembled unsorted. The arrival cursor walks jobs() as a
  // time-ordered stream; it must replay exactly what the legacy engine's
  // single priority queue orders, dependencies and failures included.
  frameworks::WorkflowGeneratorOptions generator;
  generator.workflows = 40;
  generator.span_seconds = 4 * 3600.0;
  generator.seed = 23;
  auto workflows = frameworks::GenerateWorkflowTrace(generator);
  ASSERT_TRUE(workflows.ok());
  trace::Trace t = workflows->trace;
  Pcg32 rng(29, /*stream=*/0xb9);
  for (uint64_t k = 0; k < 60; ++k) {
    const int64_t maps = rng.NextInt(1, 40);
    t.AddJob(SimpleJob(100000 + k, 4 * 3600.0 - 240.0 * static_cast<double>(k),
                       maps, static_cast<double>(maps) * 30.0,
                       rng.NextInt(0, 3), 60.0,
                       rng.NextBernoulli(0.5) ? 5e12 : 1e6));
  }
  for (const char* policy : {"fifo", "fair", "two-tier", "srpt", "deadline"}) {
    ReplayOptions options;
    options.cluster.nodes = 4;
    options.scheduler = policy;
    options.dependencies = workflows->dependencies;
    options.failures.task_failure_probability = 0.05;
    options.failures.node_loss_per_hour = 1.0;
    options.failures.max_attempts = 4;
    auto current = ReplayTrace(t, options);
    auto legacy = ReplayTraceLegacy(t, options);
    ASSERT_TRUE(current.ok());
    ASSERT_TRUE(legacy.ok());
    ExpectBitIdentical(*current, *legacy, std::string(policy) + "+unsorted");
  }
}

TEST(EngineBaselineTest, SaturatedTiedSubmitsBitIdenticalToLegacy) {
  // Hundreds of queued jobs, runs of equal submit times and a trace built
  // out of order: every policy's tie-break among many equal candidates is
  // exercised, and the engine's index-ordered runnable lists must pick
  // exactly what the legacy engine's arrival-ordered rescan picks.
  trace::Trace t = TiedSubmitTrace(1200, 41);
  for (const char* policy : {"fifo", "fair", "two-tier", "srpt", "deadline"}) {
    ReplayOptions options;
    options.cluster.nodes = 1;
    options.scheduler = policy;
    auto current = ReplayTrace(t, options);
    auto legacy = ReplayTraceLegacy(t, options);
    ASSERT_TRUE(current.ok());
    ASSERT_TRUE(legacy.ok());
    EXPECT_EQ(current->unfinished_jobs, 0u) << policy;
    EXPECT_GE(PeakJobsInSystem(*current), 300u) << policy;
    ExpectBitIdentical(*current, *legacy, std::string(policy) + "+ties");
  }
}

// --- SLA tier: deadlines, preemption, admission control --------------------

TEST(SlaTest, RejectsBadSlaOptions) {
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0.0, 1, 10));
  ReplayOptions options;
  options.sla.small_multiplier = 0.0;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
  EXPECT_FALSE(ReplayTraceLegacy(t, options).ok());
  options = {};
  options.sla.large_multiplier = -3.0;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
  options = {};
  options.sla.preemption_budget = -1;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
  options = {};
  options.sla.tenants = -2;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
  options = {};
  options.sla.tenants = 2;
  options.sla.tenant_max_running = 0;
  EXPECT_FALSE(ReplayTrace(t, options).ok());
}

TEST(SlaTest, LegacyEngineRejectsPreemption) {
  // The frozen oracle predates preemption and must refuse rather than
  // silently diverge from ReplayTrace.
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0.0, 1, 10));
  ReplayOptions options = SmallCluster("fifo");
  options.sla.preemption_budget = 5;
  EXPECT_FALSE(ReplayTraceLegacy(t, options).ok());
  EXPECT_TRUE(ReplayTrace(t, options).ok());
}

TEST(SlaTest, DeadlinesPopulatedAndMissesCounted) {
  // Every job gets deadline = submit + ideal x multiplier; under FIFO the
  // head-of-line elephant makes the small jobs blow theirs. The small
  // multiplier is widened to ~2 elephant waves so EDF - which cannot
  // preempt the first wave on a 2-slot cluster - can still meet it.
  ReplayOptions options = SmallCluster("fifo");
  options.sla.small_multiplier = 100.0;
  auto fifo = ReplayTrace(HeadOfLineTrace(), options);
  options.scheduler = "deadline";
  auto edf = ReplayTrace(HeadOfLineTrace(), options);
  ASSERT_TRUE(fifo.ok());
  ASSERT_TRUE(edf.ok());
  EXPECT_EQ(fifo->sla.small_jobs_with_deadline, 20);
  EXPECT_EQ(fifo->sla.large_jobs_with_deadline, 1);
  for (const auto& outcome : fifo->outcomes) {
    EXPECT_GE(outcome.deadline, 0.0);
    EXPECT_EQ(outcome.missed_sla,
              outcome.submit_time + outcome.latency > outcome.deadline);
  }
  EXPECT_GT(fifo->sla.small_misses, 0);
  EXPECT_GT(fifo->sla.MissFraction(true), 0.5);
  // Deadline scheduling rescues the small-job mass.
  EXPECT_LT(edf->sla.small_misses, fifo->sla.small_misses);
}

TEST(SlaTest, KilledJobsCountAsSlaMisses) {
  // A job that exhausts its attempts never finishes - that is the worst
  // possible SLA outcome and must be a miss, not a hole in the count.
  trace::Trace t = FailureFleet();
  ReplayOptions options = SmallCluster("fifo");
  options.failures.task_failure_probability = 1.0;
  options.failures.max_attempts = 2;
  options.failures.retry_backoff_seconds = 0.0;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->failures.failed_jobs, 40);
  EXPECT_EQ(result->sla.small_jobs_with_deadline, 40);
  EXPECT_EQ(result->sla.small_misses, 40);
  EXPECT_DOUBLE_EQ(result->sla.MissFraction(true), 1.0);
}

TEST(SlaTest, PreemptionRescuesInteractiveJobsUnderElephant) {
  trace::Trace t = HeadOfLineTrace();
  ReplayOptions plain = SmallCluster("fifo");
  ReplayOptions preempt = plain;
  preempt.sla.preemption_budget = 200;
  auto a = ReplayTrace(t, plain);
  auto b = ReplayTrace(t, preempt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Revoked elephant tasks hand their slots to the small jobs. (Rescue is
  // wave-quantized: revocation pauses while phantom completion events of
  // already-revoked tasks are in flight, so small jobs wait at most ~one
  // elephant task duration instead of the full 20-wave backlog.)
  EXPECT_GT(b->sla.preempted_tasks, 0);
  EXPECT_GT(b->sla.preemption_rounds, 0);
  EXPECT_LT(b->LatencyQuantile(true, 0.9), a->LatencyQuantile(true, 0.9) / 4);
  // ...and the revoked work is re-enqueued: the elephant still completes.
  EXPECT_EQ(b->CountJobs(false), 1u);
  EXPECT_EQ(b->unfinished_jobs, 0u);
  // Per-job preemption counts roll up to the aggregate.
  int64_t preempted = 0;
  for (const auto& outcome : b->outcomes) preempted += outcome.preempted_tasks;
  EXPECT_EQ(preempted, b->sla.preempted_tasks);
  // Preemptive replays are deterministic: run twice, compare everything.
  auto c = ReplayTrace(t, preempt);
  ASSERT_TRUE(c.ok());
  ExpectBitIdentical(*b, *c, "preemption determinism");
}

TEST(SlaTest, PreemptionBudgetIsBounded) {
  trace::Trace t = HeadOfLineTrace();
  ReplayOptions options = SmallCluster("fifo");
  options.sla.preemption_budget = 3;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->sla.preempted_tasks, 3);
  EXPECT_EQ(result->unfinished_jobs, 0u);
}

TEST(SlaTest, PreemptionRevokesYoungestOfEqualElephants) {
  // Two identical single-task elephants fill the 2-slot pool, so their
  // remaining work ties when the small job arrives. The one revocation
  // the budget allows must come from the later-indexed elephant.
  trace::Trace t;
  t.AddJob(SimpleJob(1, 0.0, 1, 600.0, 0, 0, 1e13));
  t.AddJob(SimpleJob(2, 0.0, 1, 600.0, 0, 0, 1e13));
  t.AddJob(SimpleJob(3, 10.0, 1, 10, 0, 0, 1e6));
  ReplayOptions options = SmallCluster("fifo");
  options.sla.preemption_budget = 1;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->outcomes.size(), 3u);
  for (const auto& outcome : result->outcomes) {
    EXPECT_EQ(outcome.preempted_tasks, outcome.job_id == 2 ? 1 : 0)
        << outcome.job_id;
  }
}

TEST(SlaTest, PreemptionComposesWithFailuresDeterministically) {
  // The acceptance bar for the preemptive tier: with stragglers, task
  // failures, and node losses all active, two runs are bit-identical.
  trace::Trace t = Fb2010Style(300, 99);
  ReplayOptions options;
  options.cluster.nodes = 2;
  options.scheduler = "srpt";
  options.sla.preemption_budget = 500;
  options.straggler_probability = 0.1;
  options.speculative_execution = true;
  options.failures.task_failure_probability = 0.05;
  options.failures.node_loss_per_hour = 2.0;
  auto a = ReplayTrace(t, options);
  auto b = ReplayTrace(t, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a->sla.preempted_tasks, 0);
  ExpectBitIdentical(*a, *b, "preemption+failures determinism");
}

// The legacy engine rejects preemption, so these replays are pinned by
// digest (ResultDigest) instead of an oracle. The digests were captured
// before the runnable lists became index-ordered and PreemptKind stopped
// scanning the whole job table; any change to preemption's picks,
// revocations or accounting moves them.

TEST(SlaTest, SaturatedTwoTierPreemptionDigestPinned) {
  trace::Trace t = TiedSubmitTrace(1200, 43);
  ReplayOptions options;
  options.cluster.nodes = 2;
  options.scheduler = "two-tier";
  options.sla.preemption_budget = 100000;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->sla.preemption_rounds, 0);
  EXPECT_EQ(result->unfinished_jobs, 0u);
  EXPECT_EQ(ResultDigest(*result), 17580017562214478617ull);
}

TEST(SlaTest, PreemptionFailuresAdmissionDigestPinned) {
  trace::Trace t = TiedSubmitTrace(800, 47);
  ReplayOptions options;
  options.cluster.nodes = 2;
  options.scheduler = "srpt";
  options.sla.preemption_budget = 2000;
  options.sla.tenants = 4;
  options.sla.tenant_max_running = 6;
  options.straggler_probability = 0.05;
  options.failures.task_failure_probability = 0.03;
  options.failures.node_loss_per_hour = 1.0;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->sla.preemption_rounds, 0);
  EXPECT_GT(result->sla.admission_parked_jobs, 0);
  EXPECT_GT(result->failures.task_failures, 0);
  EXPECT_EQ(ResultDigest(*result), 14606341016681871882ull);
}

TEST(SlaTest, AdmissionSerializesTenantJobs) {
  // Four 10s single-task jobs, one tenant, cap 1: without admission two
  // run concurrently on the 2-slot cluster; with it they run strictly
  // serially (latencies 10/20/30/40) and the wait is accounted.
  trace::Trace t;
  for (int i = 0; i < 4; ++i) {
    t.AddJob(SimpleJob(i + 1, 0.0, 1, 10));
  }
  ReplayOptions options = SmallCluster("fifo");
  options.sla.tenants = 1;
  options.sla.tenant_max_running = 1;
  auto result = ReplayTrace(t, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->outcomes.size(), 4u);
  std::vector<double> latencies;
  for (const auto& outcome : result->outcomes) {
    latencies.push_back(outcome.latency);
  }
  std::sort(latencies.begin(), latencies.end());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(latencies[i], 10.0 * static_cast<double>(i + 1), 0.01);
  }
  EXPECT_EQ(result->sla.admission_parked_jobs, 3);
  EXPECT_GT(result->sla.total_admission_delay, 0.0);
  ASSERT_EQ(result->sla.tenants.size(), 1u);
  EXPECT_EQ(result->sla.tenants[0].jobs, 4);
  EXPECT_EQ(result->sla.tenants[0].parked_jobs, 3);
  EXPECT_GT(result->sla.tenants[0].max_admission_delay, 0.0);
  double outcome_delay = 0.0;
  for (const auto& outcome : result->outcomes) {
    outcome_delay += outcome.admission_delay;
  }
  EXPECT_DOUBLE_EQ(outcome_delay, result->sla.total_admission_delay);
  // The oracle agrees token for token.
  auto legacy = ReplayTraceLegacy(t, options);
  ASSERT_TRUE(legacy.ok());
  ExpectBitIdentical(*result, *legacy, "admission serialization");
}

TEST(SlaTest, AdmissionComposesWithDependenciesWithoutDeadlock) {
  // Tokens only ever go to arrived, parent-free jobs, so a child behind a
  // parked parent cannot wedge the tenant queue.
  trace::Trace t;
  for (int i = 0; i < 6; ++i) {
    t.AddJob(SimpleJob(i + 1, 0.0, 1, 30));
  }
  ReplayOptions options = SmallCluster("fair");
  options.sla.tenants = 2;
  options.sla.tenant_max_running = 1;
  options.dependencies[4] = {1};
  options.dependencies[6] = {3};
  auto current = ReplayTrace(t, options);
  auto legacy = ReplayTraceLegacy(t, options);
  ASSERT_TRUE(current.ok());
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(current->outcomes.size(), 6u);
  EXPECT_EQ(current->unfinished_jobs, 0u);
  // Tenant assignment is job_id % tenants.
  for (const auto& outcome : current->outcomes) {
    EXPECT_EQ(outcome.tenant, static_cast<int>(outcome.job_id % 2));
  }
  ExpectBitIdentical(*current, *legacy, "admission+deps");
}

TEST(SlaTest, PreemptionAndAdmissionComposeEndToEnd) {
  // The full SLA tier at once on a saturated mix: deadline scheduling,
  // elephant preemption, and per-tenant admission, twice, bit-identical.
  trace::Trace t = Fb2010Style(250, 7);
  ReplayOptions options;
  options.cluster.nodes = 2;
  options.scheduler = "deadline";
  options.sla.preemption_budget = 300;
  options.sla.tenants = 3;
  options.sla.tenant_max_running = 4;
  options.failures.task_failure_probability = 0.03;
  auto a = ReplayTrace(t, options);
  auto b = ReplayTrace(t, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->sla.tenants.size(), 3u);
  ExpectBitIdentical(*a, *b, "full SLA tier determinism");
}

// --- ReplayTemplate: the shared build phase behind sweeps ------------------

TEST(ReplayTemplateTest, BuildOnceReplayManyMatchesBothEngines) {
  // One template replayed run after run: every run must equal a fresh
  // ReplayTrace and the legacy engine, so no run leaves state behind.
  auto replay_many = [](const std::string& name, const trace::Trace& t,
                        const ReplayOptions& base,
                        const std::vector<ReplayOptions>& runs) {
    auto tpl = ReplayTemplate::Build(t, base);
    ASSERT_TRUE(tpl.ok()) << name;
    EXPECT_EQ(tpl->job_count(), t.size()) << name;
    for (const ReplayOptions& options : runs) {
      const std::string what = name + " " + options.scheduler + " seed " +
                               std::to_string(options.seed);
      auto shared = tpl->Replay(options);
      auto direct = ReplayTrace(t, options);
      auto legacy = ReplayTraceLegacy(t, options);
      ASSERT_TRUE(shared.ok()) << what;
      ASSERT_TRUE(direct.ok()) << what;
      ASSERT_TRUE(legacy.ok()) << what;
      ExpectBitIdentical(*shared, *direct, what);
      ExpectBitIdentical(*shared, *legacy, what);
    }
  };

  std::vector<ReplayOptions> runs;
  for (const char* policy : {"fifo", "fair", "two-tier"}) {
    for (uint64_t seed : {7u, 19u}) {
      ReplayOptions options;
      options.cluster.nodes = 12;
      options.scheduler = policy;
      options.seed = seed;
      options.straggler_probability = 0.05;
      options.failures.task_failure_probability = 0.03;
      runs.push_back(options);
    }
  }
  replay_many("independent", Fb2010Style(300, 61), {}, runs);

  // Chained jobs, so every run also walks the template's CSR dependency
  // graph.
  ReplayOptions chained;
  chained.cluster.nodes = 8;
  for (uint64_t id = 10; id <= 250; id += 10) {
    chained.dependencies[id] = {id - 5};
  }
  runs.clear();
  for (uint64_t run = 0; run < 4; ++run) {
    ReplayOptions options = chained;
    options.scheduler = (run % 2 == 0) ? "fair" : "two-tier";
    options.seed = 100 + run;
    runs.push_back(options);
  }
  replay_many("chained", Fb2010Style(250, 33), chained, runs);
}

TEST(ReplayTemplateTest, RejectsOptionsTheTemplateWasNotBuiltFor) {
  trace::Trace t = Fb2010Style(50, 5);
  auto tpl = ReplayTemplate::Build(t);
  ASSERT_TRUE(tpl.ok());

  ReplayOptions sweepable;  // per-run axes may differ freely
  sweepable.scheduler = "fair";
  sweepable.cluster.nodes = 3;
  sweepable.seed = 999;
  sweepable.straggler_probability = 0.5;
  sweepable.failures.task_failure_probability = 0.2;
  EXPECT_TRUE(tpl->Compatible(sweepable));
  EXPECT_TRUE(tpl->Replay(sweepable).ok());

  ReplayOptions different_cap;
  different_cap.max_tasks_per_job = 17;
  EXPECT_FALSE(tpl->Compatible(different_cap));
  EXPECT_FALSE(tpl->Replay(different_cap).ok());

  ReplayOptions different_threshold;
  different_threshold.small_job_bytes = 1.0;
  EXPECT_FALSE(tpl->Compatible(different_threshold));
  EXPECT_FALSE(tpl->Replay(different_threshold).ok());

  ReplayOptions different_deps;
  different_deps.dependencies[2] = {1};
  EXPECT_FALSE(tpl->Compatible(different_deps));
  EXPECT_FALSE(tpl->Replay(different_deps).ok());
}

}  // namespace
}  // namespace swim::sim

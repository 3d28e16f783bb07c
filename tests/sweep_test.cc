// Tests for the parallel sweep driver (sim/sweep.h): results must come
// back in configuration order, bit-identical at any worker-lane count
// (SWIM_THREADS), with per-cell errors isolated to their slot.
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sim/sweep.h"
#include "trace/trace.h"

namespace swim::sim {
namespace {

trace::Trace MixedTrace(size_t jobs) {
  trace::Trace t;
  for (size_t i = 0; i < jobs; ++i) {
    trace::JobRecord job;
    job.job_id = i + 1;
    job.submit_time = static_cast<double>(i) * 7.0;
    job.map_tasks = 1 + static_cast<int64_t>(i % 5);
    job.map_task_seconds = 40.0 + static_cast<double>(i % 13) * 10.0;
    job.reduce_tasks = static_cast<int64_t>(i % 3);
    job.reduce_task_seconds = job.reduce_tasks > 0 ? 30.0 : 0.0;
    // Mix of small and large jobs so two-tier has both tiers populated.
    job.input_bytes = (i % 4 == 0) ? 1e12 : 1e6;
    job.duration = 60.0;
    t.AddJob(std::move(job));
  }
  return t;
}

void ExpectIdentical(const ReplayResult& a, const ReplayResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].job_id, b.outcomes[i].job_id);
    // Exact float equality on purpose: the contract is bit-identity.
    EXPECT_EQ(a.outcomes[i].latency, b.outcomes[i].latency);
    EXPECT_EQ(a.outcomes[i].retries, b.outcomes[i].retries);
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.hourly_occupancy, b.hourly_occupancy);
  EXPECT_EQ(a.unfinished_jobs, b.unfinished_jobs);
  EXPECT_EQ(a.failures.task_failures, b.failures.task_failures);
  EXPECT_EQ(a.failures.retries, b.failures.retries);
  EXPECT_EQ(a.failures.failed_task_seconds, b.failures.failed_task_seconds);
}

TEST(SweepGridTest, EmitsRowMajorCrossProductWithLabels) {
  trace::Trace t = MixedTrace(5);
  ReplayOptions base;
  base.straggler_probability = 0.1;
  std::vector<SweepConfig> grid =
      SweepGrid(t, base, {"fifo", "fair"}, {10, 20}, {1, 2});
  ASSERT_EQ(grid.size(), 8u);
  EXPECT_EQ(grid[0].label, "fifo/n10/s1");
  EXPECT_EQ(grid[1].label, "fifo/n10/s2");
  EXPECT_EQ(grid[2].label, "fifo/n20/s1");
  EXPECT_EQ(grid[4].label, "fair/n10/s1");
  EXPECT_EQ(grid[7].label, "fair/n20/s2");
  for (const SweepConfig& config : grid) {
    EXPECT_EQ(config.trace, &t);
    // Base options carry through to every cell.
    EXPECT_DOUBLE_EQ(config.options.straggler_probability, 0.1);
  }
  EXPECT_EQ(grid[5].options.scheduler, "fair");
  EXPECT_EQ(grid[5].options.cluster.nodes, 10);
  EXPECT_EQ(grid[5].options.seed, 2u);
}

TEST(SweepTest, MatchesSerialReplayInConfigOrder) {
  trace::Trace t = MixedTrace(120);
  ReplayOptions base;
  base.cluster.nodes = 3;
  base.straggler_probability = 0.15;
  base.failures.task_failure_probability = 0.05;
  std::vector<SweepConfig> grid =
      SweepGrid(t, base, {"fifo", "fair", "two-tier"}, {2, 3}, {19, 23});
  std::vector<StatusOr<ReplayResult>> swept = RunSweep(grid);
  ASSERT_EQ(swept.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(swept[i].ok()) << grid[i].label;
    auto serial = ReplayTrace(*grid[i].trace, grid[i].options);
    ASSERT_TRUE(serial.ok()) << grid[i].label;
    ExpectIdentical(*swept[i], *serial);
  }
}

TEST(SweepTest, BitIdenticalAcrossLaneCounts) {
  // The SWIM_THREADS determinism contract, pinned at both extremes the
  // ISSUE names: 1 lane (fully serial) and 8 lanes.
  trace::Trace t = MixedTrace(150);
  ReplayOptions base;
  base.cluster.nodes = 4;
  base.straggler_probability = 0.2;
  base.failures.task_failure_probability = 0.1;
  base.failures.node_loss_per_hour = 0.5;
  std::vector<SweepConfig> grid =
      SweepGrid(t, base, {"fair", "two-tier"}, {2, 4}, {19, 31, 47});
  std::vector<StatusOr<ReplayResult>> lanes1 =
      RunSweep(grid, /*max_parallelism=*/1);
  std::vector<StatusOr<ReplayResult>> lanes8 =
      RunSweep(grid, /*max_parallelism=*/8);
  ASSERT_EQ(lanes1.size(), grid.size());
  ASSERT_EQ(lanes8.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(lanes1[i].ok()) << grid[i].label;
    ASSERT_TRUE(lanes8[i].ok()) << grid[i].label;
    ExpectIdentical(*lanes1[i], *lanes8[i]);
  }
}

TEST(SweepTest, SeedAxisActuallyChangesFailureDraws) {
  trace::Trace t = MixedTrace(200);
  ReplayOptions base;
  base.cluster.nodes = 2;
  base.failures.task_failure_probability = 0.2;
  std::vector<SweepConfig> grid =
      SweepGrid(t, base, {"fair"}, {2}, {1, 2, 3, 4});
  std::vector<StatusOr<ReplayResult>> results = RunSweep(grid);
  // Not all four seeds should produce the same failure count (the RNG
  // streams must be derived from the per-cell seed, not shared).
  bool any_differs = false;
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    if (results[i]->failures.task_failures !=
        results[0]->failures.task_failures) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(SweepTest, BadCellErrorsStayInTheirSlot) {
  trace::Trace t = MixedTrace(20);
  ReplayOptions good;
  good.cluster.nodes = 2;
  std::vector<SweepConfig> configs(3);
  configs[0] = {"good", &t, good};
  configs[1].label = "no-trace";  // trace left null
  configs[2] = {"bad-options", &t, good};
  configs[2].options.failures.max_attempts = 0;  // rejected by validation
  std::vector<StatusOr<ReplayResult>> results = RunSweep(configs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_FALSE(results[2].ok());
  EXPECT_EQ(results[0]->outcomes.size(), 20u);
}

TEST(SweepTest, EmptySweepReturnsEmpty) {
  EXPECT_TRUE(RunSweep({}).empty());
}

TEST(SweepTest, TemplateSweepMatchesPerConfigReplayAtEveryLaneCount) {
  // The shared-template sweep path vs a fresh per-configuration
  // ReplayTrace, bit-identical at 1, 4, and 8 lanes, with one template
  // build per sweep: every cell is compatible with the first.
  trace::Trace t = MixedTrace(130);
  ReplayOptions base;
  base.cluster.nodes = 3;
  base.straggler_probability = 0.1;
  base.failures.task_failure_probability = 0.08;
  std::vector<SweepConfig> grid =
      SweepGrid(t, base, {"fifo", "fair", "two-tier"}, {2, 4}, {5, 11});
  std::vector<StatusOr<ReplayResult>> oracle;
  oracle.reserve(grid.size());
  for (const SweepConfig& config : grid) {
    oracle.push_back(ReplayTrace(*config.trace, config.options));
  }
  for (int lanes : {1, 4, 8}) {
    const uint64_t builds_before = ReplayTemplate::BuildCount();
    std::vector<StatusOr<ReplayResult>> swept = RunSweep(grid, lanes);
    EXPECT_EQ(ReplayTemplate::BuildCount() - builds_before, 1u)
        << "lanes=" << lanes;
    ASSERT_EQ(swept.size(), oracle.size());
    for (size_t i = 0; i < grid.size(); ++i) {
      ASSERT_TRUE(swept[i].ok()) << grid[i].label << " lanes=" << lanes;
      ASSERT_TRUE(oracle[i].ok()) << grid[i].label;
      ExpectIdentical(*swept[i], *oracle[i]);
    }
  }
}

TEST(SweepTest, ProgressReportsEveryCellAndFinishesAtTotal) {
  trace::Trace t = MixedTrace(40);
  ReplayOptions base;
  base.cluster.nodes = 2;
  std::vector<SweepConfig> grid = SweepGrid(t, base, {"fifo", "fair"}, {2},
                                            {1, 2, 3, 4, 5, 6, 7, 8});
  SweepOptions sweep_options;
  sweep_options.max_parallelism = 4;
  std::atomic<size_t> calls{0};
  std::atomic<size_t> finals{0};
  std::atomic<bool> total_consistent{true};
  sweep_options.progress = [&](size_t done, size_t total) {
    calls.fetch_add(1);
    if (total != 16u || done == 0 || done > total) {
      total_consistent = false;
    }
    if (done == total) finals.fetch_add(1);
  };
  std::vector<StatusOr<ReplayResult>> results = RunSweep(grid, sweep_options);
  ASSERT_EQ(results.size(), 16u);
  EXPECT_EQ(calls.load(), 16u);   // once per completed cell
  EXPECT_EQ(finals.load(), 1u);   // exactly one (total, total) call
  EXPECT_TRUE(total_consistent.load());
}

TEST(SweepTest, SlaPoliciesBitIdenticalAcrossLaneCounts) {
  // The preemptive tier's determinism pin: srpt and deadline cells with
  // elephant preemption, admission control, and both failure modes active
  // must replay bit-identically at 1 lane and 8 lanes.
  trace::Trace t = MixedTrace(150);
  ReplayOptions base;
  base.cluster.nodes = 2;
  base.straggler_probability = 0.1;
  base.failures.task_failure_probability = 0.05;
  base.failures.node_loss_per_hour = 0.5;
  base.sla.preemption_budget = 100;
  base.sla.tenants = 3;
  base.sla.tenant_max_running = 2;
  std::vector<SweepConfig> grid =
      SweepGrid(t, base, {"srpt", "deadline"}, {2, 3}, {19, 47});
  std::vector<StatusOr<ReplayResult>> lanes1 =
      RunSweep(grid, /*max_parallelism=*/1);
  std::vector<StatusOr<ReplayResult>> lanes8 =
      RunSweep(grid, /*max_parallelism=*/8);
  ASSERT_EQ(lanes1.size(), grid.size());
  ASSERT_EQ(lanes8.size(), grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(lanes1[i].ok()) << grid[i].label;
    ASSERT_TRUE(lanes8[i].ok()) << grid[i].label;
    ExpectIdentical(*lanes1[i], *lanes8[i]);
    // The SLA accounting agrees across lane counts too.
    EXPECT_EQ(lanes1[i]->sla.preempted_tasks, lanes8[i]->sla.preempted_tasks);
    EXPECT_EQ(lanes1[i]->sla.admission_parked_jobs,
              lanes8[i]->sla.admission_parked_jobs);
    EXPECT_EQ(lanes1[i]->sla.small_misses, lanes8[i]->sla.small_misses);
  }
}

TEST(SweepTest, UnknownPolicyCellErrorsStayInTheirSlot) {
  // A typo'd policy must fail its own cell with the factory's hard error,
  // not silently replay as FIFO or poison its neighbors.
  trace::Trace t = MixedTrace(20);
  ReplayOptions good;
  good.cluster.nodes = 2;
  std::vector<SweepConfig> configs(3);
  configs[0] = {"good", &t, good};
  configs[1] = {"typo", &t, good};
  configs[1].options.scheduler = "fare";
  configs[2] = {"good2", &t, good};
  std::vector<StatusOr<ReplayResult>> results = RunSweep(configs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  ASSERT_FALSE(results[1].ok());
  EXPECT_NE(results[1].status().message().find("fifo, fair, two-tier"),
            std::string::npos)
      << results[1].status().message();
  EXPECT_TRUE(results[2].ok());
}

TEST(SweepTest, IncompatibleCellsFallBackToPrivateBuilds) {
  // Cells whose template-relevant options disagree with the first cell
  // on the trace cannot share its template; they must still replay
  // exactly like a standalone ReplayTrace, just without sharing.
  trace::Trace t = MixedTrace(60);
  ReplayOptions plain;
  plain.cluster.nodes = 2;
  ReplayOptions capped = plain;
  capped.max_tasks_per_job = 2;  // different skeletons entirely
  ReplayOptions rethresholded = plain;
  rethresholded.small_job_bytes = 1.0;  // every job classified large
  ReplayOptions chained = plain;
  chained.dependencies[2] = {1};
  ReplayOptions tight_sla = plain;
  tight_sla.sla.small_multiplier = 1.0;  // different deadlines baked in
  std::vector<SweepConfig> configs;
  configs.push_back({"plain", &t, plain});
  configs.push_back({"capped", &t, capped});
  configs.push_back({"rethresholded", &t, rethresholded});
  configs.push_back({"chained", &t, chained});
  configs.push_back({"tight-sla", &t, tight_sla});
  const uint64_t builds_before = ReplayTemplate::BuildCount();
  std::vector<StatusOr<ReplayResult>> results = RunSweep(configs, 2);
  // One shared build for "plain" plus one private build per fallback.
  EXPECT_EQ(ReplayTemplate::BuildCount() - builds_before, 5u);
  ASSERT_EQ(results.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << configs[i].label;
    auto serial = ReplayTrace(*configs[i].trace, configs[i].options);
    ASSERT_TRUE(serial.ok()) << configs[i].label;
    ExpectIdentical(*results[i], *serial);
  }
  // The fallback cells really did diverge from the shared template.
  EXPECT_NE(results[1]->outcomes[0].latency,
            results[0]->outcomes[0].latency);
}

}  // namespace
}  // namespace swim::sim

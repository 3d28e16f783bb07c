// swim_replay: replay a trace on the simulated cluster.
//
//   swim_replay <trace.csv|trace.stf1> [--nodes N]
//               [--scheduler fifo|fair|two-tier|srpt|deadline]
//               [--stragglers P] [--on-error strict|skip|repair]
//               [--task-failures P] [--node-loss R] [--max-attempts N]
//               [--retry-backoff S] [--failure-point F] [--seed S]
//               [--sla-multiplier S[,L]] [--preemption-budget N]
//               [--tenants N] [--tenant-cap N]
//               [--sweep fifo,fair,...] [--sweep-nodes N1,N2,...]
//               [--sweep-seeds S1,S2,...] [--sweep-lanes N]
//               [--sweep-progress]
//
// Prints per-tier latency quantiles, utilization, and occupancy peaks -
// what a scheduler experiment on a real cluster would report. With
// failure injection enabled (--task-failures / --node-loss) an extra
// accounting block reports retries and wasted slot-seconds.
//
// The SLA tier: every job carries a deadline of ideal latency x the
// per-class multiplier (--sla-multiplier small[,large]); the report adds
// per-class SLA-miss fractions. --scheduler srpt|deadline selects the
// size-based and EDF policies; --preemption-budget enables elephant
// preemption (not the legacy engine); --tenants/--tenant-cap turn on
// per-tenant admission control. Policy names are validated up front -
// unknown names are a hard error listing the valid policies.
//
// --sweep runs the policy x node-count x seed grid concurrently across
// the thread pool (sim/sweep.h) and prints one line per cell in grid
// order; unswept axes default to the single-run flags. Output is
// byte-identical at any SWIM_THREADS. --sweep-lanes bounds the worker
// lanes for this run without touching the environment; --sweep-progress
// tickers completed/total cells to stderr (stdout stays clean for
// redirection) so a 10k-configuration what-if sweep is observable while
// it runs.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "common/units.h"
#include "sim/replay.h"
#include "sim/sweep.h"
#include "trace/columnar.h"
#include "trace/trace_io.h"
#include "numeric_arg.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: swim_replay <trace.csv|trace.stf1> [--nodes N] "
      "[--scheduler fifo|fair|two-tier|srpt|deadline] [--stragglers P]\n"
      "                   [--on-error strict|skip|repair] "
      "[--task-failures P] [--node-loss R]\n"
      "                   [--max-attempts N] [--retry-backoff S] "
      "[--failure-point F] [--seed S]\n"
      "                   [--sla-multiplier S[,L]] [--preemption-budget N] "
      "[--tenants N] [--tenant-cap N]\n"
      "                   [--sweep fifo,fair,...] "
      "[--sweep-nodes N1,N2,...] [--sweep-seeds S1,S2,...]\n"
      "                   [--sweep-lanes N] [--sweep-progress]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace swim;
  if (argc < 2) return Usage();

  sim::ReplayOptions options;
  trace::ParseOptions parse_options;
  bool sweep = false;
  bool sweep_progress = false;
  int sweep_lanes = 0;
  std::vector<std::string> sweep_policies;
  std::vector<int> sweep_nodes;
  std::vector<uint64_t> sweep_seeds;
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--sweep-progress") {  // the one valueless flag
      sweep = true;
      sweep_progress = true;
      continue;
    }
    std::string value;
    // Accept both `--flag value` and `--flag=value`.
    size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
        return 2;
      }
      value = argv[++i];
    }
    if (flag == "--nodes") {
      if (!ParseNumericArg("--nodes", value, &options.cluster.nodes)) return 2;
    } else if (flag == "--scheduler") {
      options.scheduler = value;
    } else if (flag == "--stragglers") {
      if (!ParseNumericArg("--stragglers", value,
                           &options.straggler_probability)) {
        return 2;
      }
    } else if (flag == "--on-error") {
      auto mode = trace::ParseModeFromName(value);
      if (!mode.ok()) {
        std::fprintf(stderr, "%s\n", mode.status().ToString().c_str());
        return 2;
      }
      parse_options.mode = *mode;
    } else if (flag == "--task-failures") {
      if (!ParseNumericArg("--task-failures", value,
                           &options.failures.task_failure_probability)) {
        return 2;
      }
    } else if (flag == "--node-loss") {
      if (!ParseNumericArg("--node-loss", value,
                           &options.failures.node_loss_per_hour)) {
        return 2;
      }
    } else if (flag == "--max-attempts") {
      if (!ParseNumericArg("--max-attempts", value,
                           &options.failures.max_attempts)) {
        return 2;
      }
    } else if (flag == "--retry-backoff") {
      if (!ParseNumericArg("--retry-backoff", value,
                           &options.failures.retry_backoff_seconds)) {
        return 2;
      }
    } else if (flag == "--failure-point") {
      if (!ParseNumericArg("--failure-point", value,
                           &options.failures.failure_point)) {
        return 2;
      }
    } else if (flag == "--seed") {
      if (!ParseNumericArg("--seed", value, &options.seed)) return 2;
    } else if (flag == "--sla-multiplier") {
      // One value sets the small (interactive) multiplier; "S,L" sets
      // both classes.
      std::vector<std::string> parts = Split(value, ',');
      if (parts.empty() || parts[0].empty()) {
        std::fprintf(stderr, "--sla-multiplier needs S or S,L\n");
        return 2;
      }
      if (!ParseNumericArg("--sla-multiplier", parts[0],
                           &options.sla.small_multiplier)) {
        return 2;
      }
      if (parts.size() > 1 && !parts[1].empty() &&
          !ParseNumericArg("--sla-multiplier", parts[1],
                           &options.sla.large_multiplier)) {
        return 2;
      }
    } else if (flag == "--preemption-budget") {
      if (!ParseNumericArg("--preemption-budget", value,
                           &options.sla.preemption_budget)) {
        return 2;
      }
    } else if (flag == "--tenants") {
      if (!ParseNumericArg("--tenants", value, &options.sla.tenants)) return 2;
    } else if (flag == "--tenant-cap") {
      if (!ParseNumericArg("--tenant-cap", value,
                           &options.sla.tenant_max_running)) {
        return 2;
      }
    } else if (flag == "--sweep") {
      sweep = true;
      for (const std::string& policy : Split(value, ',')) {
        if (!policy.empty()) sweep_policies.push_back(policy);
      }
    } else if (flag == "--sweep-nodes") {
      sweep = true;
      for (const std::string& n : Split(value, ',')) {
        if (n.empty()) continue;
        int nodes = 0;
        if (!ParseNumericArg("--sweep-nodes", n, &nodes)) return 2;
        sweep_nodes.push_back(nodes);
      }
    } else if (flag == "--sweep-seeds") {
      sweep = true;
      for (const std::string& s : Split(value, ',')) {
        if (s.empty()) continue;
        uint64_t seed = 0;
        if (!ParseNumericArg("--sweep-seeds", s, &seed)) return 2;
        sweep_seeds.push_back(seed);
      }
    } else if (flag == "--sweep-lanes") {
      sweep = true;
      if (!ParseNumericArg("--sweep-lanes", value, &sweep_lanes)) return 2;
      if (sweep_lanes < 1) {
        std::fprintf(stderr, "--sweep-lanes needs a positive lane count\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return 2;
    }
  }

  // Validate every policy name up front: a typo'd --sweep=fare must die
  // here with the valid names, not after loading a month-long trace (and
  // never, as before the MakeScheduler fix, by silently replaying the
  // whole grid as FIFO).
  {
    std::vector<std::string> policies = sweep_policies;
    policies.push_back(options.scheduler);
    for (const std::string& policy : policies) {
      auto scheduler = sim::MakeScheduler(policy);
      if (!scheduler.ok()) {
        std::fprintf(stderr, "%s\n", scheduler.status().ToString().c_str());
        return 2;
      }
    }
  }

  trace::ParseReport report;
  auto trace = trace::ReadTraceAuto(argv[1], parse_options, &report);
  if (!trace.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", argv[1],
                 trace.status().ToString().c_str());
    return 1;
  }
  if (!report.clean()) {
    std::fprintf(stderr, "%s\n", report.ToString().c_str());
  }

  if (sweep) {
    // Unswept axes fall back to the single-run flags.
    if (sweep_policies.empty()) sweep_policies.push_back(options.scheduler);
    if (sweep_nodes.empty()) sweep_nodes.push_back(options.cluster.nodes);
    if (sweep_seeds.empty()) sweep_seeds.push_back(options.seed);
    std::vector<sim::SweepConfig> configs = sim::SweepGrid(
        *trace, options, sweep_policies, sweep_nodes, sweep_seeds);
    sim::SweepOptions sweep_options;
    sweep_options.max_parallelism = sweep_lanes;
    if (sweep_progress) {
      // Throttle the ticker to ~1% steps. Lanes report counts slightly
      // out of order, but each fprintf is one atomic write and the
      // done == total line always fires, so the display converges.
      sweep_options.progress = [](size_t done, size_t total) {
        const size_t step = std::max<size_t>(1, total / 100);
        if (done % step == 0 || done == total) {
          std::fprintf(stderr, "\rsweep: %zu/%zu configs%s", done, total,
                       done == total ? "\n" : "");
        }
      };
    }
    std::vector<StatusOr<sim::ReplayResult>> results =
        sim::RunSweep(configs, sweep_options);
    std::printf("sweep: %zu configurations over %zu jobs\n", configs.size(),
                trace->size());
    int failures = 0;
    for (size_t i = 0; i < configs.size(); ++i) {
      if (!results[i].ok()) {
        std::printf("  %-24s FAILED: %s\n", configs[i].label.c_str(),
                    results[i].status().ToString().c_str());
        ++failures;
        continue;
      }
      const sim::ReplayResult& r = *results[i];
      stats::SortedStats small_latencies = r.LatencyStats(true);
      std::printf(
          "  %-24s makespan=%s util=%.0f%% small-p50=%s sla-miss=%.1f%% "
          "retries=%lld%s\n",
          configs[i].label.c_str(), FormatDuration(r.makespan).c_str(),
          100 * r.utilization,
          r.CountJobs(true) > 0
              ? FormatDuration(small_latencies.Quantile(0.5)).c_str()
              : "n/a",
          100 * r.sla.MissFraction(true),
          static_cast<long long>(r.failures.retries),
          r.unfinished_jobs > 0 ? " (unfinished jobs)" : "");
    }
    return failures == 0 ? 0 : 1;
  }

  auto result = sim::ReplayTrace(*trace, options);
  if (!result.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("replayed %zu jobs on %d nodes under %s\n",
              result->outcomes.size(), options.cluster.nodes,
              result->scheduler.c_str());
  std::printf("  makespan: %s, utilization: %.0f%%\n",
              FormatDuration(result->makespan).c_str(),
              100 * result->utilization);
  for (bool small : {true, false}) {
    if (result->CountJobs(small) == 0) continue;
    // One filter + sort per tier; the three quantile reads are O(1).
    stats::SortedStats latencies = result->LatencyStats(small);
    std::printf("  %s jobs (%zu): p50=%s p90=%s p99=%s mean slowdown=%.1fx\n",
                small ? "small" : "large", result->CountJobs(small),
                FormatDuration(latencies.Quantile(0.5)).c_str(),
                FormatDuration(latencies.Quantile(0.9)).c_str(),
                FormatDuration(latencies.Quantile(0.99)).c_str(),
                result->MeanSlowdown(small));
  }
  const sim::SlaStats& sla = result->sla;
  for (bool small : {true, false}) {
    const int64_t total = small ? sla.small_jobs_with_deadline
                                : sla.large_jobs_with_deadline;
    if (total == 0) continue;
    std::printf("  %s-job SLA (%.0fx ideal): %lld/%lld missed (%.1f%%)\n",
                small ? "small" : "large",
                small ? options.sla.small_multiplier
                      : options.sla.large_multiplier,
                static_cast<long long>(small ? sla.small_misses
                                             : sla.large_misses),
                static_cast<long long>(total),
                100 * sla.MissFraction(small));
  }
  if (options.sla.preemption_enabled()) {
    std::printf("  preemption: %lld tasks revoked in %lld rounds "
                "(budget %lld)\n",
                static_cast<long long>(sla.preempted_tasks),
                static_cast<long long>(sla.preemption_rounds),
                static_cast<long long>(options.sla.preemption_budget));
  }
  if (options.sla.admission_enabled()) {
    std::printf("  admission: %d tenants (cap %d), %lld jobs parked, "
                "%s total queueing\n",
                options.sla.tenants, options.sla.tenant_max_running,
                static_cast<long long>(sla.admission_parked_jobs),
                FormatDuration(sla.total_admission_delay).c_str());
  }
  double peak = 0;
  for (double o : result->hourly_occupancy) peak = std::max(peak, o);
  std::printf("  peak hourly occupancy: %.0f slots of %d\n", peak,
              options.cluster.total_map_slots() +
                  options.cluster.total_reduce_slots());
  if (options.failures.enabled()) {
    const sim::FailureStats& f = result->failures;
    std::printf(
        "  failures: %lld task, %lld node losses (%lld tasks lost), "
        "%lld retries\n",
        static_cast<long long>(f.task_failures),
        static_cast<long long>(f.node_losses),
        static_cast<long long>(f.tasks_lost_to_nodes),
        static_cast<long long>(f.retries));
    std::printf("  wasted by failures: %s slot-time, %lld jobs killed\n",
                FormatDuration(f.failed_task_seconds).c_str(),
                static_cast<long long>(f.failed_jobs));
  }
  if (result->unfinished_jobs > 0) {
    std::printf("  WARNING: %zu jobs never completed\n",
                result->unfinished_jobs);
  }
  return 0;
}

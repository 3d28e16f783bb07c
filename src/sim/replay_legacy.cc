// The replay engine as it shipped before the incremental rebuild,
// frozen as a golden oracle: one std::priority_queue event per task
// batch, the runnable set rebuilt by scanning every active job on each
// grant round, and hour-by-hour occupancy stepping. Tests replay the
// same traces through ReplayTrace and ReplayTraceLegacy and assert
// bit-identical results (every policy, with and without failure
// injection); bench_replay measures the speedup against it and gates
// >= 4x.
//
// Do not modify this file except to track ReplayOptions semantics: any
// behaviour change must land in both engines or the identity tests
// fail by design.
#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>

#include "common/random.h"
#include "sim/replay.h"
#include "stats/descriptive.h"

namespace swim::sim {
namespace {

/// Tasks of a kind within a job are homogeneous, so a wave of them is
/// simulated as one event carrying a count - this keeps event volume
/// proportional to scheduling decisions, not task counts, and is what lets
/// month-long million-job traces replay in seconds.
struct Event {
  double time = 0.0;
  uint64_t seq = 0;  // FIFO tie-break for simultaneous events
  enum class Kind {
    kArrival,
    kTasksDone,
    kTasksFailed,  // attempts dying mid-flight (probability failures)
    kNodeLoss,     // whole-node loss; self-reschedules while work remains
    kWake,         // retry backoff expired; re-enter the grant loop
  } kind = Kind::kArrival;
  size_t job_index = 0;
  TaskKind task_kind = TaskKind::kMap;
  int64_t count = 0;
  /// Attempt level the batch was launched at (failure bookkeeping).
  int attempt = 1;
  /// Slot-seconds one task of the batch occupies until this event fires -
  /// the waste charged per task if the attempt dies instead of completing.
  double unit_seconds = 0.0;
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Integrates busy-slot counts into hourly buckets.
class OccupancyMeter {
 public:
  void Advance(double now, int64_t busy_slots, std::vector<double>& buckets) {
    if (now <= last_time_) {
      last_time_ = std::max(last_time_, now);
      return;
    }
    double t = last_time_;
    while (t < now) {
      size_t hour = static_cast<size_t>(t / 3600.0);
      double hour_end = (static_cast<double>(hour) + 1.0) * 3600.0;
      double slice_end = std::min(hour_end, now);
      if (buckets.size() <= hour) buckets.resize(hour + 1, 0.0);
      buckets[hour] += static_cast<double>(busy_slots) * (slice_end - t);
      t = slice_end;
    }
    busy_slot_seconds_ += static_cast<double>(busy_slots) * (now - last_time_);
    last_time_ = now;
  }

  double busy_slot_seconds() const { return busy_slot_seconds_; }

 private:
  double last_time_ = 0.0;
  double busy_slot_seconds_ = 0.0;
};

Status ValidateFailureOptions(const FailureOptions& failures) {
  if (failures.task_failure_probability < 0.0 ||
      failures.task_failure_probability > 1.0 ||
      !std::isfinite(failures.task_failure_probability)) {
    return InvalidArgumentError("task_failure_probability must be in [0, 1]");
  }
  if (!(failures.failure_point > 0.0) || failures.failure_point > 1.0) {
    return InvalidArgumentError("failure_point must be in (0, 1]");
  }
  if (failures.node_loss_per_hour < 0.0 ||
      !std::isfinite(failures.node_loss_per_hour)) {
    return InvalidArgumentError("node_loss_per_hour must be >= 0");
  }
  if (failures.max_attempts < 1) {
    return InvalidArgumentError("max_attempts must be >= 1");
  }
  if (failures.retry_backoff_seconds < 0.0 ||
      !std::isfinite(failures.retry_backoff_seconds)) {
    return InvalidArgumentError("retry_backoff_seconds must be >= 0");
  }
  return Status::Ok();
}

Status ValidateSlaOptions(const SlaOptions& sla) {
  if (!(sla.small_multiplier > 0.0) ||
      !std::isfinite(sla.small_multiplier) ||
      !(sla.large_multiplier > 0.0) ||
      !std::isfinite(sla.large_multiplier)) {
    return InvalidArgumentError("SLA multipliers must be finite and > 0");
  }
  if (sla.preemption_budget < 0) {
    return InvalidArgumentError("preemption_budget must be >= 0");
  }
  if (sla.tenants < 0) {
    return InvalidArgumentError("tenants must be >= 0");
  }
  if (sla.tenants > 0 && sla.tenant_max_running < 1) {
    return InvalidArgumentError(
        "tenant_max_running must be >= 1 when admission control is enabled");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<ReplayResult> ReplayTraceLegacy(const trace::Trace& trace,
                                         const ReplayOptions& options) {
  if (trace.empty()) return InvalidArgumentError("empty trace");
  if (options.cluster.nodes <= 0 || options.cluster.map_slots_per_node <= 0 ||
      options.cluster.reduce_slots_per_node < 0) {
    return InvalidArgumentError("invalid cluster configuration");
  }
  if (options.max_tasks_per_job < 1) {
    return InvalidArgumentError("max_tasks_per_job must be >= 1");
  }
  Status failure_status = ValidateFailureOptions(options.failures);
  if (!failure_status.ok()) return failure_status;
  Status sla_status = ValidateSlaOptions(options.sla);
  if (!sla_status.ok()) return sla_status;
  // Elephant preemption revokes running batches mid-flight; the frozen
  // oracle has no revocation protocol, and the identity contract only
  // covers non-preemptive runs.
  if (options.sla.preemption_enabled()) {
    return InvalidArgumentError(
        "ReplayTraceLegacy does not support preemption_budget > 0");
  }
  const FailureOptions& failures = options.failures;

  auto scheduler_or = MakeScheduler(options.scheduler);
  if (!scheduler_or.ok()) return scheduler_or.status();
  std::unique_ptr<Scheduler> scheduler = std::move(scheduler_or).value();
  Pcg32 rng(options.seed, /*stream=*/0x51e9);
  // Dedicated streams for the failure model: enabling/disabling failure
  // injection must not perturb the straggler draws (and with the model
  // disabled these are never consulted, keeping output bit-identical to
  // pre-failure-model replays).
  Pcg32 failure_rng(options.seed, /*stream=*/0xfa11);
  Pcg32 loss_rng(options.seed, /*stream=*/0x10e5);

  // Build the job table (trace.jobs() is submit-sorted).
  std::vector<SimJob> jobs;
  jobs.reserve(trace.size());
  for (const auto& record : trace.jobs()) {
    SimJob job;
    job.record = &record;
    job.submit_time = record.submit_time;
    job.is_small = record.TotalBytes() < options.small_job_bytes;
    job.maps_total = std::min(std::max<int64_t>(record.map_tasks, 1),
                              options.max_tasks_per_job);
    job.map_task_duration = std::max(
        record.map_task_seconds / static_cast<double>(job.maps_total), 1e-3);
    job.reduces_total =
        std::min(record.reduce_tasks, options.max_tasks_per_job);
    if (job.reduces_total > 0) {
      job.reduce_task_duration =
          std::max(record.reduce_task_seconds /
                       static_cast<double>(job.reduces_total),
                   1e-3);
    }
    // SLA tier (mirrors ReplayTemplate::Build): per-class deadline and
    // stable tenant assignment.
    job.deadline = job.submit_time +
                   job.IdealLatency() * (job.is_small
                                             ? options.sla.small_multiplier
                                             : options.sla.large_multiplier);
    if (options.sla.tenants > 0) {
      job.tenant_id = static_cast<int>(
          record.job_id % static_cast<uint64_t>(options.sla.tenants));
    }
    jobs.push_back(job);
  }

  // Workflow dependencies: resolve job ids to indices and wire parent
  // counters / child lists.
  std::vector<std::vector<size_t>> children(jobs.size());
  if (!options.dependencies.empty()) {
    FlatHashMap<uint64_t, size_t> index_of;
    index_of.reserve(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
      index_of[jobs[i].record->job_id] = i;
    }
    for (const auto& [child_id, parent_ids] : options.dependencies) {
      auto child_it = index_of.find(child_id);
      if (child_it == index_of.end()) {
        return InvalidArgumentError("dependency references unknown job " +
                                    std::to_string(child_id));
      }
      for (uint64_t parent_id : parent_ids) {
        auto parent_it = index_of.find(parent_id);
        if (parent_it == index_of.end()) {
          return InvalidArgumentError("dependency references unknown job " +
                                      std::to_string(parent_id));
        }
        ++jobs[child_it->second].unfinished_parents;
        children[parent_it->second].push_back(child_it->second);
      }
    }
  }

  std::priority_queue<Event, std::vector<Event>, EventAfter> queue;
  uint64_t seq = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    queue.push(Event{jobs[i].submit_time, seq++, Event::Kind::kArrival, i,
                     TaskKind::kMap, 0, 1, 0.0});
  }

  const int64_t total_map_slots = options.cluster.total_map_slots();
  const int64_t total_reduce_slots = options.cluster.total_reduce_slots();
  int64_t free_map_slots = total_map_slots;
  int64_t free_reduce_slots = total_reduce_slots;
  SchedulerContext context;
  std::vector<size_t> active;  // arrived, unfinished job indices
  OccupancyMeter meter;
  std::vector<double> occupancy_slot_seconds;

  ReplayResult result;
  result.scheduler = scheduler->name();

  // --- Admission control (mirrors ReplayTrace's token bucket) ---------
  const bool admission = options.sla.admission_enabled();
  std::vector<uint8_t> arrived(jobs.size(), 0);
  std::vector<uint8_t> admitted;
  std::vector<int64_t> tenant_running;
  std::vector<std::deque<size_t>> adm_queue;
  if (admission) {
    admitted.assign(jobs.size(), 0);
    tenant_running.assign(static_cast<size_t>(options.sla.tenants), 0);
    adm_queue.resize(static_cast<size_t>(options.sla.tenants));
    result.sla.tenants.resize(static_cast<size_t>(options.sla.tenants));
    for (int t = 0; t < options.sla.tenants; ++t) {
      result.sla.tenants[static_cast<size_t>(t)].tenant = t;
    }
  }
  auto try_admit = [&](size_t i, double now) {
    if (!admission || admitted[i]) return;
    SimJob& job = jobs[i];
    const int tenant = job.tenant_id;
    if (tenant_running[static_cast<size_t>(tenant)] <
        options.sla.tenant_max_running) {
      admitted[i] = 1;
      ++tenant_running[static_cast<size_t>(tenant)];
      if (job.admission_parked) {
        job.admission_parked = false;
        job.admission_wait = now - job.admission_park_time;
      }
    } else {
      job.admission_parked = true;
      job.admission_park_time = now;
      adm_queue[static_cast<size_t>(tenant)].push_back(i);
    }
  };
  auto release_admission = [&](size_t i, double now) {
    if (!admission || !admitted[i]) return;
    admitted[i] = 0;
    const int tenant = jobs[i].tenant_id;
    --tenant_running[static_cast<size_t>(tenant)];
    auto& waiting = adm_queue[static_cast<size_t>(tenant)];
    if (!waiting.empty()) {
      const size_t next = waiting.front();
      waiting.pop_front();
      try_admit(next, now);
    }
  };
  auto account_sla = [&](const SimJob& job, bool killed) {
    if (job.deadline >= 0.0) {
      const bool missed = killed || job.finish_time > job.deadline;
      if (job.is_small) {
        ++result.sla.small_jobs_with_deadline;
        if (missed) ++result.sla.small_misses;
      } else {
        ++result.sla.large_jobs_with_deadline;
        if (missed) ++result.sla.large_misses;
      }
    }
    if (admission) {
      TenantStats& tenant =
          result.sla.tenants[static_cast<size_t>(job.tenant_id)];
      ++tenant.jobs;
      if (job.admission_park_time >= 0.0) {
        ++tenant.parked_jobs;
        ++result.sla.admission_parked_jobs;
        tenant.total_admission_delay += job.admission_wait;
        result.sla.total_admission_delay += job.admission_wait;
        tenant.max_admission_delay =
            std::max(tenant.max_admission_delay, job.admission_wait);
      }
    }
  };

  double first_submit = jobs.front().submit_time;
  const double loss_rate_per_second = failures.node_loss_per_hour / 3600.0;
  if (loss_rate_per_second > 0.0) {
    queue.push(Event{
        first_submit + loss_rng.NextExponential(loss_rate_per_second), seq++,
        Event::Kind::kNodeLoss, 0, TaskKind::kMap, 0, 1, 0.0});
  }

  // Launches `count` tasks of one kind as at most three events: a failing
  // portion (dies at failure_point of the duration), plus regular and
  // straggling completions of the survivors.
  auto launch_batch = [&](size_t job_index, TaskKind kind, double now,
                          int64_t count) {
    SimJob& job = jobs[job_index];
    double duration;
    int attempt;
    if (kind == TaskKind::kMap) {
      job.maps_launched += count;
      free_map_slots -= count;
      if (!job.is_small) context.large_running_maps += count;
      duration = job.map_task_duration;
      attempt = job.map_attempt;
    } else {
      job.reduces_launched += count;
      free_reduce_slots -= count;
      if (!job.is_small) context.large_running_reduces += count;
      duration = job.reduce_task_duration;
      attempt = job.reduce_attempt;
    }
    int64_t& debt = kind == TaskKind::kMap ? job.map_relaunch_debt
                                           : job.reduce_relaunch_debt;
    int64_t relaunched = std::min(debt, count);
    if (relaunched > 0) {
      debt -= relaunched;
      job.retries += relaunched;
      result.failures.retries += relaunched;
    }
    if (job.first_launch_time < 0.0) job.first_launch_time = now;

    // Failure split first: an attempt that dies never straggles. Small
    // batches draw per task; large batches use the deterministic expected
    // count (same scheme the straggler model uses).
    int64_t failing = 0;
    if (failures.task_failure_probability > 0.0) {
      if (count <= 16) {
        for (int64_t t = 0; t < count; ++t) {
          if (failure_rng.NextBernoulli(failures.task_failure_probability)) {
            ++failing;
          }
        }
      } else {
        failing = static_cast<int64_t>(std::llround(
            static_cast<double>(count) * failures.task_failure_probability));
      }
    }
    if (failing > 0) {
      double waste = duration * failures.failure_point;
      queue.push(Event{now + waste, seq++, Event::Kind::kTasksFailed,
                       job_index, kind, failing, attempt, waste});
    }
    const int64_t surviving = count - failing;
    if (surviving <= 0) return;

    int64_t stragglers = 0;
    if (options.straggler_probability > 0.0) {
      if (surviving <= 16) {
        for (int64_t t = 0; t < surviving; ++t) {
          if (rng.NextBernoulli(options.straggler_probability)) ++stragglers;
        }
      } else {
        stragglers = static_cast<int64_t>(std::llround(
            static_cast<double>(surviving) * options.straggler_probability));
      }
    }
    if (surviving - stragglers > 0) {
      queue.push(Event{now + duration, seq++, Event::Kind::kTasksDone,
                       job_index, kind, surviving - stragglers, attempt,
                       duration});
    }
    if (stragglers > 0) {
      double effective_factor = options.straggler_factor;
      int64_t siblings =
          kind == TaskKind::kMap ? job.maps_total : job.reduces_total;
      if (options.speculative_execution && siblings >= 2) {
        // Siblings expose the straggler; a backup launched when they
        // finish completes at ~2x the normal duration.
        effective_factor = std::min(effective_factor, 2.0);
      }
      queue.push(Event{now + duration * effective_factor, seq++,
                       Event::Kind::kTasksDone, job_index, kind, stragglers,
                       attempt, duration * effective_factor});
    }
  };

  // A batch of `count` tasks failed at `attempt`: either the job's attempt
  // budget is exhausted (kill the job, Hadoop-style) or the tasks rejoin
  // the unlaunched pool at the next attempt level after a linear backoff.
  auto handle_attempt_failure = [&](size_t job_index, TaskKind kind,
                                    int attempt, int64_t count, double now) {
    SimJob& job = jobs[job_index];
    if (job.failed) return;
    if (attempt >= failures.max_attempts) {
      job.failed = true;
      ++result.failures.failed_jobs;
      auto it = std::find(active.begin(), active.end(), job_index);
      if (it != active.end()) active.erase(it);
      // A killed job will never meet its deadline (scored as an SLA miss)
      // and returns its tenant token immediately.
      account_sla(job, /*killed=*/true);
      release_admission(job_index, now);
      return;
    }
    int next_attempt = attempt + 1;
    if (kind == TaskKind::kMap) {
      job.map_attempt = std::max(job.map_attempt, next_attempt);
      job.map_relaunch_debt += count;
    } else {
      job.reduce_attempt = std::max(job.reduce_attempt, next_attempt);
      job.reduce_relaunch_debt += count;
    }
    double ready =
        now + failures.retry_backoff_seconds * static_cast<double>(attempt);
    if (ready > job.retry_ready_time) job.retry_ready_time = ready;
    if (ready > now) {
      queue.push(Event{ready, seq++, Event::Kind::kWake, job_index, kind, 0,
                       1, 0.0});
    }
  };

  std::vector<size_t> runnable;  // reused scratch buffer
  auto grant_kind = [&](TaskKind kind, double now) -> bool {
    int64_t& free_slots =
        kind == TaskKind::kMap ? free_map_slots : free_reduce_slots;
    int64_t total_slots =
        kind == TaskKind::kMap ? total_map_slots : total_reduce_slots;
    if (free_slots <= 0) return false;
    runnable.clear();
    for (size_t index : active) {
      // Jobs waiting out a retry backoff receive no grants; a kWake event
      // at retry_ready_time re-runs this loop. Jobs parked by admission
      // control wait for a tenant token.
      if (jobs[index].HasRunnable(kind) &&
          jobs[index].retry_ready_time <= now &&
          !jobs[index].admission_parked) {
        runnable.push_back(index);
      }
    }
    if (runnable.empty()) return false;
    int pick = scheduler->PickJob(jobs, runnable, kind,
                                  static_cast<int>(total_slots), context);
    if (pick < 0) return false;
    SimJob& job = jobs[pick];
    int64_t remaining = kind == TaskKind::kMap
                            ? job.maps_total - job.maps_launched
                            : job.reduces_total - job.reduces_launched;
    // Fair share per grant round: no single pick absorbs every free slot
    // while other jobs are runnable.
    int64_t batch =
        std::max<int64_t>(1, free_slots / static_cast<int64_t>(
                                              runnable.size()));
    batch = std::min({batch, remaining, free_slots});
    batch = std::min(
        batch, scheduler->BatchLimit(jobs, pick, kind,
                                     static_cast<int>(total_slots), context));
    if (batch < 1) return false;
    launch_batch(static_cast<size_t>(pick), kind, now, batch);
    return true;
  };

  auto schedule_loop = [&](double now) {
    context.now = now;
    bool granted = true;
    while (granted) {
      granted = false;
      granted |= grant_kind(TaskKind::kMap, now);
      granted |= grant_kind(TaskKind::kReduce, now);
    }
  };

  double last_finish = 0.0;
  while (!queue.empty()) {
    Event event = queue.top();
    queue.pop();
    int64_t busy = (total_map_slots - free_map_slots) +
                   (total_reduce_slots - free_reduce_slots);
    meter.Advance(event.time, busy, occupancy_slot_seconds);

    SimJob& job = jobs[event.job_index];
    switch (event.kind) {
      case Event::Kind::kArrival:
        active.push_back(event.job_index);
        arrived[event.job_index] = 1;
        // Admission gates only eligible jobs (arrived AND parent-free);
        // parent-blocked jobs admit from the parent-finish path.
        if (job.unfinished_parents == 0) {
          try_admit(event.job_index, event.time);
        }
        break;
      case Event::Kind::kWake:
        break;  // only here to re-enter the grant loop after a backoff
      case Event::Kind::kNodeLoss: {
        ++result.failures.node_losses;
        // One node's worth of running slots dies. Victims are drawn from
        // active jobs in arrival order (deterministic); the kill is
        // charged when the affected wave completes, matching Hadoop's
        // heartbeat-timeout detection of lost TaskTrackers.
        int64_t map_quota = options.cluster.map_slots_per_node;
        int64_t reduce_quota = options.cluster.reduce_slots_per_node;
        for (size_t index : active) {
          SimJob& victim = jobs[index];
          if (map_quota > 0) {
            int64_t take = std::min(
                map_quota, victim.maps_running() - victim.kill_pending_maps);
            if (take > 0) {
              victim.kill_pending_maps += take;
              map_quota -= take;
            }
          }
          if (reduce_quota > 0) {
            int64_t take = std::min(reduce_quota,
                                    victim.reduces_running() -
                                        victim.kill_pending_reduces);
            if (take > 0) {
              victim.kill_pending_reduces += take;
              reduce_quota -= take;
            }
          }
          if (map_quota == 0 && reduce_quota == 0) break;
        }
        // Self-reschedule while the simulation still has work; stop when
        // this was the last event so the loop terminates.
        if (!queue.empty()) {
          queue.push(Event{
              event.time + loss_rng.NextExponential(loss_rate_per_second),
              seq++, Event::Kind::kNodeLoss, 0, TaskKind::kMap, 0, 1, 0.0});
        }
        break;
      }
      case Event::Kind::kTasksFailed: {
        if (event.task_kind == TaskKind::kMap) {
          job.maps_launched -= event.count;
          free_map_slots += event.count;
          if (!job.is_small) context.large_running_maps -= event.count;
          // Tasks that died on their own also satisfy any pending
          // node-loss kill (they no longer exist to be killed later).
          job.kill_pending_maps =
              std::max<int64_t>(0, job.kill_pending_maps - event.count);
        } else {
          job.reduces_launched -= event.count;
          free_reduce_slots += event.count;
          if (!job.is_small) context.large_running_reduces -= event.count;
          job.kill_pending_reduces =
              std::max<int64_t>(0, job.kill_pending_reduces - event.count);
        }
        result.failures.task_failures += event.count;
        result.failures.failed_task_seconds +=
            static_cast<double>(event.count) * event.unit_seconds;
        context.failed_attempts += event.count;
        handle_attempt_failure(event.job_index, event.task_kind,
                               event.attempt, event.count, event.time);
        break;
      }
      case Event::Kind::kTasksDone: {
        int64_t killed = 0;
        if (event.task_kind == TaskKind::kMap) {
          if (job.kill_pending_maps > 0) {
            killed = std::min(event.count, job.kill_pending_maps);
            job.kill_pending_maps -= killed;
          }
          job.maps_finished += event.count - killed;
          job.maps_launched -= killed;
          free_map_slots += event.count;
          if (!job.is_small) context.large_running_maps -= event.count;
        } else {
          if (job.kill_pending_reduces > 0) {
            killed = std::min(event.count, job.kill_pending_reduces);
            job.kill_pending_reduces -= killed;
          }
          job.reduces_finished += event.count - killed;
          job.reduces_launched -= killed;
          free_reduce_slots += event.count;
          if (!job.is_small) context.large_running_reduces -= event.count;
        }
        if (killed > 0) {
          result.failures.tasks_lost_to_nodes += killed;
          result.failures.failed_task_seconds +=
              static_cast<double>(killed) * event.unit_seconds;
          context.failed_attempts += killed;
          handle_attempt_failure(event.job_index, event.task_kind,
                                 event.attempt, killed, event.time);
        }
        if (!job.failed && job.Finished() && job.finish_time < 0.0) {
          job.finish_time = event.time;
          last_finish = std::max(last_finish, event.time);
          active.erase(
              std::find(active.begin(), active.end(), event.job_index));
          for (size_t child : children[event.job_index]) {
            --jobs[child].unfinished_parents;
            if (jobs[child].unfinished_parents == 0 && arrived[child] != 0) {
              try_admit(child, event.time);
            }
          }
          // Token release after the children admit: a same-tenant child
          // may park here and be popped by this release, preserving the
          // per-tenant FIFO order (mirrors ReplayTrace).
          release_admission(event.job_index, event.time);
          account_sla(job, /*killed=*/false);
          JobOutcome outcome;
          outcome.job_id = job.record->job_id;
          outcome.submit_time = job.submit_time;
          outcome.latency = job.finish_time - job.submit_time;
          outcome.ideal_latency = job.IdealLatency();
          outcome.is_small = job.is_small;
          outcome.retries = job.retries;
          outcome.deadline = job.deadline;
          outcome.missed_sla =
              job.deadline >= 0.0 && job.finish_time > job.deadline;
          outcome.tenant = job.tenant_id;
          outcome.preempted_tasks = job.preempted_tasks;
          outcome.admission_delay = job.admission_wait;
          result.outcomes.push_back(outcome);
        }
        break;
      }
    }
    schedule_loop(event.time);
  }

  for (const SimJob& job : jobs) {
    if (job.finish_time < 0.0) ++result.unfinished_jobs;
  }
  result.makespan = std::max(0.0, last_finish - first_submit);
  result.hourly_occupancy.reserve(occupancy_slot_seconds.size());
  for (double slot_seconds : occupancy_slot_seconds) {
    result.hourly_occupancy.push_back(slot_seconds / 3600.0);
  }
  double capacity =
      static_cast<double>(total_map_slots + total_reduce_slots) *
      std::max(result.makespan, 1.0);
  result.utilization = meter.busy_slot_seconds() / capacity;
  return result;
}

}  // namespace swim::sim

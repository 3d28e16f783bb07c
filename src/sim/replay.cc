// High-throughput discrete-event replay core. The engine that shipped
// first (replay_legacy.cc, kept verbatim as a golden oracle) pushed every
// task batch through a std::priority_queue, rebuilt the runnable set by
// scanning all active jobs on each grant round, and advanced occupancy
// buckets hour by hour. This rebuild keeps the simulation semantics
// bit-identical - tests replay the same traces through both engines and
// require equal results to the last bit - while removing every
// per-event O(active) cost:
//
//   - Job arrivals are never queued: a cursor walks the submit-sorted
//     template and is merged with a 4-ary heap (sim/event_queue.h) that
//     holds only in-flight events - a few thousand even on a million-job
//     trace. Arrival i keeps seq i and every other event draws from the
//     same counter starting at n, so the merged order is the retired
//     engine's (time, seq) order, FIFO tie-breaks included.
//   - The runnable set is maintained incrementally: jobs enter/leave
//     per-kind runnable lists at their state transitions (arrival, batch
//     launch, batch completion/failure, parent finish, retry backoff,
//     job kill), so a grant round touches only genuinely runnable jobs.
//     Each list is kept in ascending job index, which is submit order, so
//     a policy's first-seen job wins its ties at (submit time, index) and
//     FIFO and two-tier read their pick off the front of the list - see
//     the contract in scheduler.h.
//   - Jobs waiting out a retry backoff are parked in a small time-ordered
//     heap and re-enter the runnable lists exactly when the grant round
//     reaches retry_ready_time, replacing the per-grant timestamp check.
//   - The active-job list is an intrusive doubly-linked list in arrival
//     order: O(1) unlink instead of the O(active) std::find + erase per
//     job completion. Node-loss and preemption victims are drawn from it,
//     so neither scans the whole job table.
//   - OccupancyMeter jumps idle gaps in one step instead of looping
//     bucket-by-bucket across hours where nothing was running.
//
// For sweep throughput the run is split in two phases: a
// per-trace ReplayTemplate build (SimJob skeletons, dependency CSR, job
// index — computed once, shared immutably across all configurations) and
// a cheap per-config run over plain heap vectors. ReplayTrace == Build +
// one Replay, so single runs, sweeps, and the legacy oracle all agree bit
// for bit.
#include "sim/replay.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/random.h"
#include "sim/event_queue.h"
#include "stats/descriptive.h"

namespace swim::sim {
namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

/// ReplayTemplate::Build calls in this process (ReplayTemplate::BuildCount).
std::atomic<uint64_t> build_count{0};

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

/// Integrates busy-slot counts into hourly buckets. An advance across H
/// hours costs O(1) for the boundary slices plus one write per interior
/// hour when slots are busy; an idle advance (busy_slots == 0) only
/// extends the bucket vector. The hour arithmetic mirrors the retired
/// per-slice loop exactly - same first-hour rounding, same exact
/// (h+1)*3600 boundaries - so bucket contents stay bit-identical.
class OccupancyMeter {
 public:
  void Advance(double now, int64_t busy_slots, std::vector<double>& buckets) {
    if (now <= last_time_) {
      last_time_ = std::max(last_time_, now);
      return;
    }
    const size_t first_hour = static_cast<size_t>(last_time_ / 3600.0);
    // Last hour the retired loop touched: the smallest h >= first_hour
    // with (h+1)*3600 >= now. Seed from the rounded division and settle
    // with exact-product comparisons (<= 2 steps).
    size_t last_hour = std::max(first_hour,
                                static_cast<size_t>(now / 3600.0));
    while (last_hour > first_hour &&
           static_cast<double>(last_hour) * 3600.0 >= now) {
      --last_hour;
    }
    while (static_cast<double>(last_hour + 1) * 3600.0 < now) ++last_hour;
    if (buckets.size() <= last_hour) buckets.resize(last_hour + 1, 0.0);
    const double busy = static_cast<double>(busy_slots);
    if (first_hour == last_hour) {
      buckets[first_hour] += busy * (now - last_time_);
    } else {
      buckets[first_hour] +=
          busy * (static_cast<double>(first_hour + 1) * 3600.0 - last_time_);
      if (busy_slots != 0) {
        for (size_t h = first_hour + 1; h < last_hour; ++h) {
          buckets[h] += busy * 3600.0;
        }
      }
      buckets[last_hour] +=
          busy * (now - static_cast<double>(last_hour) * 3600.0);
    }
    busy_slot_seconds_ += busy * (now - last_time_);
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

/// One replay run against a shared ReplayTemplate. Determinism contract:
/// everything below is a pure function of (template, options); the event
/// order equals the retired priority-queue engine's order, the RNG
/// streams are consumed at the same call sites, and schedulers see the
/// runnable jobs in the retired engine's order (ascending index, which is
/// arrival order), so results match ReplayTraceLegacy bit for bit.
class ReplayEngine {
 public:
  ReplayEngine(const ReplayTemplate& tpl, const ReplayOptions& options)
      : tpl_(tpl),
        options_(options),
        failures_(options.failures),
        rng_(options.seed, /*stream=*/0x51e9),
        // Dedicated streams for the failure model: enabling/disabling
        // failure injection must not perturb the straggler draws (and
        // with the model disabled these are never consulted, keeping
        // output bit-identical to pre-failure-model replays).
        failure_rng_(options.seed, /*stream=*/0xfa11),
        loss_rng_(options.seed, /*stream=*/0x10e5) {}

  StatusOr<ReplayResult> Run();

 private:
  // --- Incremental runnable tracking ----------------------------------
  //
  // A job is runnable for a kind iff it has arrived, is not failed, is
  // not parked on a retry backoff, has no unfinished parents, and has
  // unlaunched tasks of that kind (reduces additionally wait for the map
  // stage). Membership only changes at the transition points below, each
  // of which calls Refresh - an idempotent resync of both lists. The
  // lists stay sorted by job index: a binary search finds the slot, and
  // the shift on insert or erase moves contiguous indices only. A
  // per-job flag byte answers "already listed?" without the search, as
  // most Refresh calls change nothing.

  static constexpr uint8_t kListedMap = 1;
  static constexpr uint8_t kListedReduce = 2;

  void SetMembership(std::vector<size_t>& list, uint8_t flag, size_t i,
                     bool want) {
    if (want == ((listed_[i] & flag) != 0)) return;
    listed_[i] ^= flag;
    const auto it = std::lower_bound(list.begin(), list.end(), i);
    if (want) {
      list.insert(it, i);
    } else {
      list.erase(it);
    }
  }

  void Refresh(size_t i) {
    const SimJob& job = jobs_[i];
    const bool base = arrived_[i] != 0 && !job.failed && parked_[i] == 0 &&
                      job.unfinished_parents == 0 && !job.admission_parked;
    SetMembership(runnable_maps_, kListedMap, i,
                  base && job.maps_launched < job.maps_total);
    SetMembership(runnable_reduces_, kListedReduce, i,
                  base && job.maps_done() &&
                      job.reduces_launched < job.reduces_total);
  }

  // --- Active list (arrival order: node-loss and preemption victims) --

  void LinkActive(size_t i) {
    in_active_[i] = 1;
    active_prev_[i] = active_tail_;
    active_next_[i] = kNone;
    if (active_tail_ != kNone) {
      active_next_[active_tail_] = i;
    } else {
      active_head_ = i;
    }
    active_tail_ = i;
  }

  void UnlinkActive(size_t i) {
    if (!in_active_[i]) return;
    in_active_[i] = 0;
    const size_t prev = active_prev_[i];
    const size_t next = active_next_[i];
    if (prev != kNone) {
      active_next_[prev] = next;
    } else {
      active_head_ = next;
    }
    if (next != kNone) {
      active_prev_[next] = prev;
    } else {
      active_tail_ = prev;
    }
  }

  // --- Event stream ---------------------------------------------------
  //
  // Arrival i has seq i and in-flight events take seqs from n up, so at
  // equal times an arrival pops first: exactly the order of a single queue
  // seeded with every arrival up front.

  bool WorkRemains() const {
    return next_arrival_ < jobs_.size() || !queue_.empty();
  }

  Event NextEvent() {
    if (next_arrival_ < jobs_.size() &&
        (queue_.empty() ||
         jobs_[next_arrival_].submit_time <= queue_.Top().time)) {
      const size_t i = next_arrival_++;
      return Event{jobs_[i].submit_time, i, Event::Kind::kArrival, i};
    }
    return queue_.Pop();
  }

  // --- Engine steps ---------------------------------------------------

  void PushEvent(double time, Event::Kind kind, size_t job_index,
                 TaskKind task_kind, int64_t count, int attempt,
                 double unit_seconds) {
    queue_.Push(Event{time, seq_++, kind, job_index, task_kind, count,
                      attempt, unit_seconds});
  }

  void LaunchBatch(size_t job_index, TaskKind kind, double now,
                   int64_t count);
  void HandleAttemptFailure(size_t job_index, TaskKind kind, int attempt,
                            int64_t count, double now);
  bool GrantKind(TaskKind kind, double now);
  void ScheduleLoop(double now);

  // --- SLA tier (admission control, elephant preemption, accounting) ---

  /// Admission control: called when a job becomes eligible (arrived with
  /// no unfinished parents). Grants a tenant token if one is free, else
  /// parks the job on its tenant's FIFO queue; parked jobs are never
  /// runnable. No-op when admission is disabled or the token is held.
  void TryAdmit(size_t i, double now);
  /// Returns the tenant token at job finish/kill and admits the tenant's
  /// longest-parked job, if any.
  void ReleaseAdmission(size_t i, double now);
  /// One elephant-preemption round for a kind: with no free slot and an
  /// interactive job runnable, revoke running tasks from the largest
  /// large job and launch the interactive job into the freed slots
  /// directly (bypassing PickJob, so a FIFO-ranked elephant cannot
  /// re-absorb them). Returns true if tasks were revoked.
  bool PreemptKind(TaskKind kind, double now);
  /// Deadline-miss + per-tenant accounting at job end (finish or kill).
  void AccountSla(const SimJob& job, bool killed);

  const ReplayTemplate& tpl_;
  const ReplayOptions& options_;
  const FailureOptions& failures_;
  Pcg32 rng_;
  Pcg32 failure_rng_;
  Pcg32 loss_rng_;

  std::vector<SimJob> jobs_;
  std::unique_ptr<Scheduler> scheduler_;
  /// In-flight events only; arrivals stream from jobs_ via next_arrival_.
  DaryEventHeap<Event> queue_;
  size_t next_arrival_ = 0;
  uint64_t seq_ = 0;

  int64_t total_map_slots_ = 0;
  int64_t total_reduce_slots_ = 0;
  int64_t free_map_slots_ = 0;
  int64_t free_reduce_slots_ = 0;
  SchedulerContext context_;
  OccupancyMeter meter_;
  std::vector<double> occupancy_slot_seconds_;
  ReplayResult result_;

  std::vector<uint8_t> arrived_;
  std::vector<uint8_t> parked_;
  /// kListedMap / kListedReduce bits: job i is in that runnable list.
  std::vector<uint8_t> listed_;
  /// Runnable job indices per kind, ascending.
  std::vector<size_t> runnable_maps_;
  std::vector<size_t> runnable_reduces_;

  std::vector<uint8_t> in_active_;
  std::vector<size_t> active_prev_;
  std::vector<size_t> active_next_;
  size_t active_head_ = kNone;
  size_t active_tail_ = kNone;

  /// (retry_ready_time, job index) min-heap of parked jobs. Entries are
  /// lazy: retry_ready_time may have been raised after an entry was
  /// pushed, in which case the stale entry re-parks itself on pop.
  std::vector<std::pair<double, size_t>> parked_heap_;

  // --- Admission control state (sized only when enabled) ---------------
  /// Whether job i currently holds its tenant's token. A job acquires the
  /// token once (at eligibility or when popped from the park queue) and
  /// returns it once (finish or kill), so parking happens at most once
  /// per job.
  std::vector<uint8_t> admitted_;
  /// Intrusive per-tenant FIFO park queues: adm_next_[i] links jobs, one
  /// (head, tail) pair per tenant.
  std::vector<size_t> adm_next_;
  std::vector<size_t> adm_head_;
  std::vector<size_t> adm_tail_;
  /// Tokens held per tenant (admitted jobs not yet finished/killed).
  std::vector<int64_t> tenant_running_;

  /// Elephant preemption: revocations remaining this run.
  int64_t preempt_budget_left_ = 0;
};

// Launches `count` tasks of one kind as at most three events: a failing
// portion (dies at failure_point of the duration), plus regular and
// straggling completions of the survivors.
void ReplayEngine::LaunchBatch(size_t job_index, TaskKind kind, double now,
                               int64_t count) {
  SimJob& job = jobs_[job_index];
  double duration;
  int attempt;
  if (kind == TaskKind::kMap) {
    job.maps_launched += count;
    free_map_slots_ -= count;
    if (!job.is_small) context_.large_running_maps += count;
    duration = job.map_task_duration;
    attempt = job.map_attempt;
  } else {
    job.reduces_launched += count;
    free_reduce_slots_ -= count;
    if (!job.is_small) context_.large_running_reduces += count;
    duration = job.reduce_task_duration;
    attempt = job.reduce_attempt;
  }
  int64_t& debt = kind == TaskKind::kMap ? job.map_relaunch_debt
                                         : job.reduce_relaunch_debt;
  int64_t relaunched = std::min(debt, count);
  if (relaunched > 0) {
    debt -= relaunched;
    job.retries += relaunched;
    result_.failures.retries += relaunched;
  }
  if (job.first_launch_time < 0.0) job.first_launch_time = now;

  // Failure split first: an attempt that dies never straggles. Small
  // batches draw per task; large batches use the deterministic expected
  // count (same scheme the straggler model uses).
  int64_t failing = 0;
  if (failures_.task_failure_probability > 0.0) {
    if (count <= 16) {
      for (int64_t t = 0; t < count; ++t) {
        if (failure_rng_.NextBernoulli(failures_.task_failure_probability)) {
          ++failing;
        }
      }
    } else {
      failing = static_cast<int64_t>(std::llround(
          static_cast<double>(count) * failures_.task_failure_probability));
    }
  }
  if (failing > 0) {
    double waste = duration * failures_.failure_point;
    PushEvent(now + waste, Event::Kind::kTasksFailed, job_index, kind,
              failing, attempt, waste);
  }
  const int64_t surviving = count - failing;
  if (surviving <= 0) {
    Refresh(job_index);
    return;
  }

  int64_t stragglers = 0;
  if (options_.straggler_probability > 0.0) {
    if (surviving <= 16) {
      for (int64_t t = 0; t < surviving; ++t) {
        if (rng_.NextBernoulli(options_.straggler_probability)) ++stragglers;
      }
    } else {
      stragglers = static_cast<int64_t>(std::llround(
          static_cast<double>(surviving) * options_.straggler_probability));
    }
  }
  if (surviving - stragglers > 0) {
    PushEvent(now + duration, Event::Kind::kTasksDone, job_index, kind,
              surviving - stragglers, attempt, duration);
  }
  if (stragglers > 0) {
    double effective_factor = options_.straggler_factor;
    int64_t siblings =
        kind == TaskKind::kMap ? job.maps_total : job.reduces_total;
    if (options_.speculative_execution && siblings >= 2) {
      // Siblings expose the straggler; a backup launched when they
      // finish completes at ~2x the normal duration.
      effective_factor = std::min(effective_factor, 2.0);
    }
    PushEvent(now + duration * effective_factor, Event::Kind::kTasksDone,
              job_index, kind, stragglers, attempt,
              duration * effective_factor);
  }
  Refresh(job_index);
}

// A batch of `count` tasks failed at `attempt`: either the job's attempt
// budget is exhausted (kill the job, Hadoop-style) or the tasks rejoin
// the unlaunched pool at the next attempt level after a linear backoff.
void ReplayEngine::HandleAttemptFailure(size_t job_index, TaskKind kind,
                                        int attempt, int64_t count,
                                        double now) {
  SimJob& job = jobs_[job_index];
  if (job.failed) return;
  if (attempt >= failures_.max_attempts) {
    job.failed = true;
    ++result_.failures.failed_jobs;
    UnlinkActive(job_index);
    // A killed job will never meet its deadline (scored as an SLA miss)
    // and returns its tenant token immediately.
    AccountSla(job, /*killed=*/true);
    ReleaseAdmission(job_index, now);
    Refresh(job_index);
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
      now + failures_.retry_backoff_seconds * static_cast<double>(attempt);
  if (ready > job.retry_ready_time) job.retry_ready_time = ready;
  // The kWake event is pushed exactly as the retired engine did (even
  // when a later wake already covers this job): it re-enters the grant
  // loop at the backoff expiry, and skipping it would shift the shared
  // seq counter and change FIFO tie-breaks downstream.
  if (ready > now) {
    PushEvent(ready, Event::Kind::kWake, job_index, kind, 0, 1, 0.0);
  }
  if (job.retry_ready_time > now && !parked_[job_index]) {
    parked_[job_index] = 1;
    parked_heap_.emplace_back(job.retry_ready_time, job_index);
    std::push_heap(parked_heap_.begin(), parked_heap_.end(),
                   std::greater<>());
    Refresh(job_index);
  }
}

void ReplayEngine::TryAdmit(size_t i, double now) {
  if (!options_.sla.admission_enabled() || admitted_[i]) return;
  SimJob& job = jobs_[i];
  const int tenant = job.tenant_id;
  if (tenant_running_[tenant] < options_.sla.tenant_max_running) {
    admitted_[i] = 1;
    ++tenant_running_[tenant];
    if (job.admission_parked) {
      job.admission_parked = false;
      job.admission_wait = now - job.admission_park_time;
    }
    Refresh(i);
  } else {
    job.admission_parked = true;
    job.admission_park_time = now;
    adm_next_[i] = kNone;
    if (adm_tail_[tenant] != kNone) {
      adm_next_[adm_tail_[tenant]] = i;
    } else {
      adm_head_[tenant] = i;
    }
    adm_tail_[tenant] = i;
  }
}

void ReplayEngine::ReleaseAdmission(size_t i, double now) {
  if (!options_.sla.admission_enabled() || !admitted_[i]) return;
  admitted_[i] = 0;
  const int tenant = jobs_[i].tenant_id;
  --tenant_running_[tenant];
  const size_t next = adm_head_[tenant];
  if (next != kNone) {
    adm_head_[tenant] = adm_next_[next];
    if (adm_head_[tenant] == kNone) adm_tail_[tenant] = kNone;
    adm_next_[next] = kNone;
    // The token just freed guarantees this admit succeeds, keeping the
    // queue strictly FIFO per tenant.
    TryAdmit(next, now);
  }
}

bool ReplayEngine::PreemptKind(TaskKind kind, double now) {
  if (preempt_budget_left_ <= 0) return false;
  int64_t& free_slots =
      kind == TaskKind::kMap ? free_map_slots_ : free_reduce_slots_;
  if (free_slots > 0) return false;
  const std::vector<size_t>& runnable =
      kind == TaskKind::kMap ? runnable_maps_ : runnable_reduces_;
  // Earliest-submitted interactive job with unlaunched tasks of `kind`
  // (ties to lowest index, like every policy): the first small job in
  // the index-ordered list.
  const auto want_it =
      std::find_if(runnable.begin(), runnable.end(),
                   [this](size_t index) { return jobs_[index].is_small; });
  if (want_it == runnable.end()) return false;
  const size_t want = *want_it;
  // Victim: the large job with the most remaining work among those with
  // revocable running tasks of the kind (running minus tasks already
  // reserved by node-loss kills or earlier revocations). Ties break to
  // the latest-submitted, highest-index elephant - preempting the
  // youngest equal-size victim loses the least sunk scheduling progress.
  // Only active jobs (arrived, neither finished nor killed) hold running
  // tasks, and the active list runs in index order, so the walk covers
  // it alone and the last job seen at the most work wins the tie.
  size_t victim = kNone;
  double victim_work = -1.0;
  int64_t victim_revocable = 0;
  for (size_t i = active_head_; i != kNone; i = active_next_[i]) {
    const SimJob& job = jobs_[i];
    if (job.is_small) continue;
    const int64_t pinned =
        kind == TaskKind::kMap
            ? job.kill_pending_maps + job.preempt_pending_maps
            : job.kill_pending_reduces + job.preempt_pending_reduces;
    const int64_t revocable =
        (kind == TaskKind::kMap ? job.maps_running()
                                : job.reduces_running()) -
        pinned;
    if (revocable <= 0) continue;
    const double work = job.RemainingWork();
    if (work >= victim_work) {
      victim = i;
      victim_work = work;
      victim_revocable = revocable;
    }
  }
  if (victim == kNone) return false;
  SimJob& interactive = jobs_[want];
  SimJob& elephant = jobs_[victim];
  const int64_t need =
      kind == TaskKind::kMap
          ? interactive.maps_total - interactive.maps_launched
          : interactive.reduces_total - interactive.reduces_launched;
  const int64_t revoke =
      std::min({need, victim_revocable, preempt_budget_left_});
  if (revoke <= 0) return false;
  // Revocation: the tasks leave the running pool now (slots free, counts
  // roll back) and re-join the unlaunched pool via relaunch debt, so
  // their re-launch is counted as retries exactly like failure recovery.
  // Their already-queued completion/failure events are swallowed later
  // through preempt_pending (mirroring kill_pending's heartbeat-timeout
  // consumption).
  if (kind == TaskKind::kMap) {
    elephant.maps_launched -= revoke;
    elephant.preempt_pending_maps += revoke;
    elephant.map_relaunch_debt += revoke;
    context_.large_running_maps -= revoke;
  } else {
    elephant.reduces_launched -= revoke;
    elephant.preempt_pending_reduces += revoke;
    elephant.reduce_relaunch_debt += revoke;
    context_.large_running_reduces -= revoke;
  }
  free_slots += revoke;
  elephant.preempted_tasks += revoke;
  result_.sla.preempted_tasks += revoke;
  ++result_.sla.preemption_rounds;
  preempt_budget_left_ -= revoke;
  Refresh(victim);
  LaunchBatch(want, kind, now, revoke);
  return true;
}

void ReplayEngine::AccountSla(const SimJob& job, bool killed) {
  if (job.deadline >= 0.0) {
    const bool missed = killed || job.finish_time > job.deadline;
    if (job.is_small) {
      ++result_.sla.small_jobs_with_deadline;
      if (missed) ++result_.sla.small_misses;
    } else {
      ++result_.sla.large_jobs_with_deadline;
      if (missed) ++result_.sla.large_misses;
    }
  }
  if (options_.sla.admission_enabled()) {
    TenantStats& tenant = result_.sla.tenants[job.tenant_id];
    ++tenant.jobs;
    if (job.admission_park_time >= 0.0) {
      ++tenant.parked_jobs;
      ++result_.sla.admission_parked_jobs;
      tenant.total_admission_delay += job.admission_wait;
      result_.sla.total_admission_delay += job.admission_wait;
      tenant.max_admission_delay =
          std::max(tenant.max_admission_delay, job.admission_wait);
    }
  }
}

bool ReplayEngine::GrantKind(TaskKind kind, double now) {
  int64_t& free_slots =
      kind == TaskKind::kMap ? free_map_slots_ : free_reduce_slots_;
  if (free_slots <= 0) return false;
  const std::vector<size_t>& runnable =
      kind == TaskKind::kMap ? runnable_maps_ : runnable_reduces_;
  if (runnable.empty()) return false;
  int64_t total_slots =
      kind == TaskKind::kMap ? total_map_slots_ : total_reduce_slots_;
  int pick = scheduler_->PickJob(jobs_, runnable, kind,
                                 static_cast<int>(total_slots), context_);
  if (pick < 0) return false;
  SimJob& job = jobs_[pick];
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
      batch, scheduler_->BatchLimit(jobs_, pick, kind,
                                    static_cast<int>(total_slots), context_));
  if (batch < 1) return false;
  LaunchBatch(static_cast<size_t>(pick), kind, now, batch);
  return true;
}

void ReplayEngine::ScheduleLoop(double now) {
  context_.now = now;
  // Unpark every job whose retry backoff has expired before granting, so
  // the runnable lists equal the retired engine's per-grant
  // retry_ready_time <= now filter even when the expiry coincides with
  // another event at the same timestamp.
  while (!parked_heap_.empty() && parked_heap_.front().first <= now) {
    std::pop_heap(parked_heap_.begin(), parked_heap_.end(),
                  std::greater<>());
    size_t job_index = parked_heap_.back().second;
    parked_heap_.pop_back();
    if (!parked_[job_index]) continue;  // stale entry
    if (jobs_[job_index].retry_ready_time <= now) {
      parked_[job_index] = 0;
      Refresh(job_index);
    } else {
      // The backoff was extended after this entry was pushed; re-park at
      // the current expiry.
      parked_heap_.emplace_back(jobs_[job_index].retry_ready_time,
                                job_index);
      std::push_heap(parked_heap_.begin(), parked_heap_.end(),
                     std::greater<>());
    }
  }
  bool granted = true;
  while (granted) {
    granted = false;
    granted |= GrantKind(TaskKind::kMap, now);
    granted |= GrantKind(TaskKind::kReduce, now);
  }
  // Elephant preemption runs after normal grants: only when a pool is
  // saturated and an interactive job is still waiting may running
  // elephant tasks be revoked. The loop is bounded by the per-run budget
  // (each successful round revokes >= 1 task).
  if (preempt_budget_left_ > 0) {
    bool preempted = true;
    while (preempted) {
      preempted = false;
      preempted |= PreemptKind(TaskKind::kMap, now);
      preempted |= PreemptKind(TaskKind::kReduce, now);
    }
  }
}

StatusOr<ReplayResult> ReplayEngine::Run() {
  if (options_.cluster.nodes <= 0 ||
      options_.cluster.map_slots_per_node <= 0 ||
      options_.cluster.reduce_slots_per_node < 0) {
    return InvalidArgumentError("invalid cluster configuration");
  }
  Status failure_status = ValidateFailureOptions(failures_);
  if (!failure_status.ok()) return failure_status;
  Status sla_status = ValidateSlaOptions(options_.sla);
  if (!sla_status.ok()) return sla_status;

  auto scheduler = MakeScheduler(options_.scheduler);
  if (!scheduler.ok()) return scheduler.status();
  scheduler_ = std::move(scheduler).value();
  preempt_budget_left_ = options_.sla.preemption_budget;

  // The outcomes buffer is the one allocation that outlives the run, so
  // it is made before the run's transient tables. malloc gives memory
  // back only from the top of a heap; allocated after the tables, the
  // outcomes would sit above them and pin their pages between sweep cells.
  result_.outcomes.reserve(tpl_.job_count());

  // The per-trace build phase already happened (shared ReplayTemplate);
  // a run starts from a bulk copy of the skeletons — SimJob is trivially
  // copyable, so this is one memcpy-shaped pass.
  jobs_.assign(tpl_.jobs().begin(), tpl_.jobs().end());

  const size_t n = jobs_.size();
  arrived_.assign(n, 0);
  parked_.assign(n, 0);
  listed_.assign(n, 0);
  in_active_.assign(n, 0);
  active_prev_.assign(n, kNone);
  active_next_.assign(n, kNone);
  runnable_maps_.reserve(n);
  runnable_reduces_.reserve(n);

  if (options_.sla.admission_enabled()) {
    admitted_.assign(n, 0);
    adm_next_.assign(n, kNone);
    adm_head_.assign(static_cast<size_t>(options_.sla.tenants), kNone);
    adm_tail_.assign(static_cast<size_t>(options_.sla.tenants), kNone);
    tenant_running_.assign(static_cast<size_t>(options_.sla.tenants), 0);
    result_.sla.tenants.resize(static_cast<size_t>(options_.sla.tenants));
    for (int t = 0; t < options_.sla.tenants; ++t) {
      result_.sla.tenants[static_cast<size_t>(t)].tenant = t;
    }
  }

  seq_ = n;  // seqs below n belong to the arrivals

  total_map_slots_ = options_.cluster.total_map_slots();
  total_reduce_slots_ = options_.cluster.total_reduce_slots();
  free_map_slots_ = total_map_slots_;
  free_reduce_slots_ = total_reduce_slots_;

  result_.scheduler = scheduler_->name();

  const double first_submit = tpl_.first_submit();
  const double loss_rate_per_second = failures_.node_loss_per_hour / 3600.0;
  if (loss_rate_per_second > 0.0) {
    PushEvent(first_submit + loss_rng_.NextExponential(loss_rate_per_second),
              Event::Kind::kNodeLoss, 0, TaskKind::kMap, 0, 1, 0.0);
  }

  double last_finish = 0.0;
  while (WorkRemains()) {
    Event event = NextEvent();
    int64_t busy = (total_map_slots_ - free_map_slots_) +
                   (total_reduce_slots_ - free_reduce_slots_);
    meter_.Advance(event.time, busy, occupancy_slot_seconds_);

    SimJob& job = jobs_[event.job_index];
    switch (event.kind) {
      case Event::Kind::kArrival:
        arrived_[event.job_index] = 1;
        LinkActive(event.job_index);
        // Admission gates only eligible jobs (arrived AND parent-free):
        // a parent-blocked job must not hold a tenant token its own
        // parent is waiting for. Parent-blocked jobs admit from the
        // parent-finish path instead.
        if (job.unfinished_parents == 0) {
          TryAdmit(event.job_index, event.time);
        }
        Refresh(event.job_index);
        break;
      case Event::Kind::kWake:
        break;  // only here to re-enter the grant loop after a backoff
      case Event::Kind::kNodeLoss: {
        ++result_.failures.node_losses;
        // One node's worth of running slots dies. Victims are drawn from
        // active jobs in arrival order (deterministic); the kill is
        // charged when the affected wave completes, matching Hadoop's
        // heartbeat-timeout detection of lost TaskTrackers.
        int64_t map_quota = options_.cluster.map_slots_per_node;
        int64_t reduce_quota = options_.cluster.reduce_slots_per_node;
        for (size_t index = active_head_; index != kNone;
             index = active_next_[index]) {
          SimJob& victim = jobs_[index];
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
        // Self-reschedule while the simulation still has work (in-flight
        // events or arrivals to come); stop when this was the last event
        // so the loop terminates.
        if (WorkRemains()) {
          PushEvent(event.time + loss_rng_.NextExponential(
                                     loss_rate_per_second),
                    Event::Kind::kNodeLoss, 0, TaskKind::kMap, 0, 1, 0.0);
        }
        break;
      }
      case Event::Kind::kTasksFailed: {
        // Preempted tasks consumed first: a revoked task already left the
        // running pool (slot freed, launch count rolled back) and sits in
        // the relaunch-debt queue - its old in-flight failure must not
        // fail it a second time.
        int64_t& preempt_pending = event.task_kind == TaskKind::kMap
                                       ? job.preempt_pending_maps
                                       : job.preempt_pending_reduces;
        const int64_t revoked = std::min(event.count, preempt_pending);
        preempt_pending -= revoked;
        const int64_t effective = event.count - revoked;
        if (event.task_kind == TaskKind::kMap) {
          job.maps_launched -= effective;
          free_map_slots_ += effective;
          if (!job.is_small) context_.large_running_maps -= effective;
          // Tasks that died on their own also satisfy any pending
          // node-loss kill (they no longer exist to be killed later).
          job.kill_pending_maps =
              std::max<int64_t>(0, job.kill_pending_maps - effective);
        } else {
          job.reduces_launched -= effective;
          free_reduce_slots_ += effective;
          if (!job.is_small) context_.large_running_reduces -= effective;
          job.kill_pending_reduces =
              std::max<int64_t>(0, job.kill_pending_reduces - effective);
        }
        result_.failures.task_failures += effective;
        result_.failures.failed_task_seconds +=
            static_cast<double>(effective) * event.unit_seconds;
        context_.failed_attempts += effective;
        if (effective > 0) {
          HandleAttemptFailure(event.job_index, event.task_kind,
                               event.attempt, effective, event.time);
        }
        Refresh(event.job_index);
        break;
      }
      case Event::Kind::kTasksDone: {
        int64_t killed = 0;
        // Node-loss kills consume completions first (they reserved
        // running tasks), then preempted tasks are swallowed: a revoked
        // task's slot was freed and its launch count rolled back at
        // revocation time, so this event neither finishes nor re-frees
        // it.
        int64_t revoked = 0;
        if (event.task_kind == TaskKind::kMap) {
          if (job.kill_pending_maps > 0) {
            killed = std::min(event.count, job.kill_pending_maps);
            job.kill_pending_maps -= killed;
          }
          if (job.preempt_pending_maps > 0) {
            revoked = std::min(event.count - killed,
                               job.preempt_pending_maps);
            job.preempt_pending_maps -= revoked;
          }
          job.maps_finished += event.count - killed - revoked;
          job.maps_launched -= killed;
          free_map_slots_ += event.count - revoked;
          if (!job.is_small) {
            context_.large_running_maps -= event.count - revoked;
          }
        } else {
          if (job.kill_pending_reduces > 0) {
            killed = std::min(event.count, job.kill_pending_reduces);
            job.kill_pending_reduces -= killed;
          }
          if (job.preempt_pending_reduces > 0) {
            revoked = std::min(event.count - killed,
                               job.preempt_pending_reduces);
            job.preempt_pending_reduces -= revoked;
          }
          job.reduces_finished += event.count - killed - revoked;
          job.reduces_launched -= killed;
          free_reduce_slots_ += event.count - revoked;
          if (!job.is_small) {
            context_.large_running_reduces -= event.count - revoked;
          }
        }
        if (killed > 0) {
          result_.failures.tasks_lost_to_nodes += killed;
          result_.failures.failed_task_seconds +=
              static_cast<double>(killed) * event.unit_seconds;
          context_.failed_attempts += killed;
          HandleAttemptFailure(event.job_index, event.task_kind,
                               event.attempt, killed, event.time);
        }
        if (!job.failed && job.Finished() && job.finish_time < 0.0) {
          job.finish_time = event.time;
          last_finish = std::max(last_finish, event.time);
          UnlinkActive(event.job_index);
          if (!tpl_.child_offsets().empty()) {
            const std::vector<uint32_t>& offsets = tpl_.child_offsets();
            const std::vector<uint32_t>& index = tpl_.child_index();
            for (uint32_t c = offsets[event.job_index];
                 c < offsets[event.job_index + 1]; ++c) {
              const size_t child = index[c];
              --jobs_[child].unfinished_parents;
              if (jobs_[child].unfinished_parents == 0 &&
                  arrived_[child] != 0) {
                TryAdmit(child, event.time);
              }
              Refresh(child);
            }
          }
          // Token release after the children admit: a same-tenant child
          // may park here and be popped by this release, preserving the
          // per-tenant FIFO order.
          ReleaseAdmission(event.job_index, event.time);
          AccountSla(job, /*killed=*/false);
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
          result_.outcomes.push_back(outcome);
        }
        Refresh(event.job_index);
        break;
      }
    }
    ScheduleLoop(event.time);
  }

  for (const SimJob& job : jobs_) {
    if (job.finish_time < 0.0) ++result_.unfinished_jobs;
  }
  result_.makespan = std::max(0.0, last_finish - first_submit);
  result_.hourly_occupancy.reserve(occupancy_slot_seconds_.size());
  for (double slot_seconds : occupancy_slot_seconds_) {
    result_.hourly_occupancy.push_back(slot_seconds / 3600.0);
  }
  double capacity =
      static_cast<double>(total_map_slots_ + total_reduce_slots_) *
      std::max(result_.makespan, 1.0);
  result_.utilization = meter_.busy_slot_seconds() / capacity;
  return std::move(result_);
}

}  // namespace

stats::SortedStats ReplayResult::LatencyStats(bool small_jobs) const {
  std::vector<double> latencies;
  for (const auto& o : outcomes) {
    if (o.is_small == small_jobs) latencies.push_back(o.latency);
  }
  return stats::SortedStats(std::move(latencies));
}

double ReplayResult::LatencyQuantile(bool small_jobs, double p) const {
  return LatencyStats(small_jobs).Quantile(p);
}

double ReplayResult::MeanSlowdown(bool small_jobs) const {
  double total = 0.0;
  size_t count = 0;
  for (const auto& o : outcomes) {
    if (o.is_small == small_jobs) {
      total += o.Slowdown();
      ++count;
    }
  }
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

size_t ReplayResult::CountJobs(bool small_jobs) const {
  size_t count = 0;
  for (const auto& o : outcomes) {
    if (o.is_small == small_jobs) ++count;
  }
  return count;
}

namespace {

bool SameDependencies(
    const FlatHashMap<uint64_t, std::vector<uint64_t>>& a,
    const FlatHashMap<uint64_t, std::vector<uint64_t>>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [child, parents] : a) {
    auto it = b.find(child);
    if (it == b.end() || it->second != parents) return false;
  }
  return true;
}

}  // namespace

StatusOr<ReplayTemplate> ReplayTemplate::Build(const trace::Trace& trace,
                                               const ReplayOptions& base) {
  build_count.fetch_add(1, std::memory_order_relaxed);
  if (trace.empty()) return InvalidArgumentError("empty trace");
  if (base.max_tasks_per_job < 1) {
    return InvalidArgumentError("max_tasks_per_job must be >= 1");
  }
  Status sla_status = ValidateSlaOptions(base.sla);
  if (!sla_status.ok()) return sla_status;

  ReplayTemplate tpl;
  tpl.max_tasks_per_job_ = base.max_tasks_per_job;
  tpl.small_job_bytes_ = base.small_job_bytes;
  tpl.sla_small_multiplier_ = base.sla.small_multiplier;
  tpl.sla_large_multiplier_ = base.sla.large_multiplier;
  tpl.sla_tenants_ = base.sla.tenants;
  tpl.dependencies_ = base.dependencies;

  // Build the job skeletons. trace.jobs() is submit-sorted even when the
  // trace was assembled out of order, and the engine's arrival cursor
  // relies on that. This is the exact conversion the engine used to run
  // per replay.
  tpl.jobs_.reserve(trace.size());
  for (const auto& record : trace.jobs()) {
    SimJob job;
    job.record = &record;
    job.submit_time = record.submit_time;
    job.is_small = record.TotalBytes() < base.small_job_bytes;
    job.maps_total = std::min(std::max<int64_t>(record.map_tasks, 1),
                              base.max_tasks_per_job);
    job.map_task_duration = std::max(
        record.map_task_seconds / static_cast<double>(job.maps_total), 1e-3);
    job.reduces_total =
        std::min(record.reduce_tasks, base.max_tasks_per_job);
    if (job.reduces_total > 0) {
      job.reduce_task_duration =
          std::max(record.reduce_task_seconds /
                       static_cast<double>(job.reduces_total),
                   1e-3);
    }
    // SLA tier: the deadline is an ideal-latency multiple (per class),
    // absolute from the submit time; the tenant is a stable hash of the
    // job id so sweeps over cluster size keep tenant assignment fixed.
    job.deadline = job.submit_time +
                   job.IdealLatency() * (job.is_small
                                             ? base.sla.small_multiplier
                                             : base.sla.large_multiplier);
    if (base.sla.tenants > 0) {
      job.tenant_id = static_cast<int>(
          record.job_id % static_cast<uint64_t>(base.sla.tenants));
    }
    tpl.jobs_.push_back(job);
  }
  tpl.first_submit_ = tpl.jobs_.front().submit_time;

  // Workflow dependencies: resolve job ids to indices, wire parent
  // counters into the skeletons, and flatten child lists to CSR (two
  // passes over the map; per-parent child order matches the old
  // vector-of-vectors fill order).
  if (!base.dependencies.empty()) {
    FlatHashMap<uint64_t, size_t> index_of;
    index_of.reserve(tpl.jobs_.size());
    for (size_t i = 0; i < tpl.jobs_.size(); ++i) {
      index_of[tpl.jobs_[i].record->job_id] = i;
    }
    const size_t n = tpl.jobs_.size();
    std::vector<uint32_t> counts(n, 0);
    for (const auto& [child_id, parent_ids] : base.dependencies) {
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
        ++tpl.jobs_[child_it->second].unfinished_parents;
        ++counts[parent_it->second];
      }
    }
    tpl.child_offsets_.assign(n + 1, 0);
    for (size_t i = 0; i < n; ++i) {
      tpl.child_offsets_[i + 1] = tpl.child_offsets_[i] + counts[i];
    }
    tpl.child_index_.resize(tpl.child_offsets_[n]);
    std::vector<uint32_t> cursor(tpl.child_offsets_.begin(),
                                 tpl.child_offsets_.end() - 1);
    for (const auto& [child_id, parent_ids] : base.dependencies) {
      const size_t child = index_of.find(child_id)->second;
      for (uint64_t parent_id : parent_ids) {
        const size_t parent = index_of.find(parent_id)->second;
        tpl.child_index_[cursor[parent]++] = static_cast<uint32_t>(child);
      }
    }
  }
  return tpl;
}

uint64_t ReplayTemplate::BuildCount() {
  return build_count.load(std::memory_order_relaxed);
}

bool ReplayTemplate::Compatible(const ReplayOptions& options) const {
  return options.max_tasks_per_job == max_tasks_per_job_ &&
         options.small_job_bytes == small_job_bytes_ &&
         options.sla.small_multiplier == sla_small_multiplier_ &&
         options.sla.large_multiplier == sla_large_multiplier_ &&
         options.sla.tenants == sla_tenants_ &&
         SameDependencies(options.dependencies, dependencies_);
}

StatusOr<ReplayResult> ReplayTemplate::Replay(
    const ReplayOptions& options) const {
  if (!Compatible(options)) {
    return InvalidArgumentError(
        "replay options disagree with the template's captured "
        "max_tasks_per_job / small_job_bytes / dependencies / SLA shape");
  }
  return ReplayEngine(*this, options).Run();
}

StatusOr<ReplayResult> ReplayTrace(const trace::Trace& trace,
                                   const ReplayOptions& options) {
  auto tpl = ReplayTemplate::Build(trace, options);
  if (!tpl.ok()) return tpl.status();
  return tpl->Replay(options);
}

}  // namespace swim::sim

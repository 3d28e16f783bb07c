#ifndef SWIM_SIM_SCHEDULER_H_
#define SWIM_SIM_SCHEDULER_H_

#include <limits>
#include <memory>
#include <string>

#include "common/span.h"
#include "common/statusor.h"
#include "sim/sim_job.h"

namespace swim::sim {

/// Cheap aggregate state the engine maintains so policies need not scan
/// the full job table on every grant.
struct SchedulerContext {
  int64_t large_running_maps = 0;
  int64_t large_running_reduces = 0;

  /// Simulated time of the current grant round. Lets policies reason about
  /// waiting time or failure backoff without a clock side-channel.
  double now = 0.0;

  /// Task attempts lost to injected failures so far (probability failures
  /// + node losses). Zero when failure injection is disabled.
  int64_t failed_attempts = 0;

  int64_t LargeRunning(TaskKind kind) const {
    return kind == TaskKind::kMap ? large_running_maps
                                  : large_running_reduces;
  }
};

/// Slot-granting policy: given the job table and the indices of jobs with
/// a runnable task of `kind`, returns the index (into `jobs`) of the job to
/// grant the next free slot, or -1 to leave the slot idle. Called once per
/// grant, so policies can be stateful.
///
/// Order contract: `runnable` is in ascending job index, and the job
/// table is in submit order (ReplayTemplate::Build indexes jobs as
/// trace.jobs() yields them), so index order is (submit time, index)
/// order. All built-in policies pin ties to (earliest submit time, then
/// lowest job index) by scanning in list order and keeping the first job
/// seen at the best key; FIFO and two-tier stop at the list front or at
/// the first small job.
///
/// Tables are passed as read-only Spans: a policy reads the engine's job
/// table and runnable list but cannot change them.
class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::string name() const = 0;
  virtual int PickJob(Span<SimJob> jobs, Span<size_t> runnable,
                      TaskKind kind, int total_slots_of_kind,
                      const SchedulerContext& context) = 0;

  /// Upper bound on how many tasks the engine may grant the picked job in
  /// one batch. Policies with quotas (two-tier) override this; the default
  /// is unlimited.
  virtual int64_t BatchLimit(Span<SimJob> /*jobs*/, int /*picked*/,
                             TaskKind /*kind*/, int /*total_slots_of_kind*/,
                             const SchedulerContext& /*context*/) {
    return std::numeric_limits<int64_t>::max();
  }
};

/// Hadoop's default: strict submission order; an early large job starves
/// everything behind it.
class FifoScheduler : public Scheduler {
 public:
  std::string name() const override { return "FIFO"; }
  int PickJob(Span<SimJob> jobs, Span<size_t> runnable, TaskKind kind,
              int total_slots_of_kind,
              const SchedulerContext& context) override;
};

/// Fair scheduler: grant the slot to the runnable job currently holding
/// the fewest slots (ties to the earliest submission).
class FairScheduler : public Scheduler {
 public:
  std::string name() const override { return "Fair"; }
  int PickJob(Span<SimJob> jobs, Span<size_t> runnable, TaskKind kind,
              int total_slots_of_kind,
              const SchedulerContext& context) override;
};

/// The paper's section 6.2 proposal: split the cluster into a performance
/// tier for small (interactive) jobs and a capacity tier for large ones.
/// Large jobs may hold at most `large_share` of each slot pool (the cap is
/// clamped to >= 1 slot when only large jobs are runnable, so a 1-slot
/// pool cannot starve them forever); small jobs are never blocked by
/// large ones.
class TwoTierScheduler : public Scheduler {
 public:
  explicit TwoTierScheduler(double large_share = 0.7)
      : large_share_(large_share) {}
  std::string name() const override { return "TwoTier"; }
  int PickJob(Span<SimJob> jobs, Span<size_t> runnable, TaskKind kind,
              int total_slots_of_kind,
              const SchedulerContext& context) override;
  int64_t BatchLimit(Span<SimJob> jobs, int picked, TaskKind kind,
                     int total_slots_of_kind,
                     const SchedulerContext& context) override;

 private:
  double large_share_;
};

/// Shortest Remaining Processing Time: grant the slot to the runnable job
/// with the least unfinished task-seconds (SimJob::RemainingWork), ties
/// pinned to (earliest submit, lowest index). Size-based priority is the
/// classic latency protection for the paper's >90% small-job mass: a
/// freshly submitted interactive job out-ranks every half-done elephant
/// without needing tier thresholds. Non-preemptive on its own; pairs with
/// the engine's elephant preemption (ReplayOptions::sla.preemption_budget)
/// for full SRPT semantics.
class SrptScheduler : public Scheduler {
 public:
  std::string name() const override { return "SRPT"; }
  int PickJob(Span<SimJob> jobs, Span<size_t> runnable, TaskKind kind,
              int total_slots_of_kind,
              const SchedulerContext& context) override;
};

/// Earliest Deadline First over SimJob::deadline (submit + ideal latency x
/// per-class SLA multiplier, populated by ReplayTemplate::Build), with
/// overdue-job escalation: jobs already past their deadline at
/// `context.now` rank ahead of every on-time job and are ordered among
/// themselves by least remaining work — the overdue backlog drains in the
/// order that un-blocks the most jobs soonest, instead of EDF's "most
/// overdue first" which would finish the most-hopeless job first. Jobs
/// without a deadline (< 0) rank last. Ties pin to (earliest submit,
/// lowest index) like every policy.
class DeadlineScheduler : public Scheduler {
 public:
  std::string name() const override { return "Deadline"; }
  int PickJob(Span<SimJob> jobs, Span<size_t> runnable, TaskKind kind,
              int total_slots_of_kind,
              const SchedulerContext& context) override;
};

/// Comma-separated list of the policy names MakeScheduler accepts, for
/// error messages and usage strings.
const char* ValidSchedulerPolicies();

/// Factory by policy name ("fifo", "fair", "two-tier", "srpt",
/// "deadline"; case-insensitive). Unknown names are a hard
/// InvalidArgumentError listing the valid policies — never a silent
/// fallback (a typo'd --sweep-policies=fare must not replay a 10k-cell
/// grid as FIFO).
StatusOr<std::unique_ptr<Scheduler>> MakeScheduler(const std::string& policy);

}  // namespace swim::sim

#endif  // SWIM_SIM_SCHEDULER_H_

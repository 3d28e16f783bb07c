#include "sim/scheduler.h"

#include <limits>

#include "common/string_util.h"

namespace swim::sim {

int FifoScheduler::PickJob(Span<SimJob> /*jobs*/, Span<size_t> runnable,
                           TaskKind /*kind*/, int /*total_slots_of_kind*/,
                           const SchedulerContext& /*context*/) {
  return runnable.empty() ? -1 : static_cast<int>(runnable[0]);
}

int FairScheduler::PickJob(Span<SimJob> jobs, Span<size_t> runnable,
                           TaskKind /*kind*/, int /*total_slots_of_kind*/,
                           const SchedulerContext& /*context*/) {
  int best = -1;
  int64_t fewest = std::numeric_limits<int64_t>::max();
  for (size_t index : runnable) {
    int64_t held = jobs[index].running_tasks();
    if (held < fewest) {
      fewest = held;
      best = static_cast<int>(index);
    }
  }
  return best;
}

int TwoTierScheduler::PickJob(Span<SimJob> jobs, Span<size_t> runnable,
                              TaskKind kind, int total_slots_of_kind,
                              const SchedulerContext& context) {
  // Small tier first, FIFO within tier: the first small job in the list,
  // else the first large one.
  int first_large = -1;
  for (size_t index : runnable) {
    if (jobs[index].is_small) return static_cast<int>(index);
    if (first_large < 0) first_large = static_cast<int>(index);
  }
  int64_t large_cap = static_cast<int64_t>(
      large_share_ * static_cast<double>(total_slots_of_kind));
  // Tiny pools truncate the cap to 0 (1 slot x 0.7 share); with no small
  // job wanting the pool the capacity tier must still get >= 1 slot or
  // large jobs starve forever on 1-slot clusters.
  if (large_cap < 1) large_cap = 1;
  if (first_large >= 0 && context.LargeRunning(kind) < large_cap) {
    return first_large;
  }
  return -1;
}

int64_t TwoTierScheduler::BatchLimit(Span<SimJob> jobs, int picked,
                                     TaskKind kind, int total_slots_of_kind,
                                     const SchedulerContext& context) {
  if (jobs[picked].is_small) return std::numeric_limits<int64_t>::max();
  int64_t cap = static_cast<int64_t>(
      large_share_ * static_cast<double>(total_slots_of_kind));
  // Matches the PickJob clamp: a picked large job is always allowed at
  // least one slot, or the grant would truncate to a 0-task batch and the
  // pool would idle with runnable work (the 1-slot-cluster starvation bug).
  if (cap < 1) cap = 1;
  return std::max<int64_t>(0, cap - context.LargeRunning(kind));
}

int SrptScheduler::PickJob(Span<SimJob> jobs, Span<size_t> runnable,
                           TaskKind /*kind*/, int /*total_slots_of_kind*/,
                           const SchedulerContext& /*context*/) {
  int best = -1;
  double least_work = std::numeric_limits<double>::max();
  for (size_t index : runnable) {
    double work = jobs[index].RemainingWork();
    if (work < least_work) {
      least_work = work;
      best = static_cast<int>(index);
    }
  }
  return best;
}

int DeadlineScheduler::PickJob(Span<SimJob> jobs, Span<size_t> runnable,
                               TaskKind /*kind*/,
                               int /*total_slots_of_kind*/,
                               const SchedulerContext& context) {
  // Two ranked pools scanned in one pass: overdue jobs (deadline already
  // passed at context.now) ordered by least remaining work, then on-time
  // jobs ordered by earliest deadline (no deadline ranks as +inf). Ties
  // go to the first job seen, the earliest submitted.
  int best_overdue = -1;
  double overdue_work = std::numeric_limits<double>::max();
  int best_ontime = -1;
  double ontime_deadline = std::numeric_limits<double>::max();
  for (size_t index : runnable) {
    const SimJob& job = jobs[index];
    const bool has_deadline = job.deadline >= 0.0;
    if (has_deadline && job.deadline < context.now) {
      double work = job.RemainingWork();
      if (work < overdue_work) {
        overdue_work = work;
        best_overdue = static_cast<int>(index);
      }
    } else {
      double deadline = has_deadline ? job.deadline
                                     : std::numeric_limits<double>::max();
      if (best_ontime < 0 || deadline < ontime_deadline) {
        ontime_deadline = deadline;
        best_ontime = static_cast<int>(index);
      }
    }
  }
  return best_overdue >= 0 ? best_overdue : best_ontime;
}

const char* ValidSchedulerPolicies() {
  return "fifo, fair, two-tier, srpt, deadline";
}

StatusOr<std::unique_ptr<Scheduler>> MakeScheduler(
    const std::string& policy) {
  std::string normalized = ToLower(policy);
  if (normalized == "fifo") {
    return std::unique_ptr<Scheduler>(std::make_unique<FifoScheduler>());
  }
  if (normalized == "fair") {
    return std::unique_ptr<Scheduler>(std::make_unique<FairScheduler>());
  }
  if (normalized == "two-tier" || normalized == "twotier") {
    return std::unique_ptr<Scheduler>(std::make_unique<TwoTierScheduler>());
  }
  if (normalized == "srpt") {
    return std::unique_ptr<Scheduler>(std::make_unique<SrptScheduler>());
  }
  if (normalized == "deadline") {
    return std::unique_ptr<Scheduler>(std::make_unique<DeadlineScheduler>());
  }
  return InvalidArgumentError("unknown scheduling policy \"" + policy +
                              "\"; valid policies: " +
                              ValidSchedulerPolicies());
}

}  // namespace swim::sim

#include "trace/trace.h"

#include <algorithm>

#include "common/logging.h"

namespace swim::trace {
namespace {

bool SubmitSorted(const std::vector<JobRecord>& jobs) {
  return std::is_sorted(jobs.begin(), jobs.end(),
                        [](const JobRecord& a, const JobRecord& b) {
                          return a.submit_time < b.submit_time;
                        });
}

}  // namespace

Trace::Trace(const Trace& other) {
  // Lock the source so a concurrent reader-triggered lazy sort on `other`
  // cannot move jobs_ under us. Index state is intentionally not copied
  // (rebuilt on demand); sortedness carries over.
  std::lock_guard<std::mutex> lock(other.lazy_mu_);
  metadata_ = other.metadata_;
  jobs_ = other.jobs_;
  sorted_.store(other.sorted_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
}

Trace& Trace::operator=(const Trace& other) {
  if (this == &other) return *this;
  std::lock_guard<std::mutex> lock(other.lazy_mu_);
  metadata_ = other.metadata_;
  jobs_ = other.jobs_;
  sorted_.store(other.sorted_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  path_indexed_.store(false, std::memory_order_relaxed);
  name_indexed_.store(false, std::memory_order_relaxed);
  path_interner_.Clear();
  name_interner_.Clear();
  input_path_ids_.clear();
  output_path_ids_.clear();
  name_ids_.clear();
  return *this;
}

Trace::Trace(Trace&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.lazy_mu_);
  metadata_ = std::move(other.metadata_);
  jobs_ = std::move(other.jobs_);
  sorted_.store(other.sorted_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  other.sorted_.store(true, std::memory_order_relaxed);
  other.path_indexed_.store(false, std::memory_order_relaxed);
  other.name_indexed_.store(false, std::memory_order_relaxed);
}

Trace& Trace::operator=(Trace&& other) noexcept {
  if (this == &other) return *this;
  std::lock_guard<std::mutex> lock(other.lazy_mu_);
  metadata_ = std::move(other.metadata_);
  jobs_ = std::move(other.jobs_);
  sorted_.store(other.sorted_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  path_indexed_.store(false, std::memory_order_relaxed);
  name_indexed_.store(false, std::memory_order_relaxed);
  path_interner_.Clear();
  name_interner_.Clear();
  input_path_ids_.clear();
  output_path_ids_.clear();
  name_ids_.clear();
  other.sorted_.store(true, std::memory_order_relaxed);
  other.path_indexed_.store(false, std::memory_order_relaxed);
  other.name_indexed_.store(false, std::memory_order_relaxed);
  return *this;
}

void Trace::AddJob(JobRecord job) {
  if (!jobs_.empty() && job.submit_time < jobs_.back().submit_time) {
    sorted_.store(false, std::memory_order_relaxed);
  }
  jobs_.push_back(std::move(job));
  path_indexed_.store(false, std::memory_order_relaxed);
  name_indexed_.store(false, std::memory_order_relaxed);
}

void Trace::SetJobs(std::vector<JobRecord> jobs) {
  // A stable sort of sorted input is the identity, so skip it: parsed and
  // generated traces arrive in submit order.
  sorted_.store(SubmitSorted(jobs), std::memory_order_relaxed);
  jobs_ = std::move(jobs);
  path_indexed_.store(false, std::memory_order_relaxed);
  name_indexed_.store(false, std::memory_order_relaxed);
  EnsureSorted();
}

void Trace::SetJobsWithIndexes(std::vector<JobRecord> jobs,
                               StringInterner path_interner,
                               std::vector<uint32_t> input_path_ids,
                               std::vector<uint32_t> output_path_ids,
                               StringInterner name_interner,
                               std::vector<uint32_t> name_ids) {
  const size_t n = jobs.size();
  if (!SubmitSorted(jobs) || input_path_ids.size() != n ||
      output_path_ids.size() != n || name_ids.size() != n) {
    SetJobs(std::move(jobs));
    return;
  }
  jobs_ = std::move(jobs);
  path_interner_ = std::move(path_interner);
  name_interner_ = std::move(name_interner);
  input_path_ids_ = std::move(input_path_ids);
  output_path_ids_ = std::move(output_path_ids);
  name_ids_ = std::move(name_ids);
  sorted_.store(true, std::memory_order_release);
  path_indexed_.store(true, std::memory_order_release);
  name_indexed_.store(true, std::memory_order_release);
}

void Trace::EnsureSorted() const {
  if (sorted_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(lazy_mu_);
  SortLocked();
}

void Trace::SortLocked() const {
  if (sorted_.load(std::memory_order_relaxed)) return;
  std::stable_sort(jobs_.begin(), jobs_.end(),
                   [](const JobRecord& a, const JobRecord& b) {
                     return a.submit_time < b.submit_time;
                   });
  path_indexed_.store(false, std::memory_order_relaxed);  // ids follow order
  name_indexed_.store(false, std::memory_order_relaxed);
  sorted_.store(true, std::memory_order_release);
}

void Trace::EnsurePathIndex() const {
  if (path_indexed_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(lazy_mu_);
  if (path_indexed_.load(std::memory_order_relaxed)) return;
  SortLocked();
  path_interner_.Clear();
  input_path_ids_.clear();
  output_path_ids_.clear();
  input_path_ids_.reserve(jobs_.size());
  output_path_ids_.reserve(jobs_.size());
  for (const auto& job : jobs_) {
    input_path_ids_.push_back(job.input_path.empty()
                                  ? kNoStringId
                                  : path_interner_.Intern(job.input_path));
    output_path_ids_.push_back(job.output_path.empty()
                                   ? kNoStringId
                                   : path_interner_.Intern(job.output_path));
  }
  path_indexed_.store(true, std::memory_order_release);
}

void Trace::EnsureNameIndex() const {
  if (name_indexed_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(lazy_mu_);
  if (name_indexed_.load(std::memory_order_relaxed)) return;
  SortLocked();
  name_interner_.Clear();
  name_ids_.clear();
  name_ids_.reserve(jobs_.size());
  for (const auto& job : jobs_) {
    name_ids_.push_back(job.name.empty() ? kNoStringId
                                         : name_interner_.Intern(job.name));
  }
  name_indexed_.store(true, std::memory_order_release);
}

Status Trace::Validate() const {
  for (const auto& job : jobs_) {
    std::string violation = ValidateJobRecord(job);
    if (!violation.empty()) {
      return InvalidArgumentError("job " + std::to_string(job.job_id) + ": " +
                                  violation);
    }
  }
  return Status::Ok();
}

double Trace::StartTime() const {
  if (jobs_.empty()) return 0.0;
  EnsureSorted();
  return jobs_.front().submit_time;
}

double Trace::EndTime() const {
  if (jobs_.empty()) return 0.0;
  EnsureSorted();
  double end = 0.0;
  for (const auto& job : jobs_) end = std::max(end, job.FinishTime());
  return end;
}

double Trace::Span() const { return EndTime() - StartTime(); }

std::vector<double> Trace::HourlyJobCounts() const {
  return HourlySeries([](const JobRecord&) { return 1.0; });
}

std::vector<double> Trace::HourlyBytes() const {
  return HourlySeries([](const JobRecord& j) { return j.TotalBytes(); });
}

std::vector<double> Trace::HourlyTaskSeconds() const {
  return HourlySeries([](const JobRecord& j) { return j.TotalTaskSeconds(); });
}

}  // namespace swim::trace

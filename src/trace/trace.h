#ifndef SWIM_TRACE_TRACE_H_
#define SWIM_TRACE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "trace/job_record.h"

namespace swim::trace {

/// Cluster-level metadata accompanying a trace (Table 1 columns that are
/// not derivable from the job stream itself).
struct TraceMetadata {
  /// Workload label, e.g. "FB-2009" or "CC-b".
  std::string name;
  /// Machines in the source cluster (0 when unknown).
  int machines = 0;
  /// Calendar year of collection (0 when unknown).
  int year = 0;
  /// Which optional dimensions the trace carries.
  bool has_names = true;
  bool has_input_paths = true;
  bool has_output_paths = true;
};

/// An ordered collection of jobs plus metadata. Jobs are kept sorted by
/// submit time (the class maintains this invariant on mutation).
class Trace {
 public:
  Trace() = default;
  explicit Trace(TraceMetadata metadata) : metadata_(std::move(metadata)) {}

  // Copies and moves transfer the job stream, metadata, and sortedness,
  // but drop the lazy interned-id state (rebuilt on demand): the
  // synchronization members below are not copyable, and re-interning on
  // first use beats deep-copying arenas.
  Trace(const Trace& other);
  Trace& operator=(const Trace& other);
  Trace(Trace&& other) noexcept;
  Trace& operator=(Trace&& other) noexcept;

  const TraceMetadata& metadata() const { return metadata_; }
  TraceMetadata& mutable_metadata() { return metadata_; }

  /// The jobs in submit order. An out-of-order AddJob leaves the sort
  /// pending; this read applies it first, so callers that walk jobs() as
  /// a time-ordered stream (the replay engines) never see it unsorted.
  const std::vector<JobRecord>& jobs() const {
    if (!sorted_.load(std::memory_order_acquire)) EnsureSorted();
    return jobs_;
  }
  size_t size() const { return jobs_.size(); }
  bool empty() const { return jobs_.empty(); }

  /// Appends a job; re-sorts (stably) on the next read if ordering broke.
  void AddJob(JobRecord job);

  /// Bulk replacement; takes ownership and sorts (stably) unless `jobs` is
  /// already in submit order.
  void SetJobs(std::vector<JobRecord> jobs);

  /// Bulk replacement with pre-built interned-id state — the columnar
  /// (STF1) load path, where the dictionaries and id columns were persisted
  /// at write time and re-interning 1M+ rows would just reproduce them.
  /// The caller guarantees the id state matches what the lazy build would
  /// produce: `jobs` sorted by submit time, ids in first-appearance order,
  /// empty fields mapped to kNoStringId (ColumnarTraceView::Materialize
  /// verifies all of this before calling). If `jobs` turns out unsorted or
  /// a column length mismatches, the id state is discarded and this
  /// degrades to SetJobs (lazy rebuild) instead of publishing corrupt
  /// indexes.
  void SetJobsWithIndexes(std::vector<JobRecord> jobs,
                          StringInterner path_interner,
                          std::vector<uint32_t> input_path_ids,
                          std::vector<uint32_t> output_path_ids,
                          StringInterner name_interner,
                          std::vector<uint32_t> name_ids);

  /// Validates every record; returns the first violation.
  Status Validate() const;

  /// Earliest submit time (0 when empty).
  double StartTime() const;
  /// Latest finish time (0 when empty).
  double EndTime() const;
  /// EndTime - StartTime.
  double Span() const;

  /// Per-hour aggregation of a job dimension over [StartTime, EndTime),
  /// indexed by hour since trace start. `extractor` maps a job to its
  /// contribution; the job is credited to its submission hour, matching the
  /// paper's "jobs submitted per hour" framing for Figure 7.
  template <typename Extractor>
  std::vector<double> HourlySeries(Extractor&& extractor) const;

  std::vector<double> HourlyJobCounts() const;
  std::vector<double> HourlyBytes() const;
  std::vector<double> HourlyTaskSeconds() const;

  // --- Interned id columns ---------------------------------------------
  //
  // Paths and job names are interned to dense uint32_t ids so the hot
  // analysis/storage/replay loops can key flat tables by integer instead
  // of re-hashing HDFS path strings. Ids are assigned in first-appearance
  // order over the submit-sorted job stream (input path before output path
  // per job), so they are deterministic for a given trace regardless of
  // SWIM_THREADS. Input and output paths share one id space — an
  // output later read as an input maps to the same id, which is what the
  // re-access and cache analyses key on. Jobs without the field map to
  // kNoStringId.
  //
  // The path and name indexes are built lazily (and independently — a
  // popularity analysis never pays for name interning and vice versa) on
  // first access, and invalidated by AddJob/SetJobs. The lazy builds are
  // thread-safe for CONCURRENT CONST READERS: the first accessor to need
  // an index builds it under an internal mutex (double-checked against an
  // atomic flag) and later readers see the published result, so worker
  // threads may share a const Trace freely. Mutation (AddJob/SetJobs) is
  // not synchronized against readers and still requires exclusivity.
  //
  // Each index is built by one serial intern loop over the sorted jobs.

  /// Interner over input/output paths; ids index path-keyed tables.
  const StringInterner& path_interner() const {
    EnsurePathIndex();
    return path_interner_;
  }
  /// Interner over job names.
  const StringInterner& name_interner() const {
    EnsureNameIndex();
    return name_interner_;
  }
  /// Per-job id columns, parallel to jobs().
  const std::vector<uint32_t>& input_path_ids() const {
    EnsurePathIndex();
    return input_path_ids_;
  }
  const std::vector<uint32_t>& output_path_ids() const {
    EnsurePathIndex();
    return output_path_ids_;
  }
  const std::vector<uint32_t>& name_ids() const {
    EnsureNameIndex();
    return name_ids_;
  }

  /// Builds both id indexes now instead of on first analytical use.
  /// The argument is ignored: the build is one serial loop at any lane
  /// count. The signature is kept for existing callers.
  void WarmIndexes(int /*max_parallelism*/ = 0) const {
    EnsurePathIndex();
    EnsureNameIndex();
  }

 private:
  void EnsureSorted() const;
  void EnsurePathIndex() const;
  void EnsureNameIndex() const;
  /// Sorts with lazy_mu_ already held (Ensure* helpers compose on it).
  void SortLocked() const;

  TraceMetadata metadata_;
  mutable std::vector<JobRecord> jobs_;

  /// Serializes the lazy sort/index builds; the atomic flags are the
  /// double-checked fast path (acquire load outside the lock publishes the
  /// built vectors/interners to readers).
  mutable std::mutex lazy_mu_;
  mutable std::atomic<bool> sorted_{true};
  mutable std::atomic<bool> path_indexed_{false};
  mutable std::atomic<bool> name_indexed_{false};

  mutable StringInterner path_interner_;
  mutable StringInterner name_interner_;
  mutable std::vector<uint32_t> input_path_ids_;
  mutable std::vector<uint32_t> output_path_ids_;
  mutable std::vector<uint32_t> name_ids_;
};

template <typename Extractor>
std::vector<double> Trace::HourlySeries(Extractor&& extractor) const {
  EnsureSorted();
  std::vector<double> series;
  if (jobs_.empty()) return series;
  const double start = StartTime();
  const double span = EndTime() - start;
  size_t hours = static_cast<size_t>(span / 3600.0) + 1;
  series.assign(hours, 0.0);
  for (const auto& job : jobs_) {
    size_t hour = static_cast<size_t>((job.submit_time - start) / 3600.0);
    if (hour >= series.size()) hour = series.size() - 1;
    series[hour] += extractor(job);
  }
  return series;
}

}  // namespace swim::trace

#endif  // SWIM_TRACE_TRACE_H_

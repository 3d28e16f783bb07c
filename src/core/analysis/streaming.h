#ifndef SWIM_CORE_ANALYSIS_STREAMING_H_
#define SWIM_CORE_ANALYSIS_STREAMING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/span.h"
#include "common/statusor.h"
#include "core/analysis/compute.h"
#include "core/analysis/data_access.h"
#include "core/analysis/temporal.h"
#include "stats/sketch/gk_quantile.h"
#include "stats/sketch/sliding_window.h"
#include "stats/sketch/space_saving.h"
#include "trace/columnar.h"
#include "trace/job_record.h"
#include "trace/summary.h"
#include "trace/trace.h"

namespace swim::core {

// ---------------------------------------------------------------------------
// Streaming analysis — the zero-materialization fast path.
//
// The batch pipeline (AnalyzeWorkload) materializes a full JobRecord vector
// and sorts whole columns. StreamingAnalyzer instead folds the paper's
// analyses one batch at a time, straight off ColumnarTraceView column spans
// (no JobRecord is ever built) or off parsed CSV rows:
//
//   exact, replayed in job order      sketch-backed (bounded memory)
//   ------------------------------    --------------------------------
//   Table 1 counts/sums/span          per-job size + duration quantiles
//   file popularity + Zipf fit        re-access interval quantiles (GK)
//   re-access fractions (Fig. 6)      hot-file top-k (Space-Saving)
//   burstiness / correlations /       sliding-window peak-to-median
//     diurnal (hourly series)
//   job-name / framework shares
//   under-10GB job fraction
//
// The fold does only the incremental accumulation — per-path access
// counts and their count-of-counts tables, the hourly series, re-access hit
// tallies, name shares. Report() hands those accumulators to the batch
// stages' own derivations (PopularityFromCountOfCounts,
// ReaccessFractionsFromHits, the series overloads
// of ComputeBurstiness / ComputeSeriesCorrelations / DiurnalStrength,
// JobNameAccumulator), so the exact report fields match the batch report
// bit for bit on the same rows (pinned by streaming_test). Sketch stages
// answer within the configured rank epsilon of the SortedStats oracle.
// k-means classification inherently needs a batch pass and is the one
// batch stage without a streaming equivalent.
//
// Determinism: exact accumulators run serially in row order; GK sketches
// are built per fixed-size row chunk in parallel and merged in chunk order
// — the chunking depends only on batch size, so output is byte-identical
// at any SWIM_THREADS.
// ---------------------------------------------------------------------------

struct StreamingOptions {
  /// Advertised rank-error bound for every GK quantile sketch.
  double quantile_epsilon = 0.005;
  /// Tracked slots for the hot-input Space-Saving sketch.
  size_t hot_file_capacity = 64;
  /// Sliding-window span, in hourly buckets (default: the paper's week).
  size_t window_hours = 168;
  /// Worker lanes for the per-chunk sketch build; 0 = default. Results
  /// are identical at any value.
  int threads = 0;
};

/// Sketch-backed quantile row (rank error <= epsilon * n each).
struct StreamingQuantiles {
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

struct StreamingHotFile {
  std::string path;
  uint64_t count = 0;  // overestimate; true count in [count-error, count]
  uint64_t error = 0;
};

struct StreamingWindowStats {
  double jobs_peak_to_median = 0.0;
  double bytes_peak_to_median = 0.0;
  double task_seconds_peak_to_median = 0.0;
  size_t live_hours = 0;
};

/// The streaming analogue of WorkloadReport. Fields marked exact match the
/// batch report bit for bit; the rest carry the sketch guarantees above.
struct StreamingReport {
  trace::TraceSummary summary;  // exact except median_duration (GK-backed)
  StreamingQuantiles input_bytes;   // Figure 1 dimensions, GK-backed
  StreamingQuantiles shuffle_bytes;
  StreamingQuantiles output_bytes;
  StreamingQuantiles duration;
  FilePopularity input_popularity;   // exact
  FilePopularity output_popularity;  // exact
  ReaccessFractions reaccess_fractions;  // exact
  /// GK-backed q75 of input->input re-access intervals; < 0 when no
  /// re-access was observed.
  double reaccess_p75_interval = -1.0;
  BurstinessReport burstiness;     // exact
  SeriesCorrelations correlations;  // exact
  double diurnal_strength = 0.0;    // exact
  JobNameReport names;              // exact
  /// Exact fraction of jobs moving < 10 GB total (the paper's dichotomy,
  /// counted per job — the streaming stand-in for the k-means readout).
  double fraction_under_10gb = 0.0;
  std::vector<StreamingHotFile> hot_inputs;  // Space-Saving top-k
  StreamingWindowStats window;
  size_t batches = 0;
  double quantile_epsilon = 0.0;
};

/// One-pass incremental analyzer. Feed rows in submit order — either
/// column spans from an STF1 view (zero materialization) or JobRecord
/// spans from a CSV parse — then render a StreamingReport at any point.
/// An instance is bound to one source kind by its first Observe call.
/// Not thread-safe (one follower owns one analyzer); internally parallel.
class StreamingAnalyzer {
 public:
  explicit StreamingAnalyzer(StreamingOptions options = {});

  /// Trace identity for the report header. Columnar batches adopt the
  /// view's metadata automatically; CSV callers set it once after parsing.
  void SetMetadata(const trace::TraceMetadata& metadata);

  /// Folds rows [begin, end) of `view`'s columns. Rows must continue the
  /// submit-order stream (nondecreasing submit times across calls); values
  /// are validated first, and a rejected batch leaves the analyzer
  /// untouched. Dictionary ids may grow between calls (append-only files);
  /// ids are validated against the view's current dictionaries.
  Status ObserveColumns(const trace::ColumnarTraceView& view, size_t begin,
                        size_t end);

  /// Folds parsed rows (the CSV fallback). Jobs must be in submit order.
  Status ObserveJobs(Span<const trace::JobRecord> jobs);

  size_t jobs_observed() const { return jobs_; }
  size_t batches_observed() const { return batches_; }
  const StreamingOptions& options() const { return options_; }

  /// Renders the report. In columnar mode pass the current view so hot
  /// files resolve to path strings (nullptr renders "path#<id>"); the CSV
  /// mode resolves through its own interner. O(sketch + largest access
  /// count + observed hours), plus writing out the descending frequency
  /// vectors; neither the job stream nor the per-path counts are revisited,
  /// and nothing is sorted.
  StatusOr<StreamingReport> Report(
      const trace::ColumnarTraceView* dictionaries = nullptr) const;

 private:
  enum class Mode { kUnset, kColumnar, kJobs };

  /// One job's scalar columns, as either input mode supplies them.
  struct Row;

  /// Exact access counts of one direction: per path (dense by path id,
  /// grown to the largest id seen) and as a count-of-counts table —
  /// `files_with[c]` paths were accessed exactly `c` times — that Report()
  /// derives popularity from without sorting.
  struct AccessCounts {
    std::vector<size_t> per_path;
    std::vector<size_t> files_with;

    /// One more access of `id`: O(1) amortized, it moves the path from run
    /// c to run c + 1.
    void Tally(uint32_t id);
  };

  struct PendingWrite {
    double time = 0.0;
    uint64_t seq = 0;
    uint32_t path_id = 0;
  };

  /// The admission bar every streamed row must clear, in either input
  /// mode: the same as ColumnarTraceView::Materialize (finite non-negative
  /// values, task seconds only with tasks), plus the streaming contract
  /// that submit times never run backwards. nullptr when admissible.
  static const char* RowViolation(const Row& row, double prev_submit);
  /// Submit time the next row must not precede.
  double PreviousSubmit() const;
  void EnsurePathTables(size_t path_count);
  void PopWritesBefore(double time, uint64_t seq);
  /// The shared exact per-row update (both modes reduce to these scalars).
  void ObserveRowSerial(const Row& row, uint32_t input_path_id,
                        uint32_t output_path_id);
  void ObserveNameColumnar(const trace::ColumnarTraceView& view,
                           uint32_t name_id, double total_bytes,
                           double total_task_seconds);
  /// Folds rows [0, count) into the GK sketches: per fixed-size chunk in
  /// parallel, merged in chunk order. Counts the batch.
  template <typename RowAt>
  void FoldSketches(size_t count, const RowAt& row_at);

  StreamingOptions options_;
  Mode mode_ = Mode::kUnset;
  trace::TraceMetadata metadata_;
  bool metadata_set_ = false;
  size_t jobs_ = 0;
  size_t batches_ = 0;

  // Exact summary accumulators (row order).
  double first_submit_ = 0.0;
  double last_submit_ = 0.0;
  double max_finish_ = 0.0;
  double bytes_moved_ = 0.0;
  size_t map_only_ = 0;
  size_t under_10gb_ = 0;

  // Mergeable quantile sketches.
  stats::GkQuantileSketch gk_input_;
  stats::GkQuantileSketch gk_shuffle_;
  stats::GkQuantileSketch gk_output_;
  stats::GkQuantileSketch gk_duration_;
  stats::GkQuantileSketch gk_reaccess_in_;
  stats::GkQuantileSketch gk_reaccess_out_;

  // Exact hourly series, grown in submit order; padded to the full span
  // at Report() time exactly as Trace::HourlySeries sizes it.
  SubmissionSeries hourly_;

  // Exact access counts + sketch-backed hot files.
  AccessCounts input_counts_;
  AccessCounts output_counts_;
  stats::SpaceSavingSketch hot_inputs_;

  // Sliding windows (bounded memory view of the recent stream).
  stats::SlidingWindowSeries window_jobs_;
  stats::SlidingWindowSeries window_bytes_;
  stats::SlidingWindowSeries window_task_seconds_;

  // Re-access scan state: replays storage::ExtractAccesses' merged
  // chronological order without building it — writes (at finish time) wait
  // in a min-heap keyed by (time, stream seq) and are drained before each
  // read, reproducing the batch stable_sort's insertion-order tie-break.
  std::vector<PendingWrite> pending_writes_;  // binary min-heap
  std::vector<double> last_read_;
  std::vector<double> last_written_;
  std::vector<uint8_t> seen_inputs_;
  std::vector<uint8_t> seen_outputs_;
  size_t jobs_with_paths_ = 0;
  size_t input_hits_ = 0;
  size_t output_hits_ = 0;

  // Exact job-name shares (shared with the batch pipeline).
  JobNameAccumulator names_;
  std::vector<uint32_t> word_of_name_;  // columnar memo: name id -> word id

  // CSV-mode path interner (first-appearance order, matching the trace's
  // lazy index build: input path before output path per job).
  StringInterner path_interner_;
};

/// Human-readable rendering, section for section the streaming analogue of
/// FormatReport. Defined beside FormatReport in workload_report.cc: the
/// lines both reports print are written by the same code.
std::string FormatStreamingReport(const StreamingReport& report);

}  // namespace swim::core

#endif  // SWIM_CORE_ANALYSIS_STREAMING_H_

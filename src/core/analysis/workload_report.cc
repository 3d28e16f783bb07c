#include "core/analysis/workload_report.h"

#include <cstdarg>
#include <cstdio>
#include <functional>
#include <sstream>
#include <vector>

#include "common/parallel.h"
#include "common/units.h"
#include "core/analysis/streaming.h"

namespace swim::core {
namespace {

// Line writers for what FormatReport and FormatStreamingReport both print;
// each formatter adds only its own lines between them.

constexpr const char* kDataAccessHeading = "\n-- Data access (sec. 4) --\n";
constexpr const char* kTemporalHeading = "\n-- Temporal (sec. 5) --\n";
constexpr const char* kComputeHeading = "\n-- Compute (sec. 6) --\n";

/// Appends printf-formatted text, truncated to 255 bytes per call.
[[gnu::format(printf, 2, 3)]] void Appendf(std::ostringstream& os,
                                           const char* format, ...) {
  char line[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(line, sizeof(line), format, args);
  va_end(args);
  os << line;
}

void WriteHeader(std::ostringstream& os, const trace::TraceSummary& summary,
                 const char* title_suffix) {
  os << "=== Workload: " << summary.name << title_suffix << " ===\n";
  Appendf(os, "jobs=%s  bytes_moved=%s  span=%s  machines=%d\n",
          FormatCount(summary.jobs).c_str(),
          FormatBytes(summary.bytes_moved).c_str(),
          FormatDuration(summary.span_seconds).c_str(), summary.machines);
}

/// Popularity, re-access and 75th-percentile re-access interval lines
/// (`p75_interval` < 0: no re-access seen), or the no-paths note. Returns
/// whether the trace has input paths.
bool WritePathLines(std::ostringstream& os, const FilePopularity& popularity,
                    const ReaccessFractions& fractions, double p75_interval) {
  if (popularity.distinct_files == 0) {
    os << "(no file paths in this trace)\n";
    return false;
  }
  Appendf(os, "input file popularity: %zu files, Zipf slope=%.2f (r2=%.2f)\n",
          popularity.distinct_files, popularity.zipf.slope,
          popularity.zipf.r_squared);
  Appendf(os,
          "re-access: %.0f%% of jobs read pre-existing inputs, "
          "%.0f%% read pre-existing outputs\n",
          100 * fractions.input_reaccess, 100 * fractions.output_reaccess);
  if (p75_interval >= 0.0) {
    Appendf(os, "75%% of input re-accesses within %s\n",
            FormatDuration(p75_interval).c_str());
  }
  return true;
}

void WriteBurstinessLine(std::ostringstream& os,
                         const BurstinessReport& burstiness) {
  Appendf(os,
          "burstiness peak:median  jobs=%.0f:1  bytes=%.0f:1  "
          "task-secs=%.0f:1\n",
          burstiness.jobs.PeakToMedian(), burstiness.bytes.PeakToMedian(),
          burstiness.task_seconds.PeakToMedian());
}

void WriteCorrelationsLine(std::ostringstream& os,
                           const SeriesCorrelations& correlations,
                           double diurnal_strength) {
  Appendf(os,
          "correlations: jobs-bytes=%.2f jobs-compute=%.2f "
          "bytes-compute=%.2f   diurnal=%.2f\n",
          correlations.jobs_bytes, correlations.jobs_task_seconds,
          correlations.bytes_task_seconds, diurnal_strength);
}

/// Top job-name words and framework shares, or the no-names note.
void WriteNameLines(std::ostringstream& os, const JobNameReport& names) {
  if (names.named_jobs == 0) {
    os << "(no job names in this trace)\n";
    return;
  }
  os << "top job-name words (by jobs): ";
  size_t shown = 0;
  for (const auto& w : names.words) {
    if (shown++ >= 5) break;
    Appendf(os, "%s=%.0f%% ", w.word.c_str(), 100 * w.by_jobs);
  }
  os << "\n";
  Appendf(os,
          "framework share of jobs: Hive=%.0f%% Pig=%.0f%% "
          "Oozie=%.0f%% Native=%.0f%%\n",
          100 * names.framework_by_jobs[0], 100 * names.framework_by_jobs[1],
          100 * names.framework_by_jobs[2], 100 * names.framework_by_jobs[3]);
}

}  // namespace

StatusOr<WorkloadReport> AnalyzeWorkload(const trace::Trace& trace,
                                         const AnalysisOptions& options) {
  if (trace.empty()) return InvalidArgumentError("empty trace");
  WorkloadReport report;
  // Force the trace's lazy submit-time sort and path id index before
  // stages share it (the lazy builds are not thread-safe).
  trace.StartTime();
  trace.input_path_ids();
  // Each stage writes one disjoint report field and reads only the trace,
  // so they are data-race free and their outputs are order-independent.
  std::vector<std::function<void()>> stages = {
      [&]() { report.summary = trace::Summarize(trace); },
      [&]() { report.data_sizes = ComputeDataSizeCdfs(trace); },
      [&]() { report.input_popularity = ComputeInputPopularity(trace); },
      [&]() { report.output_popularity = ComputeOutputPopularity(trace); },
      [&]() { report.reaccess_intervals = ComputeReaccessIntervals(trace); },
      [&]() { report.reaccess_fractions = ComputeReaccessFractions(trace); },
      [&]() { report.burstiness = ComputeBurstiness(trace); },
      [&]() { report.correlations = ComputeSeriesCorrelations(trace); },
      [&]() { report.diurnal_strength = DiurnalStrength(trace); },
      [&]() { report.names = AnalyzeJobNames(trace); },
  };
  RunConcurrently(stages, options.threads);
  ClassificationOptions classification = options.classification;
  if (classification.threads == 0) classification.threads = options.threads;
  SWIM_ASSIGN_OR_RETURN(report.classes, ClassifyJobs(trace, classification));
  return report;
}

std::string FormatReport(const WorkloadReport& report) {
  std::ostringstream os;
  WriteHeader(os, report.summary, "");

  os << kDataAccessHeading;
  Appendf(os, "median per-job sizes: input=%s shuffle=%s output=%s\n",
          FormatBytes(report.data_sizes.input.median()).c_str(),
          FormatBytes(report.data_sizes.shuffle.median()).c_str(),
          FormatBytes(report.data_sizes.output.median()).c_str());
  const stats::EmpiricalCdf& intervals = report.reaccess_intervals.input_input;
  WritePathLines(os, report.input_popularity, report.reaccess_fractions,
                 intervals.empty() ? -1.0 : intervals.Quantile(0.75));

  os << kTemporalHeading;
  WriteBurstinessLine(os, report.burstiness);
  WriteCorrelationsLine(os, report.correlations, report.diurnal_strength);

  os << kComputeHeading;
  WriteNameLines(os, report.names);
  Appendf(os,
          "k-means: k=%d, largest class %.0f%% of jobs, %.0f%% of jobs "
          "< 10GB total data\n",
          report.classes.k, 100 * report.classes.largest_class_fraction,
          100 * report.classes.fraction_under_10gb);
  for (const auto& jc : report.classes.classes) {
    Appendf(os, "  %8zu  in=%-9s shf=%-9s out=%-9s dur=%-8s  %s\n", jc.count,
            FormatBytes(jc.input_bytes).c_str(),
            FormatBytes(jc.shuffle_bytes).c_str(),
            FormatBytes(jc.output_bytes).c_str(),
            FormatDuration(jc.duration_seconds).c_str(), jc.label.c_str());
  }
  return os.str();
}

std::string FormatStreamingReport(const StreamingReport& report) {
  std::ostringstream os;
  WriteHeader(os, report.summary, " (streaming)");
  Appendf(os, "batches=%zu  quantile sketch eps=%.2f%% of ranks\n",
          report.batches, 100.0 * report.quantile_epsilon);

  os << kDataAccessHeading;
  auto size_row = [&](const char* label, const StreamingQuantiles& q) {
    Appendf(os, "%-8s p25=%-9s p50=%-9s p75=%-9s p90=%-9s p99=%s\n", label,
            FormatBytes(q.p25).c_str(), FormatBytes(q.p50).c_str(),
            FormatBytes(q.p75).c_str(), FormatBytes(q.p90).c_str(),
            FormatBytes(q.p99).c_str());
  };
  os << "per-job size quantiles (GK sketch):\n";
  size_row("  input", report.input_bytes);
  size_row("  shuffle", report.shuffle_bytes);
  size_row("  output", report.output_bytes);
  Appendf(os, "  duration p25=%-9s p50=%-9s p75=%-9s p99=%s\n",
          FormatDuration(report.duration.p25).c_str(),
          FormatDuration(report.duration.p50).c_str(),
          FormatDuration(report.duration.p75).c_str(),
          FormatDuration(report.duration.p99).c_str());
  if (WritePathLines(os, report.input_popularity, report.reaccess_fractions,
                     report.reaccess_p75_interval) &&
      !report.hot_inputs.empty()) {
    os << "hot inputs (space-saving): ";
    for (const auto& hot : report.hot_inputs) {
      Appendf(os, "%s=%llu(+/-%llu) ", hot.path.c_str(),
              static_cast<unsigned long long>(hot.count),
              static_cast<unsigned long long>(hot.error));
    }
    os << "\n";
  }

  os << kTemporalHeading;
  WriteBurstinessLine(os, report.burstiness);
  Appendf(os,
          "window(%zuh live) peak:median  jobs=%.0f:1  bytes=%.0f:1  "
          "task-secs=%.0f:1\n",
          report.window.live_hours, report.window.jobs_peak_to_median,
          report.window.bytes_peak_to_median,
          report.window.task_seconds_peak_to_median);
  WriteCorrelationsLine(os, report.correlations, report.diurnal_strength);

  os << kComputeHeading;
  WriteNameLines(os, report.names);
  Appendf(os,
          "%.0f%% of jobs < 10GB total data (exact streaming count; "
          "k-means needs a batch pass)\n",
          100 * report.fraction_under_10gb);
  return os.str();
}

}  // namespace swim::core

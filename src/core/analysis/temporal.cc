#include "core/analysis/temporal.h"

#include <algorithm>

#include "stats/correlation.h"

namespace swim::core {

SubmissionSeries ComputeSubmissionSeries(const trace::Trace& trace) {
  SubmissionSeries series;
  series.jobs_per_hour = trace.HourlyJobCounts();
  series.bytes_per_hour = trace.HourlyBytes();
  series.task_seconds_per_hour = trace.HourlyTaskSeconds();
  return series;
}

std::vector<double> WeekWindow(const std::vector<double>& series,
                               size_t start_hour) {
  constexpr size_t kWeekHours = 168;
  if (series.empty()) return {};
  start_hour = std::min(start_hour, series.size() - 1);
  size_t end = std::min(series.size(), start_hour + kWeekHours);
  return std::vector<double>(series.begin() + start_hour,
                             series.begin() + end);
}

BurstinessReport ComputeBurstiness(const SubmissionSeries& series) {
  return BurstinessReport{
      stats::BurstinessProfile(series.jobs_per_hour),
      stats::BurstinessProfile(series.bytes_per_hour),
      stats::BurstinessProfile(series.task_seconds_per_hour)};
}

BurstinessReport ComputeBurstiness(const trace::Trace& trace) {
  return ComputeBurstiness(ComputeSubmissionSeries(trace));
}

SeriesCorrelations ComputeSeriesCorrelations(const SubmissionSeries& series) {
  // One all-pairs kernel call (Figure 9's shape).
  stats::CorrelationMatrix matrix = stats::PearsonMatrix(
      {series.jobs_per_hour, series.bytes_per_hour,
       series.task_seconds_per_hour});
  SeriesCorrelations result;
  result.jobs_bytes = matrix.at(0, 1);
  result.jobs_task_seconds = matrix.at(0, 2);
  result.bytes_task_seconds = matrix.at(1, 2);
  return result;
}

SeriesCorrelations ComputeSeriesCorrelations(const trace::Trace& trace) {
  return ComputeSeriesCorrelations(ComputeSubmissionSeries(trace));
}

double DiurnalStrength(const std::vector<double>& jobs_per_hour) {
  return stats::PeriodStrength(jobs_per_hour, /*period=*/24.0);
}

double DiurnalStrength(const trace::Trace& trace) {
  return DiurnalStrength(trace.HourlyJobCounts());
}

}  // namespace swim::core

#include "core/analysis/data_access.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/interner.h"
#include "stats/descriptive.h"
#include "storage/access_stream.h"

namespace swim::core {
namespace {

// All path-keyed tables in this file are dense vectors indexed by the
// trace's interned path ids (see Trace::path_interner): one array index
// per touch instead of a string hash + chained-bucket walk. Ids are
// assigned in first-appearance order, so every loop below is byte-for-byte
// deterministic.

FilePopularity ComputePopularity(const trace::Trace& trace, bool use_output) {
  const std::vector<uint32_t>& ids =
      use_output ? trace.output_path_ids() : trace.input_path_ids();
  std::vector<size_t> counts(trace.path_interner().size(), 0);
  for (uint32_t id : ids) {
    if (id != kNoStringId) ++counts[id];
  }
  return PopularityFromCounts(counts);
}

/// File sizes as Figures 3/4 infer them from per-job I/O.
struct FileSizes {
  /// Per-path (final) size: the maximum bytes any job moved through the
  /// path, dense-indexed by path id; entries never touched stay negative.
  std::vector<double> by_path;
  /// Per job with a path, the final size of its file, ascending.
  std::vector<double> by_job;
};

FileSizes GatherFileSizes(const trace::Trace& trace, bool use_output) {
  const std::vector<uint32_t>& ids =
      use_output ? trace.output_path_ids() : trace.input_path_ids();
  const std::vector<trace::JobRecord>& jobs = trace.jobs();
  FileSizes sizes;
  sizes.by_path.assign(trace.path_interner().size(), -1.0);
  for (size_t i = 0; i < jobs.size(); ++i) {
    uint32_t id = ids[i];
    if (id == kNoStringId) continue;
    double bytes = use_output ? jobs[i].output_bytes : jobs[i].input_bytes;
    sizes.by_path[id] = std::max(sizes.by_path[id], bytes);
  }
  sizes.by_job.reserve(jobs.size());
  for (uint32_t id : ids) {
    if (id != kNoStringId) sizes.by_job.push_back(sizes.by_path[id]);
  }
  std::sort(sizes.by_job.begin(), sizes.by_job.end());
  return sizes;
}

}  // namespace

DataSizeCdfs ComputeDataSizeCdfs(const trace::Trace& trace) {
  std::vector<double> input, shuffle, output;
  input.reserve(trace.size());
  shuffle.reserve(trace.size());
  output.reserve(trace.size());
  for (const auto& job : trace.jobs()) {
    input.push_back(job.input_bytes);
    shuffle.push_back(job.shuffle_bytes);
    output.push_back(job.output_bytes);
  }
  return DataSizeCdfs{stats::EmpiricalCdf(std::move(input)),
                      stats::EmpiricalCdf(std::move(shuffle)),
                      stats::EmpiricalCdf(std::move(output))};
}

FilePopularity PopularityFromCountOfCounts(
    const std::vector<size_t>& files_with) {
  FilePopularity result;
  for (size_t c = 1; c < files_with.size(); ++c) {
    result.distinct_files += files_with[c];
    result.total_accesses += c * files_with[c];
  }
  result.frequencies.reserve(result.distinct_files);
  for (size_t c = files_with.size(); c-- > 1;) {
    result.frequencies.insert(result.frequencies.end(), files_with[c],
                              static_cast<double>(c));
  }
  result.zipf = stats::FitZipfSorted(result.frequencies);
  return result;
}

FilePopularity PopularityFromCounts(const std::vector<size_t>& counts) {
  std::vector<size_t> files_with;
  for (size_t count : counts) {
    if (count == 0) continue;  // path only seen in the other direction
    if (count >= files_with.size()) files_with.resize(count + 1, 0);
    ++files_with[count];
  }
  return PopularityFromCountOfCounts(files_with);
}

FilePopularity ComputeInputPopularity(const trace::Trace& trace) {
  return ComputePopularity(trace, /*use_output=*/false);
}

FilePopularity ComputeOutputPopularity(const trace::Trace& trace) {
  return ComputePopularity(trace, /*use_output=*/true);
}

SizeSkewCurve ComputeSizeSkew(const trace::Trace& trace, bool use_output,
                              size_t curve_points) {
  SizeSkewCurve curve;
  const FileSizes sizes = GatherFileSizes(trace, use_output);
  const std::vector<double>& job_file_sizes = sizes.by_job;
  curve.jobs_with_paths = job_file_sizes.size();
  if (job_file_sizes.empty()) return curve;

  std::vector<double> stored;
  stored.reserve(sizes.by_path.size());
  for (double bytes : sizes.by_path) {
    if (bytes < 0.0) continue;
    stored.push_back(bytes);
    curve.total_stored_bytes += bytes;
  }
  std::sort(stored.begin(), stored.end());
  std::vector<double> stored_cumulative(stored.size());
  double running = 0.0;
  for (size_t i = 0; i < stored.size(); ++i) {
    running += stored[i];
    stored_cumulative[i] = running;
  }

  double lo = std::max(1.0, job_file_sizes.front());
  double hi = std::max(lo, job_file_sizes.back());
  double log_lo = std::log10(lo);
  double log_hi = std::log10(hi);
  for (size_t i = 0; i < curve_points; ++i) {
    double t = curve_points > 1
                   ? static_cast<double>(i) / static_cast<double>(curve_points - 1)
                   : 1.0;
    SizeSkewPoint point;
    point.file_bytes = std::pow(10.0, log_lo + t * (log_hi - log_lo));
    auto job_it = std::upper_bound(job_file_sizes.begin(),
                                   job_file_sizes.end(), point.file_bytes);
    point.fraction_of_jobs =
        static_cast<double>(job_it - job_file_sizes.begin()) /
        static_cast<double>(job_file_sizes.size());
    auto stored_it =
        std::upper_bound(stored.begin(), stored.end(), point.file_bytes);
    size_t index = static_cast<size_t>(stored_it - stored.begin());
    double bytes_below = index == 0 ? 0.0 : stored_cumulative[index - 1];
    point.fraction_of_stored_bytes =
        curve.total_stored_bytes > 0.0 ? bytes_below / curve.total_stored_bytes
                                       : 0.0;
    curve.points.push_back(point);
  }
  return curve;
}

double StoredBytesFractionForJobCoverage(const trace::Trace& trace,
                                         double job_fraction,
                                         bool use_output) {
  const FileSizes sizes = GatherFileSizes(trace, use_output);
  if (sizes.by_job.empty()) return 0.0;

  // Size threshold S below which `job_fraction` of accesses fall ...
  double threshold = stats::QuantileSorted(sizes.by_job, job_fraction);
  // ... and the share of stored bytes held by files of size <= S.
  double covered_bytes = 0.0;
  double total_bytes = 0.0;
  for (double bytes : sizes.by_path) {
    if (bytes < 0.0) continue;
    total_bytes += bytes;
    if (bytes <= threshold) covered_bytes += bytes;
  }
  return total_bytes > 0.0 ? covered_bytes / total_bytes : 0.0;
}

ReaccessIntervals ComputeReaccessIntervals(const trace::Trace& trace) {
  std::vector<double> input_input;
  std::vector<double> output_input;
  // path id -> last access time; negative means never.
  const size_t path_count = trace.path_interner().size();
  std::vector<double> last_read(path_count, -1.0);
  std::vector<double> last_written(path_count, -1.0);
  // Walk the merged access stream chronologically.
  for (const auto& access : storage::ExtractAccesses(trace)) {
    uint32_t id = access.path_id;
    if (access.kind == storage::AccessKind::kRead) {
      if (last_read[id] >= 0.0) {
        input_input.push_back(access.time - last_read[id]);
      }
      if (last_written[id] >= 0.0) {
        double interval = access.time - last_written[id];
        if (interval >= 0.0) output_input.push_back(interval);
      }
      last_read[id] = access.time;
    } else {
      last_written[id] = access.time;
    }
  }
  return ReaccessIntervals{stats::EmpiricalCdf(std::move(input_input)),
                           stats::EmpiricalCdf(std::move(output_input))};
}

ReaccessFractions ReaccessFractionsFromHits(size_t jobs_with_paths,
                                            size_t input_hits,
                                            size_t output_hits) {
  ReaccessFractions result;
  result.jobs_with_paths = jobs_with_paths;
  if (jobs_with_paths > 0) {
    result.input_reaccess = static_cast<double>(input_hits) /
                            static_cast<double>(jobs_with_paths);
    result.output_reaccess = static_cast<double>(output_hits) /
                             static_cast<double>(jobs_with_paths);
  }
  return result;
}

ReaccessFractions ComputeReaccessFractions(const trace::Trace& trace) {
  const size_t path_count = trace.path_interner().size();
  std::vector<uint8_t> seen_inputs(path_count, 0);
  std::vector<uint8_t> seen_outputs(path_count, 0);
  size_t jobs_with_paths = 0;
  size_t input_hits = 0;
  size_t output_hits = 0;
  // Chronological scan; for each job, was its input path pre-existing?
  for (const auto& access : storage::ExtractAccesses(trace)) {
    uint32_t id = access.path_id;
    if (access.kind == storage::AccessKind::kRead) {
      ++jobs_with_paths;
      // Count the strongest provenance: output-of-an-earlier-job wins over
      // input-seen-before (matches Figure 6's two stacked categories).
      if (seen_outputs[id]) {
        ++output_hits;
      } else if (seen_inputs[id]) {
        ++input_hits;
      }
      seen_inputs[id] = 1;
    } else {
      seen_outputs[id] = 1;
    }
  }
  return ReaccessFractionsFromHits(jobs_with_paths, input_hits, output_hits);
}

}  // namespace swim::core

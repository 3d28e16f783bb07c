#include "storage/access_stream.h"

#include <algorithm>

namespace swim::storage {

std::vector<FileAccess> ExtractAccesses(const trace::Trace& trace) {
  std::vector<FileAccess> accesses;
  accesses.reserve(trace.size() * 2);
  const std::vector<uint32_t>& input_ids = trace.input_path_ids();
  const std::vector<uint32_t>& output_ids = trace.output_path_ids();
  const std::vector<trace::JobRecord>& jobs = trace.jobs();
  for (size_t i = 0; i < jobs.size(); ++i) {
    const auto& job = jobs[i];
    if (!job.input_path.empty()) {
      accesses.push_back({job.submit_time, job.input_path, job.input_bytes,
                          AccessKind::kRead, job.job_id, input_ids[i]});
    }
    if (!job.output_path.empty()) {
      accesses.push_back({job.FinishTime(), job.output_path,
                          job.output_bytes, AccessKind::kWrite, job.job_id,
                          output_ids[i]});
    }
  }
  std::stable_sort(accesses.begin(), accesses.end(),
                   [](const FileAccess& a, const FileAccess& b) {
                     return a.time < b.time;
                   });
  return accesses;
}

std::unordered_map<std::string, double, TransparentStringHash,
                   TransparentStringEq>
ComputeFileSizes(const std::vector<FileAccess>& accesses) {
  std::unordered_map<std::string, double, TransparentStringHash,
                     TransparentStringEq>
      sizes;
  sizes.reserve(accesses.size());
  for (const auto& access : accesses) {
    double& size = sizes[access.path];
    size = std::max(size, access.bytes);
  }
  return sizes;
}

}  // namespace swim::storage

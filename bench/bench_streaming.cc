// bench_streaming: the zero-materialization analysis fast path and the
// follow-mode incremental tick.
//
//   bench_streaming [--jobs N] [--json out.json]
//
// Generates an FB-2010-shaped trace (default 1M jobs), writes it as STF1,
// and times:
//
//   materialize_analyze   LoadTraceColumnar + AnalyzeWorkload — the batch
//                         pipeline a streaming consumer would otherwise run
//   streaming_report      ColumnarTraceView::Open + ObserveColumns + Report
//                         — column spans consumed in place, no JobRecord
//                         ever built, no full-column sorts
//   full_reanalysis       one-shot streaming pass over the grown file (the
//                         work a naive follower redoes every tick)
//   follow_tick           TraceFollower::Poll + Report after the file grew
//                         by 1% of the jobs — O(new batch) work
//   csv_follow_tick_*     a CSV follower's Poll + Report for one 1,000-row
//                         append after a 10% and after a 99% prefix, and
//                         their ratio: how much a tick grows with the
//                         state already folded (informational, not gated)
//
// `--jobs N` (default 1M, capped at FB-2010's spec job count) must be a
// whole number >= 2; anything else exits 2.
//
// Hard gates (CI bench-smoke):
//   - streaming_report >= 3x faster than materialize_analyze;
//   - follow_tick >= 10x faster than full_reanalysis.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "core/analysis/follow.h"
#include "core/analysis/streaming.h"
#include "core/analysis/workload_report.h"
#include "numeric_arg.h"
#include "trace/columnar.h"
#include "trace/trace_io.h"

namespace {

using namespace swim;

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir && *dir ? dir : "/tmp";
  if (path.back() != '/') path.push_back('/');
  return path + name;
}

/// Writes `bytes` to `path`; mode "ab" appends instead of replacing.
void WriteFile(const std::string& path, std::string_view bytes,
               const char* mode = "wb") {
  std::FILE* out = std::fopen(path.c_str(), mode);
  SWIM_CHECK(out != nullptr);
  SWIM_CHECK(std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size());
  std::fclose(out);
}

/// Parses `--jobs`: a whole number of at least 2 (the follow tick needs a
/// nonempty prefix and at least one new job).
bool ParseJobs(const char* text, size_t* jobs) {
  if (!ParseNumericArg("--jobs", text, jobs)) return false;
  if (*jobs >= 2) return true;
  std::fprintf(stderr, "invalid value for --jobs: '%s' (expected at least 2)\n",
               text);
  return false;
}

/// Byte offset of each CSV data row of `csv`, plus the end offset, so
/// [row_start[i], row_start[j]) is the text of rows [i, j). The metadata
/// and header lines precede row 0.
std::vector<size_t> CsvRowStarts(const std::string& csv) {
  std::vector<size_t> starts;
  bool header_seen = false;
  for (size_t at = 0; at < csv.size();) {
    const size_t newline = csv.find('\n', at);
    const size_t next = newline == std::string::npos ? csv.size() : newline + 1;
    if (header_seen) {
      starts.push_back(at);
    } else if (csv[at] != '#') {
      header_seen = true;
    }
    at = next;
  }
  starts.push_back(csv.size());
  return starts;
}

/// Times a CSV follower's Poll + Report for `tick_rows` new rows, after an
/// untimed first poll over the first `prefix_rows` rows. Each of up to
/// three ticks appends the next `tick_rows` rows; the median is reported.
bench::BenchTiming CsvFollowTick(const std::string& path,
                                 const std::string& csv,
                                 const std::vector<size_t>& row_starts,
                                 size_t prefix_rows, size_t tick_rows) {
  WriteFile(path, std::string_view(csv).substr(0, row_starts[prefix_rows]));
  auto follower = core::TraceFollower::Open(path);
  SWIM_CHECK_OK(follower.status());
  auto seed = follower->Poll();
  SWIM_CHECK_OK(seed.status());
  SWIM_CHECK(seed->total_jobs == prefix_rows);
  const size_t jobs = row_starts.size() - 1;
  std::vector<double> seconds;
  for (size_t at = prefix_rows; seconds.size() < 3 && at + tick_rows <= jobs;
       at += tick_rows) {
    WriteFile(path,
              std::string_view(csv).substr(
                  row_starts[at], row_starts[at + tick_rows] - row_starts[at]),
              "ab");
    const auto start = std::chrono::steady_clock::now();
    auto tick = follower->Poll();
    SWIM_CHECK_OK(tick.status());
    SWIM_CHECK(tick->new_jobs == tick_rows);
    auto report = follower->Report();
    SWIM_CHECK_OK(report.status());
    seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
  }
  SWIM_CHECK(!seconds.empty());
  std::sort(seconds.begin(), seconds.end());
  bench::BenchTiming timing;
  timing.median_seconds = seconds[(seconds.size() - 1) / 2];
  timing.ops_per_sec = static_cast<double>(tick_rows) /
                       std::max(timing.median_seconds, 1e-12);
  timing.repeats = static_cast<int>(seconds.size());
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::JsonPathFromArgs(argc, argv);
  size_t requested_jobs = 1000000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") != 0) continue;
    if (!ParseJobs(i + 1 < argc ? argv[i + 1] : "", &requested_jobs)) {
      return 2;
    }
    ++i;
  }

  bench::Banner("Streaming: generating FB-2010 at " +
                std::to_string(requested_jobs) + " jobs");
  trace::Trace full = bench::BenchTrace("FB-2010", requested_jobs);
  (void)full.name_ids();
  (void)full.input_path_ids();
  // The generator caps the request at the workload's own job count.
  const size_t jobs = full.size();
  SWIM_CHECK_GE(jobs, 2u);
  // The follow tick consumes the last 1% of the trace (at least one job).
  const size_t growth = std::max<size_t>(1, jobs / 100);
  const size_t prefix_jobs = jobs - growth;

  const std::string full_path = TempPath("bench_streaming_full.stf1");
  const std::string grow_path = TempPath("bench_streaming_grow.stf1");
  SWIM_CHECK_OK(trace::WriteTraceColumnar(full, full_path));
  const std::string full_bytes = [&] {
    std::string bytes = trace::TraceToColumnarBytes(full);
    return bytes;
  }();
  const std::string prefix_bytes = [&] {
    trace::Trace prefix;
    prefix.mutable_metadata() = full.metadata();
    for (size_t i = 0; i < prefix_jobs; ++i) prefix.AddJob(full.jobs()[i]);
    return trace::TraceToColumnarBytes(prefix);
  }();

  bench::BenchJsonWriter json;
  char buffer[160];

  // --- Gate A: one-shot report, materialize vs streaming ------------------
  bench::Banner("One-shot report paths");
  auto materialize_analyze = bench::MedianOpsPerSec(jobs, 1, 3, [&] {
    auto trace = trace::LoadTraceColumnar(full_path);
    SWIM_CHECK_OK(trace.status());
    auto report = core::AnalyzeWorkload(*trace);
    SWIM_CHECK_OK(report.status());
  });
  json.Add("materialize_analyze", materialize_analyze, 0);
  std::printf("  materialize_analyze: %.3f s (%.0f jobs/s)\n",
              materialize_analyze.median_seconds,
              materialize_analyze.ops_per_sec);

  auto streaming_report = bench::MedianOpsPerSec(jobs, 1, 3, [&] {
    auto view = trace::ColumnarTraceView::Open(full_path);
    SWIM_CHECK_OK(view.status());
    core::StreamingAnalyzer analyzer;
    SWIM_CHECK_OK(analyzer.ObserveColumns(*view, 0, view->job_count()));
    auto report = analyzer.Report(&*view);
    SWIM_CHECK_OK(report.status());
  });
  json.Add("streaming_report", streaming_report, 0);
  std::printf("  streaming_report:    %.3f s (%.0f jobs/s)\n",
              streaming_report.median_seconds, streaming_report.ops_per_sec);

  // --- Gate B: follow tick vs full re-analysis ----------------------------
  bench::Banner("Follow tick (" + std::to_string(growth) + " new jobs)");
  auto full_reanalysis = bench::MedianOpsPerSec(jobs, 1, 3, [&] {
    auto view = trace::ColumnarTraceView::Open(full_path);
    SWIM_CHECK_OK(view.status());
    core::StreamingAnalyzer analyzer;
    SWIM_CHECK_OK(analyzer.ObserveColumns(*view, 0, view->job_count()));
    auto report = analyzer.Report(&*view);
    SWIM_CHECK_OK(report.status());
  });
  json.Add("full_reanalysis", full_reanalysis, 0);

  // A tick cannot be repeated in place (the poll consumes the growth), so
  // each measured run rebuilds the scenario untimed: seed the follower on
  // the prefix snapshot, grow the file, then time exactly Poll + Report.
  std::vector<double> tick_seconds;
  for (int run = 0; run < 3; ++run) {
    WriteFile(grow_path, prefix_bytes);
    auto follower = core::TraceFollower::Open(grow_path);
    SWIM_CHECK_OK(follower.status());
    auto seed = follower->Poll();
    SWIM_CHECK_OK(seed.status());
    SWIM_CHECK(seed->total_jobs == prefix_jobs);
    WriteFile(grow_path, full_bytes);
    const auto start = std::chrono::steady_clock::now();
    auto tick = follower->Poll();
    SWIM_CHECK_OK(tick.status());
    SWIM_CHECK(tick->new_jobs == growth);
    auto report = follower->Report();
    SWIM_CHECK_OK(report.status());
    tick_seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
  }
  std::sort(tick_seconds.begin(), tick_seconds.end());
  bench::BenchTiming follow_tick;
  follow_tick.median_seconds = tick_seconds[(tick_seconds.size() - 1) / 2];
  follow_tick.ops_per_sec =
      static_cast<double>(growth) / std::max(follow_tick.median_seconds, 1e-12);
  follow_tick.repeats = 3;
  follow_tick.warmups = 0;
  json.Add("follow_tick", follow_tick, 0);
  std::printf("  full_reanalysis: %.3f s   follow_tick: %.4f s\n",
              full_reanalysis.median_seconds, follow_tick.median_seconds);

  // --- Layer number: CSV follow tick vs folded state (not gated) ---------
  // The same-size append after a 10% and after a 99% prefix. A tick whose
  // cost is O(new rows) takes as long at both; the ratio shows what still
  // grows with the state already folded.
  const size_t csv_tick_rows =
      std::min<size_t>(1000, std::max<size_t>(1, jobs / 100));
  bench::Banner("CSV follow tick (" + std::to_string(csv_tick_rows) +
                " new rows) after a 10% and a 99% prefix");
  const std::string csv_path = TempPath("bench_streaming_follow.csv");
  bench::BenchTiming csv_tick_10;
  bench::BenchTiming csv_tick_99;
  {
    const std::string csv = trace::TraceToCsv(full);
    const std::vector<size_t> row_starts = CsvRowStarts(csv);
    SWIM_CHECK(row_starts.size() == jobs + 1);
    auto prefix_at = [&](size_t percent) {
      return std::min(jobs - csv_tick_rows,
                      std::max<size_t>(1, jobs * percent / 100));
    };
    csv_tick_10 = CsvFollowTick(csv_path, csv, row_starts, prefix_at(10),
                                csv_tick_rows);
    csv_tick_99 = CsvFollowTick(csv_path, csv, row_starts, prefix_at(99),
                                csv_tick_rows);
  }
  const double csv_tick_ratio = csv_tick_99.median_seconds /
                                std::max(csv_tick_10.median_seconds, 1e-12);
  json.Add("csv_follow_tick_after_10pct", csv_tick_10, 0);
  json.Add("csv_follow_tick_after_99pct", csv_tick_99, 0);
  json.Add("csv_follow_tick_99_over_10", csv_tick_ratio, 0);
  std::printf("  after 10%%: %.4f s   after 99%%: %.4f s   ratio %.2fx "
              "(informational)\n",
              csv_tick_10.median_seconds, csv_tick_99.median_seconds,
              csv_tick_ratio);

  // --- Ratios + gates -----------------------------------------------------
  const double stream_speedup =
      materialize_analyze.median_seconds /
      std::max(streaming_report.median_seconds, 1e-12);
  const double tick_speedup = full_reanalysis.median_seconds /
                              std::max(follow_tick.median_seconds, 1e-12);
  json.Add("streaming_speedup_vs_materialize", stream_speedup, 0);
  json.Add("follow_tick_speedup_vs_full", tick_speedup, 0);

  bench::Banner("Speedup summary");
  std::snprintf(buffer, sizeof(buffer), "%.1fx", stream_speedup);
  bench::PaperVsMeasured("streaming report vs materialize+analyze", ">= 3x",
                         buffer);
  std::snprintf(buffer, sizeof(buffer), "%.0fx", tick_speedup);
  bench::PaperVsMeasured("follow tick vs full re-analysis", ">= 10x", buffer);

  if (!json.WriteTo(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::remove(full_path.c_str());
  std::remove(grow_path.c_str());
  std::remove(csv_path.c_str());

  if (stream_speedup < 3.0) {
    std::printf("\nFAIL: streaming report %.2fx below the 3x gate vs "
                "materialize+analyze\n",
                stream_speedup);
    return 1;
  }
  if (tick_speedup < 10.0) {
    std::printf("\nFAIL: follow tick %.1fx below the 10x gate vs full "
                "re-analysis\n",
                tick_speedup);
    return 1;
  }
  return 0;
}

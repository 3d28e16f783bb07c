// swim_perfbench: the swimcpp benchmark, one process per run.
//
//   swim_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--jobs <n>] [--inject fault]
//                  [--work-dir <dir>] [--git-sha <sha>]
//                  [--source-digest <hex>]
//
// Workloads (README.md next to this file gives the rationale):
//   fb2010-pipeline  swim_analyze batch, swim_analyze --stream and
//                    swim_replay --nodes 3000 over a 1M-job FB-2010 STF1
//   fb2010-follow    a producer appends CSV row batches to a 1M-job
//                    FB-2010 trace while a TraceFollower polls and reports
//   ccb-swim-sweep   the paper's section 7 method on CC-b: BuildModel,
//                    SynthesizeTrace at a scaled-up job count, RunSweep
//
// A run sets up its inputs from --seed several times (reporting the median
// set-up time), then repeats the workload's iteration for --seconds. Every
// iteration yields answers an analyst waits for: the first answer and the
// later ones. With --trace 0 the run reports the end-to-end metrics; with
// --trace 1 it alternates untraced and traced iterations, records a span
// around every call into a layer's public functions, and reports per-layer
// self times, work counts and the tracing overhead. Built-in correctness
// checks count towards `failed`; the last stdout line is the JSON result.
#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/flat_hash.h"
#include "common/status.h"
#include "core/analysis/compute.h"
#include "core/analysis/data_access.h"
#include "core/analysis/follow.h"
#include "core/analysis/streaming.h"
#include "core/analysis/temporal.h"
#include "core/analysis/workload_report.h"
#include "core/synth/synthesizer.h"
#include "core/synth/workload_model.h"
#include "sim/replay.h"
#include "sim/sweep.h"
#include "trace/columnar.h"
#include "trace/summary.h"
#include "trace/trace_io.h"
#include "tracer.h"
#include "workloads/paper_workloads.h"
#include "workloads/trace_generator.h"

#ifndef SWIM_PERFBENCH_BUILD_TYPE
#define SWIM_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SWIM_PERFBENCH_COMPILER
#define SWIM_PERFBENCH_COMPILER "unknown"
#endif

namespace swim::perfbench {
namespace {

/// Lane count for every parallel layer: fixed, so results from hosts with
/// more cores stay comparable, and never above the host's core count.
constexpr int kMaxLanes = 4;

/// Set-ups per run: at least kMinSetups, and more (up to kMaxSetups) until
/// kSetupSeconds have passed, so that short set-ups give a steady median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kSetupSeconds = 3.0;

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Overrides the workload's job count (the self-test runs small).
  size_t jobs = 0;
  /// --inject fault: feed the workload a deliberately broken input.
  bool inject_fault = false;
  std::string work_dir = ".bench_build/work";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  int lanes = 1;
};

uint64_t Digest(const std::string& bytes) {
  return Checksum64(bytes.data(), bytes.size());
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Appends the raw bytes of a trivially copyable value (digest input).
template <typename T>
void Put(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile (p in (0, 1]).
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

/// The process's peak resident set since the last ResetPeakRss, from
/// VmHWM in /proc/self/status; 0 where that is unreadable.
double PeakRssMb() {
  std::FILE* in = std::fopen("/proc/self/status", "r");
  if (in == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), in) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(in);
  return kib / 1024.0;
}

/// Starts a new peak-RSS window at the current resident set. Freed heap
/// is handed back first, so set-up memory that is already released does
/// not count. False where /proc/self/clear_refs is not writable.
bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* out = std::fopen("/proc/self/clear_refs", "w");
  if (out == nullptr) return false;
  const bool wrote = std::fputs("5", out) >= 0;
  return std::fclose(out) == 0 && wrote;
}

/// Runs `fn` inside a span named `name`.
template <typename Fn>
auto Traced(Tracer& tracer, const char* name, Fn&& fn) {
  ScopedSpan span(tracer, name);
  return fn();
}

// ---------------------------------------------------------------------------
// Run state: operation accounting, checks, samples.
// ---------------------------------------------------------------------------

class Bench {
 public:
  explicit Bench(Flags flags) : flags_(std::move(flags)) {}

  const Flags& flags() const { return flags_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// Counts one operation; a non-OK status is a failed one.
  bool Ok(const Status& status, const char* what) {
    ++attempted_;
    if (status.ok()) return true;
    ++failed_;
    std::fprintf(stderr, "FAILED %s: %s\n", what, status.ToString().c_str());
    return false;
  }

  /// Counts one correctness check.
  bool Check(bool condition, const std::string& what) {
    ++attempted_;
    if (condition) return true;
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    return false;
  }

  /// Output digests must read the same in every set-up and iteration.
  void SameEveryTime(const std::string& key, uint64_t digest) {
    auto [it, inserted] = digests_.emplace(key, digest);
    if (!inserted) {
      Check(it->second == digest, "digest of " + key + " changed");
    }
  }

  /// Records one sample of a named quantity; traced and untraced
  /// iterations keep separate series.
  void Sample(const std::string& name, double value) {
    samples_[tracer_.enabled()][name].push_back(value);
  }

  /// Every series of one kind as a JSON object of arrays.
  std::string SamplesJson(bool traced) const {
    std::string out = "{";
    char value[32];
    for (const auto& [name, values] : samples_[traced]) {
      out += (out.size() > 1 ? ", \"" : "\"") + name + "\": [";
      for (size_t i = 0; i < values.size(); ++i) {
        std::snprintf(value, sizeof(value), "%s%.9g", i ? ", " : "",
                      values[i]);
        out += value;
      }
      out += "]";
    }
    return out + "}";
  }

  const std::vector<double>& Samples(bool traced,
                                     const std::string& name) const {
    static const std::vector<double> kEmpty;
    const auto& series = samples_[traced];
    auto it = series.find(name);
    return it == series.end() ? kEmpty : it->second;
  }

 private:
  Flags flags_;
  Tracer tracer_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::map<std::string, uint64_t> digests_;
  std::map<std::string, std::vector<double>> samples_[2];
};

// ---------------------------------------------------------------------------
// Shared layer calls and checks.
// ---------------------------------------------------------------------------

std::optional<trace::Trace> Generate(Bench& b, const char* name, size_t jobs,
                                     uint64_t seed) {
  auto spec = workloads::PaperWorkloadByName(name);
  if (!b.Ok(spec.status(), "PaperWorkloadByName")) return std::nullopt;
  workloads::GeneratorOptions options;
  options.seed = seed;
  options.job_count_override = jobs;
  auto trace = Traced(b.tracer(), "workloads.generate",
                      [&] { return workloads::GenerateTrace(*spec, options); });
  if (!b.Ok(trace.status(), "GenerateTrace")) return std::nullopt;
  return *std::move(trace);
}

trace::ColumnarOptions ColumnarOptionsFor(const Bench& b) {
  trace::ColumnarOptions options;
  options.threads = b.flags().lanes;
  return options;
}

trace::ParseOptions ParseOptionsFor(const Bench& b) {
  trace::ParseOptions options;
  options.threads = b.flags().lanes;
  options.warm_indexes = true;  // as swim_analyze sets it
  return options;
}

/// Loads a trace as swim_analyze and swim_replay do: one ReadTraceAuto
/// call, in one span.
std::optional<trace::Trace> LoadTrace(Bench& b, const std::string& path) {
  auto trace = Traced(b.tracer(), "trace.read_auto", [&] {
    return trace::ReadTraceAuto(path, ParseOptionsFor(b), nullptr,
                                ColumnarOptionsFor(b));
  });
  if (!b.Ok(trace.status(), "ReadTraceAuto")) return std::nullopt;
  return *std::move(trace);
}

/// Loads an STF1 trace with the public calls ReadTraceAuto makes inside
/// (open, verify, materialize), each in its own span. Only the untimed
/// decomposition uses it; the timed path calls LoadTrace.
std::optional<trace::Trace> LoadStf1ByCall(Bench& b, const std::string& path) {
  auto view = Traced(b.tracer(), "trace.stf1_open", [&] {
    return trace::ColumnarTraceView::Open(path, ColumnarOptionsFor(b));
  });
  if (!b.Ok(view.status(), "ColumnarTraceView::Open")) return std::nullopt;
  Status verified = Traced(b.tracer(), "trace.stf1_verify",
                           [&] { return view->VerifyChecksums(); });
  if (!b.Ok(verified, "VerifyChecksums")) return std::nullopt;
  auto trace = Traced(b.tracer(), "trace.stf1_materialize",
                      [&] { return view->Materialize(b.flags().lanes); });
  if (!b.Ok(trace.status(), "Materialize")) return std::nullopt;
  return *std::move(trace);
}

bool WriteFile(const std::string& path, const std::string& bytes,
               const char* mode = "wb") {
  std::FILE* out = std::fopen(path.c_str(), mode);
  if (out == nullptr) return false;
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size();
  return std::fclose(out) == 0 && wrote;
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) return std::nullopt;
  std::string bytes;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (!ec) bytes.reserve(size);  // one allocation: peak_rss_mb sees no doubling
  char buffer[1 << 16];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
    bytes.append(buffer, got);
  }
  std::fclose(in);
  return bytes;
}

/// The report fields the streaming analyzer computes exactly (the set
/// streaming_test pins bit for bit against AnalyzeWorkload), as raw bits.
/// WorkloadReport and StreamingReport share these member names and types.
using ExactFields = std::vector<std::pair<std::string, uint64_t>>;

template <typename Report>
ExactFields ExactStageFields(const Report& r) {
  ExactFields f;
  f.emplace_back("summary.jobs", r.summary.jobs);
  f.emplace_back("summary.bytes_moved", Bits(r.summary.bytes_moved));
  f.emplace_back("summary.span_seconds", Bits(r.summary.span_seconds));
  f.emplace_back("summary.map_only_jobs", r.summary.map_only_jobs);
  f.emplace_back("summary.machines", static_cast<uint64_t>(r.summary.machines));
  auto popularity = [&](const char* side, const core::FilePopularity& p) {
    const std::string prefix = std::string(side) + "_popularity.";
    f.emplace_back(prefix + "distinct_files", p.distinct_files);
    f.emplace_back(prefix + "total_accesses", p.total_accesses);
    f.emplace_back(prefix + "zipf.slope", Bits(p.zipf.slope));
    f.emplace_back(prefix + "zipf.r_squared", Bits(p.zipf.r_squared));
    f.emplace_back(prefix + "frequencies",
                   Checksum64(p.frequencies.data(),
                              p.frequencies.size() * sizeof(double)));
  };
  popularity("input", r.input_popularity);
  popularity("output", r.output_popularity);
  f.emplace_back("reaccess.jobs_with_paths",
                 r.reaccess_fractions.jobs_with_paths);
  f.emplace_back("reaccess.input", Bits(r.reaccess_fractions.input_reaccess));
  f.emplace_back("reaccess.output", Bits(r.reaccess_fractions.output_reaccess));
  f.emplace_back("burstiness.jobs", Bits(r.burstiness.jobs.PeakToMedian()));
  f.emplace_back("burstiness.bytes", Bits(r.burstiness.bytes.PeakToMedian()));
  f.emplace_back("burstiness.task_seconds",
                 Bits(r.burstiness.task_seconds.PeakToMedian()));
  f.emplace_back("correlations.jobs_bytes", Bits(r.correlations.jobs_bytes));
  f.emplace_back("correlations.jobs_task_seconds",
                 Bits(r.correlations.jobs_task_seconds));
  f.emplace_back("correlations.bytes_task_seconds",
                 Bits(r.correlations.bytes_task_seconds));
  f.emplace_back("diurnal_strength", Bits(r.diurnal_strength));
  f.emplace_back("names.named_jobs", r.names.named_jobs);
  std::string words;
  for (const core::NameShare& w : r.names.words) {
    words += w.word;
    words.push_back('\0');
    Put(words, w.by_jobs);
    Put(words, w.by_bytes);
  }
  f.emplace_back("names.words", Digest(words));
  for (size_t i = 0; i < r.names.framework_by_jobs.size(); ++i) {
    f.emplace_back("names.framework_by_jobs." + std::to_string(i),
                   Bits(r.names.framework_by_jobs[i]));
  }
  return f;
}

/// Checks two field lists for bit equality, naming every mismatch.
void CheckSameFields(Bench& b, const ExactFields& got, const ExactFields& want,
                     const std::string& what) {
  std::string mismatched;
  for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (got[i] != want[i]) mismatched += " " + got[i].first;
  }
  b.Check(got.size() == want.size() && mismatched.empty(),
          what + " differ:" + mismatched);
}

/// Simulated statistics summed over the cells of one iteration. They are
/// deterministic, so they double as correctness fingerprints.
struct SimTally {
  size_t cells = 0;
  size_t cells_saturated = 0;
  size_t jobs_replayed = 0;
  size_t unfinished_jobs = 0;
  int64_t retries = 0;
  int64_t preemption_rounds = 0;
  int64_t admission_parked_jobs = 0;
  double simulated_seconds = 0.0;

  void Sample(Bench& b) const {
    b.Sample("sim.cells", static_cast<double>(cells));
    b.Sample("sim.cells_saturated", static_cast<double>(cells_saturated));
    b.Sample("sim.jobs_replayed", static_cast<double>(jobs_replayed));
    b.Sample("sim.unfinished_jobs", static_cast<double>(unfinished_jobs));
    b.Sample("sim.retries", static_cast<double>(retries));
    b.Sample("sim.preemption_rounds", static_cast<double>(preemption_rounds));
    b.Sample("sim.admission_parked_jobs",
             static_cast<double>(admission_parked_jobs));
  }
};

/// A cell is saturated when its peak hourly occupancy reaches the cluster's
/// slot cap (within the rounding of hourly averaging).
constexpr double kSaturatedOccupancy = 0.95;

/// Checks that a replay accounts for every job, tallies it, and appends
/// its canonical fields to `digest_input`.
void AccountCell(Bench& b, const std::string& label,
                 const sim::ReplayResult& r, const sim::ReplayOptions& options,
                 size_t jobs, SimTally& tally, std::string& digest_input) {
  b.Check(r.outcomes.size() + r.unfinished_jobs == jobs,
          label + ": outcomes + unfinished == jobs");
  b.Check(r.utilization >= 0.0 && r.utilization <= 1.0,
          label + ": utilization in [0, 1]");
  double peak = 0.0;
  for (double o : r.hourly_occupancy) peak = std::max(peak, o);
  const double slots = options.cluster.total_map_slots() +
                       options.cluster.total_reduce_slots();
  ++tally.cells;
  if (peak >= kSaturatedOccupancy * slots) ++tally.cells_saturated;
  if (b.tracer().enabled()) {
    std::printf("  cell %-22s util=%.3f peak/slots=%.3f unfinished=%zu\n",
                label.c_str(), r.utilization, peak / slots, r.unfinished_jobs);
  }
  tally.jobs_replayed += r.outcomes.size();
  tally.unfinished_jobs += r.unfinished_jobs;
  tally.retries += r.failures.retries;
  tally.preemption_rounds += r.sla.preemption_rounds;
  tally.admission_parked_jobs += r.sla.admission_parked_jobs;
  tally.simulated_seconds += r.makespan;

  digest_input += label;
  Put(digest_input, r.outcomes.size());
  Put(digest_input, r.unfinished_jobs);
  Put(digest_input, r.makespan);
  Put(digest_input, r.utilization);
  Put(digest_input, r.failures.retries);
  Put(digest_input, r.failures.task_failures);
  Put(digest_input, r.failures.node_losses);
  Put(digest_input, r.sla.small_misses);
  Put(digest_input, r.sla.large_misses);
  Put(digest_input, r.sla.preemption_rounds);
  Put(digest_input, r.sla.admission_parked_jobs);
  for (const sim::JobOutcome& o : r.outcomes) {
    Put(digest_input, o.job_id);
    Put(digest_input, o.latency);
  }
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Job count of the workload's input.
  virtual size_t jobs() const = 0;
  /// Builds the inputs from the seed; repeated, so it must be idempotent.
  virtual bool Setup(Bench& b) = 0;
  /// Once after the last set-up, untimed: reference results for checks.
  virtual void Prepare(Bench&) {}
  /// One iteration: samples first_answer_s and later_answers_s.
  virtual void Iterate(Bench& b) = 0;
  /// Traced iterations only, untimed: calls the public layer functions a
  /// CLI step runs internally one by one, so each gets its own span.
  virtual void Decompose(Bench&) {}
  /// The input files Setup writes; removed when the run ends.
  virtual std::vector<std::string> Files() const = 0;
};

std::string WorkPath(const Bench& b, const char* file) {
  return b.flags().work_dir + "/" + file;
}

/// fb2010-pipeline: the ROADMAP's end-to-end path. Per iteration, with the
/// calls the CLIs make: swim_analyze (ReadTraceAuto, AnalyzeWorkload,
/// FormatReport), then swim_analyze --stream (SniffTraceFormat, Open,
/// ObserveColumns, Report, Format), then swim_replay --nodes 3000
/// (ReadTraceAuto, ReplayTrace).
class PipelineWorkload : public Workload {
 public:
  explicit PipelineWorkload(const Bench& b)
      : jobs_(b.flags().jobs > 0 ? b.flags().jobs : 1000000),
        path_(WorkPath(b, "fb2010.stf1")) {}

  size_t jobs() const override { return jobs_; }
  std::vector<std::string> Files() const override { return {path_}; }

  bool Setup(Bench& b) override {
    std::optional<trace::Trace> trace =
        Generate(b, "FB-2010", jobs_, b.flags().seed);
    if (!trace) return false;
    Status written = Traced(b.tracer(), "trace.stf1_write", [&] {
      return trace::WriteTraceColumnar(*trace, path_);
    });
    if (!b.Ok(written, "WriteTraceColumnar")) return false;
    // The header checksum chains to every section checksum: it digests
    // the whole file.
    std::FILE* in = std::fopen(path_.c_str(), "rb");
    trace::Stf1Header header;
    const bool read = in != nullptr &&
                      std::fread(&header, sizeof(header), 1, in) == 1;
    if (in != nullptr) std::fclose(in);
    if (!b.Check(read, "read back the STF1 header")) return false;
    b.SameEveryTime("set-up STF1 file", header.header_checksum);
    if (b.flags().inject_fault) CorruptPayloadByte();
    return true;
  }

  void Iterate(Bench& b) override {
    // Each answer ends when its CLI would have printed it; the checks that
    // follow are not timed.
    const double start = NowSeconds();
    double batch_done = 0.0;
    double stream_done = 0.0;
    double replay_done = 0.0;
    std::optional<ExactFields> batch_fields;
    {
      ScopedSpan span(b.tracer(), "bench.analyze_batch");
      std::optional<trace::Trace> trace = LoadTrace(b, path_);
      if (trace) {
        b.Check(trace->size() == jobs_, "loaded every generated job");
        b.Sample("trace.rows", static_cast<double>(trace->size()));
        core::AnalysisOptions options;
        options.threads = b.flags().lanes;
        auto report = Traced(b.tracer(), "analysis.analyze_workload", [&] {
          return core::AnalyzeWorkload(*trace, options);
        });
        if (b.Ok(report.status(), "AnalyzeWorkload")) {
          const std::string text =
              Traced(b.tracer(), "analysis.format",
                     [&] { return core::FormatReport(*report); });
          batch_done = NowSeconds();
          b.SameEveryTime("batch report", Digest(text));
          batch_fields = ExactStageFields(*report);
          b.Sample("stats.classify_k", report->classes.k);
        }
      }
    }
    const double stream_start = NowSeconds();
    bool stream_ok = false;
    {
      ScopedSpan span(b.tracer(), "bench.analyze_stream");
      auto format = Traced(b.tracer(), "trace.sniff",
                           [&] { return trace::SniffTraceFormat(path_); });
      auto view = Traced(b.tracer(), "trace.stf1_open", [&] {
        return trace::ColumnarTraceView::Open(path_, ColumnarOptionsFor(b));
      });
      if (b.Ok(format.status(), "SniffTraceFormat") &&
          b.Ok(view.status(), "ColumnarTraceView::Open")) {
        core::StreamingOptions options;
        options.threads = b.flags().lanes;
        core::StreamingAnalyzer analyzer(options);
        Status folded = Traced(b.tracer(), "stream.fold", [&] {
          return analyzer.ObserveColumns(*view, 0, view->job_count());
        });
        if (b.Ok(folded, "ObserveColumns")) {
          auto report = Traced(b.tracer(), "stream.report",
                               [&] { return analyzer.Report(&*view); });
          if (b.Ok(report.status(), "StreamingAnalyzer::Report")) {
            const std::string text =
                Traced(b.tracer(), "stream.format",
                       [&] { return core::FormatStreamingReport(*report); });
            stream_done = NowSeconds();
            b.SameEveryTime("stream report", Digest(text));
            stream_ok = true;
            if (batch_fields) {
              CheckSameFields(b, ExactStageFields(*report), *batch_fields,
                              "batch vs stream exact stages");
            }
          }
        }
      }
    }
    const double replay_start = NowSeconds();
    bool replay_ok = false;
    {
      ScopedSpan span(b.tracer(), "bench.replay");
      std::optional<trace::Trace> trace = LoadTrace(b, path_);
      if (trace) {
        b.Sample("trace.rows", static_cast<double>(trace->size()));
        replay_ok = Replay(b, *trace, replay_done);
      }
    }

    if (batch_fields && stream_ok && replay_ok) {
      const double stream_s = stream_done - stream_start;
      const double replay_s = replay_done - replay_start;
      b.Sample("analyze_batch_s", batch_done - start);
      b.Sample("analyze_stream_s", stream_s);
      b.Sample("replay_s", replay_s);
      b.Sample("first_answer_s", batch_done - start);
      b.Sample("later_answers_s", stream_s + replay_s);
    }
  }

  void Decompose(Bench& b) override {
    std::optional<trace::Trace> trace = LoadStf1ByCall(b, path_);
    if (!trace) return;
    const trace::Trace& t = *trace;
    // The lazy id indexes AnalyzeWorkload builds on first use.
    Traced(b.tracer(), "trace.index_warm",
           [&] { t.WarmIndexes(b.flags().lanes); });
    // AnalyzeWorkload's stages run concurrently; here each runs alone so
    // its span is its own cost. Their sum is analysis.stage_sum_s.
    const double start = NowSeconds();
    Traced(b.tracer(), "analysis.summary", [&] { return trace::Summarize(t); });
    Traced(b.tracer(), "analysis.data_sizes",
           [&] { return core::ComputeDataSizeCdfs(t); });
    Traced(b.tracer(), "analysis.popularity_in",
           [&] { return core::ComputeInputPopularity(t); });
    Traced(b.tracer(), "analysis.popularity_out",
           [&] { return core::ComputeOutputPopularity(t); });
    Traced(b.tracer(), "analysis.reaccess_intervals",
           [&] { return core::ComputeReaccessIntervals(t); });
    Traced(b.tracer(), "analysis.reaccess_fractions",
           [&] { return core::ComputeReaccessFractions(t); });
    Traced(b.tracer(), "analysis.burstiness",
           [&] { return core::ComputeBurstiness(t); });
    Traced(b.tracer(), "analysis.correlations",
           [&] { return core::ComputeSeriesCorrelations(t); });
    Traced(b.tracer(), "analysis.diurnal",
           [&] { return core::DiurnalStrength(t); });
    Traced(b.tracer(), "analysis.job_names",
           [&] { return core::AnalyzeJobNames(t); });
    b.Sample("analysis.stage_sum_s", NowSeconds() - start);
    core::ClassificationOptions options;
    options.threads = b.flags().lanes;
    auto classes = Traced(b.tracer(), "stats.classify",
                          [&] { return core::ClassifyJobs(t, options); });
    b.Ok(classes.status(), "ClassifyJobs");

    // ReplayTrace is ReplayTemplate::Build, then Replay.
    const sim::ReplayOptions replay_options = ReplayOptionsFor();
    auto replay_template = Traced(b.tracer(), "sim.template_build", [&] {
      return sim::ReplayTemplate::Build(t, replay_options);
    });
    if (!b.Ok(replay_template.status(), "ReplayTemplate::Build")) return;
    const double replay_start = NowSeconds();
    auto result = Traced(b.tracer(), "sim.replay_cell", [&] {
      return replay_template->Replay(replay_options);
    });
    const double host_seconds = NowSeconds() - replay_start;
    if (b.Ok(result.status(), "ReplayTemplate::Replay")) {
      b.Sample("sim.sim_s_per_host_s", result->makespan / host_seconds);
    }
  }

 private:
  static sim::ReplayOptions ReplayOptionsFor() {
    sim::ReplayOptions options;
    options.cluster.nodes = 3000;
    options.scheduler = "fifo";
    return options;
  }

  /// Replays as swim_replay does; `answered` is when the printed figures
  /// were ready.
  bool Replay(Bench& b, const trace::Trace& trace, double& answered) {
    const sim::ReplayOptions options = ReplayOptionsFor();
    auto result = Traced(b.tracer(), "sim.replay_trace",
                         [&] { return sim::ReplayTrace(trace, options); });
    if (!b.Ok(result.status(), "ReplayTrace")) return false;
    // What swim_replay prints: per-tier latency quantiles and slowdown.
    std::string text;
    Traced(b.tracer(), "sim.latency_stats", [&] {
      for (bool small : {true, false}) {
        if (result->CountJobs(small) == 0) continue;
        stats::SortedStats latencies = result->LatencyStats(small);
        Put(text, latencies.Quantile(0.5));
        Put(text, latencies.Quantile(0.9));
        Put(text, latencies.Quantile(0.99));
        Put(text, result->MeanSlowdown(small));
      }
    });
    answered = NowSeconds();
    SimTally tally;
    AccountCell(b, "replay", *result, options, trace.size(), tally, text);
    b.SameEveryTime("replay result", Digest(text));
    tally.Sample(b);
    return true;
  }

  /// Flips one byte in the middle of the job columns: the load's checksum
  /// verification must catch it.
  void CorruptPayloadByte() {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    if (f == nullptr) return;
    std::fseek(f, 0, SEEK_END);
    const long middle = std::ftell(f) / 2;
    std::fseek(f, middle, SEEK_SET);
    const int byte = std::fgetc(f);
    std::fseek(f, middle, SEEK_SET);
    std::fputc(byte ^ 0x5a, f);
    std::fclose(f);
  }

  size_t jobs_;
  std::string path_;
};

/// fb2010-follow: one producer and one follower in one closed loop. Set-up
/// writes a 90% prefix of the trace as CSV; each iteration restores that
/// prefix, takes the follower's first report, then appends the remaining
/// rows in kTicks equal batches, polling and reporting after each.
class FollowWorkload : public Workload {
 public:
  static constexpr size_t kTicks = 100;

  explicit FollowWorkload(const Bench& b)
      : jobs_(b.flags().jobs > 0 ? b.flags().jobs : 1000000),
        prefix_rows_(jobs_ - jobs_ / 10),
        base_path_(WorkPath(b, "fb2010_prefix.csv")),
        path_(WorkPath(b, "fb2010_follow.csv")) {}

  size_t jobs() const override { return jobs_; }
  std::vector<std::string> Files() const override {
    return {base_path_, path_};
  }

  bool Setup(Bench& b) override {
    std::optional<trace::Trace> trace =
        Generate(b, "FB-2010", jobs_, b.flags().seed);
    if (!trace) return false;
    csv_ = Traced(b.tracer(), "trace.csv_write",
                  [&] { return trace::TraceToCsv(*trace); });
    trace.reset();
    b.SameEveryTime("set-up CSV", Digest(csv_));
    // Row boundaries: generated names and paths hold no newlines, so
    // every data row is one line after the header.
    const size_t header = csv_.find("job_id,");
    if (!b.Check(header != std::string::npos, "CSV header present")) {
      return false;
    }
    std::vector<size_t> row_starts;
    row_starts.reserve(jobs_ + 1);
    for (size_t pos = csv_.find('\n', header); pos != std::string::npos;
         pos = csv_.find('\n', pos + 1)) {
      row_starts.push_back(pos + 1);
    }
    if (!b.Check(row_starts.size() == jobs_ + 1 &&
                     row_starts.back() == csv_.size(),
                 "one CSV line per generated job")) {
      return false;
    }
    const std::string prefix = csv_.substr(0, row_starts[prefix_rows_]);
    if (!b.Check(WriteFile(base_path_, prefix), "write the prefix file")) {
      return false;
    }
    batches_.clear();
    const size_t tail = jobs_ - prefix_rows_;
    for (size_t i = 0; i < kTicks; ++i) {
      const size_t from = prefix_rows_ + tail * i / kTicks;
      const size_t to = prefix_rows_ + tail * (i + 1) / kTicks;
      batches_.push_back({to - from, csv_.substr(row_starts[from],
                                                 row_starts[to] -
                                                     row_starts[from])});
    }
    if (b.flags().inject_fault) {
      // An out-of-order append: the trace's first row again, after rows
      // that were submitted later.
      batches_[1].rows += 1;
      batches_[1].bytes += csv_.substr(row_starts[0],
                                       row_starts[1] - row_starts[0]);
    }
    return true;
  }

  void Prepare(Bench& b) override {
    // The one-shot pass over the final file (prefix + every batch), as
    // `swim_analyze --stream` runs it on a CSV. Each iteration checks the
    // final file's bytes equal this input.
    csv_digest_ = Digest(csv_);
    auto trace = trace::TraceFromCsv(csv_, ParseOptionsFor(b));
    csv_.clear();
    csv_.shrink_to_fit();
    if (!b.Ok(trace.status(), "TraceFromCsv (one-shot)")) return;
    core::StreamingAnalyzer analyzer(StreamingOptionsFor(b));
    analyzer.SetMetadata(trace->metadata());
    Status folded = analyzer.ObserveJobs(
        Span<const trace::JobRecord>(trace->jobs().data(), trace->size()));
    if (!b.Ok(folded, "ObserveJobs (one-shot)")) return;
    auto report = analyzer.Report();
    if (!b.Ok(report.status(), "StreamingAnalyzer::Report (one-shot)")) return;
    one_shot_ = ExactStageFields(*report);
    one_shot_->emplace_back("fraction_under_10gb",
                            Bits(report->fraction_under_10gb));
  }

  void Iterate(Bench& b) override {
    std::error_code ec;
    std::filesystem::copy_file(base_path_, path_,
                               std::filesystem::copy_options::overwrite_existing,
                               ec);
    if (!b.Check(!ec, "restore the prefix")) return;
    core::FollowOptions options;
    options.streaming = StreamingOptionsFor(b);
    options.csv_parse = ParseOptionsFor(b);
    auto opened = Traced(b.tracer(), "follow.open", [&] {
      return core::TraceFollower::Open(path_, options);
    });
    if (!b.Ok(opened.status(), "TraceFollower::Open")) return;
    // Released before the final file is read back, so that read does not
    // add to the follower's peak_rss_mb.
    std::optional<core::TraceFollower> follower(std::move(opened).value());

    const double start = NowSeconds();
    std::optional<size_t> first_rows;
    {
      ScopedSpan span(b.tracer(), "bench.first_report");
      auto poll = Traced(b.tracer(), "follow.first_poll",
                         [&] { return follower->Poll(); });
      if (b.Ok(poll.status(), "TraceFollower::Poll (first)") &&
          ReportOnce(b, *follower)) {
        first_rows = poll->new_jobs;
      }
    }
    const double first_done = NowSeconds();
    if (!first_rows ||
        !b.Check(*first_rows == prefix_rows_, "first poll reads the prefix")) {
      return;
    }

    std::vector<double> ticks_ms;
    bool ticks_ok = true;
    std::string final_report;
    for (const Batch& batch : batches_) {
      const bool appended = Traced(b.tracer(), "follow.append", [&] {
        return WriteFile(path_, batch.bytes, "ab");
      });
      if (!b.Check(appended, "append a batch")) return;
      const double tick_start = NowSeconds();
      std::optional<size_t> rows;
      {
        ScopedSpan span(b.tracer(), "bench.tick");
        auto poll = Traced(b.tracer(), "follow.poll",
                           [&] { return follower->Poll(); });
        if (b.Ok(poll.status(), "TraceFollower::Poll") &&
            ReportOnce(b, *follower, &final_report)) {
          rows = poll->new_jobs;
        }
      }
      ticks_ms.push_back(1e3 * (NowSeconds() - tick_start));
      if (!rows || !b.Check(*rows == batch.rows, "a poll reads its batch")) {
        ticks_ok = false;
        continue;
      }
    }
    if (!ticks_ok) return;
    b.Sample("follow.rows_per_poll",
             static_cast<double>(jobs_ - prefix_rows_) / batches_.size());

    b.Check(follower->jobs_consumed() == jobs_, "follower consumed every job");
    b.SameEveryTime("final follow report", Digest(final_report));
    auto report = follower->Report();
    if (b.Ok(report.status(), "TraceFollower::Report (final)") && one_shot_) {
      ExactFields fields = ExactStageFields(*report);
      fields.emplace_back("fraction_under_10gb",
                          Bits(report->fraction_under_10gb));
      CheckSameFields(b, fields, *one_shot_,
                      "follow final state vs one-shot pass");
    }
    follower.reset();
    std::optional<std::string> final_file = ReadFile(path_);
    b.Check(final_file && Digest(*final_file) == csv_digest_,
            "final file equals the one-shot input");

    double later = 0.0;
    for (double ms : ticks_ms) {
      later += ms / 1e3;
      b.Sample("follow_tick_ms", ms);
    }
    b.Sample("follow_first_report_s", first_done - start);
    b.Sample("first_answer_s", first_done - start);
    b.Sample("later_answers_s", later);
  }

  void Decompose(Bench& b) override {
    // The first poll parses the prefix CSV and folds its rows; run the two
    // public calls apart.
    auto trace = Traced(b.tracer(), "trace.csv_parse", [&] {
      return trace::ReadTraceCsv(base_path_, ParseOptionsFor(b));
    });
    if (!b.Ok(trace.status(), "ReadTraceCsv")) return;
    core::StreamingAnalyzer analyzer(StreamingOptionsFor(b));
    analyzer.SetMetadata(trace->metadata());
    Status folded = Traced(b.tracer(), "stream.fold", [&] {
      return analyzer.ObserveJobs(
          Span<const trace::JobRecord>(trace->jobs().data(), trace->size()));
    });
    b.Ok(folded, "ObserveJobs");
  }

 private:
  struct Batch {
    size_t rows = 0;
    std::string bytes;
  };

  static core::StreamingOptions StreamingOptionsFor(const Bench& b) {
    core::StreamingOptions options;
    options.threads = b.flags().lanes;
    return options;
  }

  /// Report + FormatStreamingReport, as swim_analyze --follow emits them.
  static bool ReportOnce(Bench& b, const core::TraceFollower& follower,
                         std::string* text = nullptr) {
    auto report = Traced(b.tracer(), "follow.report",
                         [&] { return follower.Report(); });
    if (!b.Ok(report.status(), "TraceFollower::Report")) return false;
    std::string formatted = Traced(b.tracer(), "stream.format", [&] {
      return core::FormatStreamingReport(*report);
    });
    if (text != nullptr) *text = std::move(formatted);
    return true;
  }

  size_t jobs_;
  size_t prefix_rows_;
  std::string base_path_;
  std::string path_;
  std::string csv_;
  uint64_t csv_digest_ = 0;
  std::vector<Batch> batches_;
  std::optional<ExactFields> one_shot_;
};

/// ccb-swim-sweep: SWIM's section 7 method on CC-b (Cloudera, 300
/// machines), read from CSV: fit a model, synthesize a scaled-up trace,
/// and replay it over a what-if grid from idle to saturated.
///
/// CC-b stands for one real customer trace, so it is generated at a fixed
/// seed, and the model and synthesis keep their default seeds: the cost of
/// a saturated replay of heavy-tailed synthetic jobs varies two- to
/// threefold between synthesized draws, more than any run length averages
/// out. The run's seed drives the replay's random streams (task failures
/// and node losses).
class SweepWorkload : public Workload {
 public:
  static constexpr uint64_t kTraceSeed = 2012;
  /// Synthetic jobs per source job: the scaled-up what-if load.
  static constexpr size_t kScaleUp = 2;
  static constexpr int kSynthRounds = 5;

  explicit SweepWorkload(const Bench& b)
      : jobs_(b.flags().jobs), path_(WorkPath(b, "ccb.csv")) {}

  size_t jobs() const override { return jobs_; }
  std::vector<std::string> Files() const override { return {path_}; }

  bool Setup(Bench& b) override {
    if (jobs_ == 0) {
      auto spec = workloads::PaperWorkloadByName("CC-b");
      if (!b.Ok(spec.status(), "PaperWorkloadByName")) return false;
      jobs_ = spec->total_jobs;
    }
    std::optional<trace::Trace> generated =
        Generate(b, "CC-b", jobs_, kTraceSeed);
    if (!generated) return false;
    Status written = Traced(b.tracer(), "trace.csv_write", [&] {
      return trace::WriteTraceCsv(*generated, path_);
    });
    if (!b.Ok(written, "WriteTraceCsv")) return false;
    generated.reset();
    std::optional<std::string> bytes = ReadFile(path_);
    if (!b.Check(bytes.has_value(), "read back the CSV")) return false;
    b.SameEveryTime("set-up CSV", Digest(*bytes));
    auto trace = Traced(b.tracer(), "trace.csv_parse", [&] {
      return trace::ReadTraceCsv(path_, ParseOptionsFor(b));
    });
    if (!b.Ok(trace.status(), "ReadTraceCsv")) return false;
    source_ = *std::move(trace);
    return b.Check(source_->size() == jobs_, "parsed every generated job");
  }

  void Iterate(Bench& b) override {
    // The synthesis answer is short, so each iteration takes it
    // kSynthRounds times; every round must yield the same trace.
    std::vector<double> synth_seconds;
    for (int round = 0; round < kSynthRounds; ++round) {
      synthetic_.reset();
      const double start = NowSeconds();
      {
        ScopedSpan span(b.tracer(), "bench.synth");
        auto model = Traced(b.tracer(), "synth.build_model",
                            [&] { return core::BuildModel(*source_); });
        if (!b.Ok(model.status(), "BuildModel")) return;
        core::SynthesisOptions options;
        options.job_count = kScaleUp * jobs_;
        auto synthetic = Traced(b.tracer(), "synth.synthesize", [&] {
          return core::SynthesizeTrace(*model, options);
        });
        if (!b.Ok(synthetic.status(), "SynthesizeTrace")) return;
        synthetic_ = *std::move(synthetic);
      }
      synth_seconds.push_back(NowSeconds() - start);
      b.Check(synthetic_->size() == kScaleUp * jobs_,
              "synthesized the requested job count");
      std::string digest_input;
      for (const trace::JobRecord& job : synthetic_->jobs()) {
        Put(digest_input, job.submit_time);
        Put(digest_input, job.duration);
        Put(digest_input, job.input_bytes);
        Put(digest_input, job.map_tasks);
      }
      b.SameEveryTime("synthetic trace", Digest(digest_input));
    }
    b.Sample("synth.jobs", static_cast<double>(synthetic_->size()));

    bool sweep_ok = true;
    const double sweep_start = NowSeconds();
    double sweep_done = 0.0;
    {
      ScopedSpan span(b.tracer(), "bench.sweep");
      const std::vector<sim::SweepConfig> configs = Grid(b, *synthetic_);
      sim::SweepOptions options;
      options.max_parallelism = b.flags().lanes;
      CellClock clock;
      if (b.tracer().enabled()) {
        options.progress = [&clock](size_t, size_t) { clock.Stamp(); };
      }
      std::vector<StatusOr<sim::ReplayResult>> results;
      {
        ScopedSpan sweep_span(b.tracer(), "sim.sweep");
        clock.Start();
        results = sim::RunSweep(configs, options);
        sweep_done = NowSeconds();
        for (const auto& [cell_start, cell_end] : clock.cells) {
          b.tracer().Add("sim.replay_cell", cell_start, cell_end);
        }
      }
      SimTally tally;
      std::string cells;
      for (size_t i = 0; i < configs.size(); ++i) {
        if (!b.Ok(results[i].status(), configs[i].label.c_str())) {
          sweep_ok = false;
          continue;
        }
        AccountCell(b, configs[i].label, *results[i], configs[i].options,
                    synthetic_->size(), tally, cells);
      }
      b.SameEveryTime("sweep results", Digest(cells));
      tally.Sample(b);
      if (b.tracer().enabled()) {
        double host_seconds = 0.0;
        for (const auto& [cell_start, cell_end] : clock.cells) {
          host_seconds += cell_end - cell_start;
        }
        b.Sample("sim.sim_s_per_host_s",
                 tally.simulated_seconds / host_seconds);
      }
    }
    if (sweep_ok) {
      for (double seconds : synth_seconds) {
        b.Sample("synth_s", seconds);
        b.Sample("first_answer_s", seconds);
      }
      b.Sample("sweep_s", sweep_done - sweep_start);
      b.Sample("later_answers_s", sweep_done - sweep_start);
    }
    if (!b.tracer().enabled()) synthetic_.reset();
  }

  void Decompose(Bench& b) override {
    // RunSweep builds one shared template before its lanes start.
    if (!synthetic_) return;
    auto built = Traced(b.tracer(), "sim.template_build", [&] {
      return sim::ReplayTemplate::Build(*synthetic_, BaseOptions());
    });
    b.Ok(built.status(), "ReplayTemplate::Build");
    synthetic_.reset();
  }

 private:
  /// Per-lane completion stamps from RunSweep's progress hook: a cell
  /// runs from its lane's previous stamp (or the sweep's start, which
  /// puts the one shared template build into each lane's first cell) to
  /// its own.
  struct CellClock {
    std::mutex mu;
    double start = 0.0;
    std::map<std::thread::id, double> last;
    std::vector<std::pair<double, double>> cells;

    void Start() { start = NowSeconds(); }
    void Stamp() {
      const double now = NowSeconds();
      std::lock_guard<std::mutex> lock(mu);
      auto [it, inserted] = last.emplace(std::this_thread::get_id(), start);
      cells.emplace_back(it->second, now);
      it->second = now;
    }
  };

  static sim::ReplayOptions BaseOptions() {
    sim::ReplayOptions options;
    options.scheduler = "fifo";
    return options;
  }

  /// Every policy from idle to saturated, plus failure injection,
  /// preemption and per-tenant admission on the contended sizes.
  std::vector<sim::SweepConfig> Grid(const Bench& b,
                                     const trace::Trace& trace) const {
    const std::vector<std::string> policies = {"fifo", "fair", "two-tier",
                                               "srpt", "deadline"};
    std::vector<sim::SweepConfig> configs = sim::SweepGrid(
        trace, BaseOptions(), policies, {kIdleNodes, kBusyNodes, kFullNodes},
        {b.flags().seed});
    auto add = [&](const char* label, const char* policy, int nodes) {
      sim::SweepConfig config;
      config.label = label;
      config.trace = &trace;
      config.options = BaseOptions();
      config.options.scheduler = policy;
      config.options.cluster.nodes = nodes;
      config.options.seed = b.flags().seed;
      configs.push_back(config);
      return &configs.back().options;
    };
    sim::ReplayOptions* failures = add("failures/fifo", "fifo", kBusyNodes);
    failures->failures.task_failure_probability = 0.02;
    failures->failures.node_loss_per_hour = 0.5;
    add("preemption/two-tier", "two-tier", kFullNodes)->sla.preemption_budget =
        100000;
    sim::ReplayOptions* admission = add("admission/fair", "fair", kBusyNodes);
    admission->sla.tenants = 8;
    admission->sla.tenant_max_running = 4;
    if (b.flags().inject_fault) add("unknown-policy", "fifo-typo", 1);
    return configs;
  }

  static constexpr int kIdleNodes = 600;
  static constexpr int kBusyNodes = 200;
  static constexpr int kFullNodes = 100;

  size_t jobs_;
  std::string path_;
  std::optional<trace::Trace> source_;
  std::optional<trace::Trace> synthetic_;
};

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Per-layer metrics, in BENCHMARK.json order. `span` metrics are the
/// median self time of one call of that span over the traced set-ups and
/// iterations; `sample` metrics are the median of a per-iteration sample.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* source;
  bool span;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"workloads.generate_s", "s", "workloads.generate", true},
    {"trace.read_auto_s", "s", "trace.read_auto", true},
    {"trace.stf1_open_s", "s", "trace.stf1_open", true},
    {"trace.stf1_verify_s", "s", "trace.stf1_verify", true},
    {"trace.stf1_materialize_s", "s", "trace.stf1_materialize", true},
    {"trace.index_warm_s", "s", "trace.index_warm", true},
    {"trace.rows", "count", "trace.rows", false},
    {"trace.csv_parse_s", "s", "trace.csv_parse", true},
    {"trace.csv_write_s", "s", "trace.csv_write", true},
    {"trace.stf1_write_s", "s", "trace.stf1_write", true},
    {"analysis.summary_s", "s", "analysis.summary", true},
    {"analysis.data_sizes_s", "s", "analysis.data_sizes", true},
    {"analysis.popularity_in_s", "s", "analysis.popularity_in", true},
    {"analysis.popularity_out_s", "s", "analysis.popularity_out", true},
    {"analysis.reaccess_intervals_s", "s", "analysis.reaccess_intervals",
     true},
    {"analysis.reaccess_fractions_s", "s", "analysis.reaccess_fractions",
     true},
    {"analysis.burstiness_s", "s", "analysis.burstiness", true},
    {"analysis.correlations_s", "s", "analysis.correlations", true},
    {"analysis.diurnal_s", "s", "analysis.diurnal", true},
    {"analysis.job_names_s", "s", "analysis.job_names", true},
    {"analysis.format_s", "s", "analysis.format", true},
    {"analysis.stage_sum_s", "s", "analysis.stage_sum_s", false},
    {"analysis.workload_wall_s", "s", "analysis.analyze_workload", true},
    {"stats.classify_s", "s", "stats.classify", true},
    {"stats.classify_k", "count", "stats.classify_k", false},
    {"stream.fold_s", "s", "stream.fold", true},
    {"stream.report_s", "s", "stream.report", true},
    {"stream.format_s", "s", "stream.format", true},
    {"follow.first_poll_s", "s", "follow.first_poll", true},
    {"follow.append_s", "s", "follow.append", true},
    {"follow.poll_s", "s", "follow.poll", true},
    {"follow.report_s", "s", "follow.report", true},
    {"follow.rows_per_poll", "count", "follow.rows_per_poll", false},
    {"synth.build_model_s", "s", "synth.build_model", true},
    {"synth.synthesize_s", "s", "synth.synthesize", true},
    {"synth.jobs", "count", "synth.jobs", false},
    {"sim.replay_trace_s", "s", "sim.replay_trace", true},
    {"sim.template_build_s", "s", "sim.template_build", true},
    {"sim.replay_cell_s", "s", "sim.replay_cell", true},
    {"sim.cells", "count", "sim.cells", false},
    {"sim.cells_saturated", "count", "sim.cells_saturated", false},
    {"sim.jobs_replayed", "count", "sim.jobs_replayed", false},
    {"sim.unfinished_jobs", "count", "sim.unfinished_jobs", false},
    {"sim.retries", "count", "sim.retries", false},
    {"sim.preemption_rounds", "count", "sim.preemption_rounds", false},
    {"sim.admission_parked_jobs", "count", "sim.admission_parked_jobs",
     false},
    {"sim.sim_s_per_host_s", "s/s", "sim.sim_s_per_host_s", false},
    {"stage.analyze_batch_s", "s", "analyze_batch_s", false},
    {"stage.analyze_stream_s", "s", "analyze_stream_s", false},
    {"stage.replay_s", "s", "replay_s", false},
    {"stage.follow_first_report_s", "s", "follow_first_report_s", false},
    {"stage.synth_s", "s", "synth_s", false},
    {"stage.sweep_s", "s", "sweep_s", false},
};

/// The follow tick percentiles pool every tick of the run; p90 is the
/// highest percentile with at least ten ticks beyond it at 100+ ticks.
void AddTickMetrics(const Bench& b, bool traced, const std::string& prefix,
                    std::vector<Metric>& out) {
  const std::vector<double>& ticks = b.Samples(traced, "follow_tick_ms");
  out.push_back({prefix + "follow_tick_p50_ms", "ms", Percentile(ticks, 0.5)});
  out.push_back({prefix + "follow_tick_p90_ms", "ms", Percentile(ticks, 0.9)});
  out.push_back({prefix + "follow_ticks", "count",
                 static_cast<double>(ticks.size())});
}

std::vector<Metric> EndToEndMetrics(const Bench& b, double peak_rss_mb) {
  return {
      {"setup_s", "s", Median(b.Samples(false, "setup_s"))},
      {"first_answer_s", "s", Median(b.Samples(false, "first_answer_s"))},
      {"later_answers_s", "s", Median(b.Samples(false, "later_answers_s"))},
      {"peak_rss_mb", "MB", peak_rss_mb},
  };
}

std::vector<Metric> PerLayerMetrics(const Bench& b) {
  const Tracer& tracer = b.tracer();
  const std::vector<double> self = tracer.SelfTimes();
  std::map<std::string, std::vector<double>> by_name;
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    by_name[tracer.spans()[i].name].push_back(self[i]);
  }
  std::vector<Metric> out;
  for (const LayerMetric& m : kLayerMetrics) {
    double value = 0.0;
    if (m.span) {
      auto it = by_name.find(m.source);
      if (it != by_name.end()) value = Median(it->second);
    } else {
      value = Median(b.Samples(true, m.source));
    }
    out.push_back({m.name, m.unit, value});
  }
  AddTickMetrics(b, /*traced=*/true, "stage.", out);

  // Tracing overhead: traced minus untraced iteration wall time, both
  // taken in this run from alternating iterations.
  const double traced = Median(b.Samples(true, "iteration_s"));
  const double untraced = Median(b.Samples(false, "iteration_s"));
  out.push_back({"tracing.overhead_ms", "ms", 1e3 * (traced - untraced)});
  out.push_back({"tracing.overhead_frac", "ratio",
                 untraced > 0.0 ? (traced - untraced) / untraced : 0.0});
  out.push_back({"tracing.spans_per_iteration", "count",
                 Median(b.Samples(true, "tracing.spans"))});
  return out;
}

/// Per-layer self time per traced iteration (the layer is the span name's
/// prefix), for the human-readable summary.
void PrintLayerSelfTimes(const Bench& b) {
  const Tracer& tracer = b.tracer();
  const std::vector<double> self = tracer.SelfTimes();
  std::map<std::string, double> layer_total;
  size_t iterations = 0;
  std::string last_group;
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const SpanRecord& span = tracer.spans()[i];
    if (span.group.rfind("iter", 0) != 0) continue;
    if (span.group != last_group) {
      ++iterations;
      last_group = span.group;
    }
    layer_total[span.name.substr(0, span.name.find('.'))] += self[i];
  }
  std::printf("per-layer self time per traced iteration (%zu iterations):\n",
              iterations);
  for (const auto& [layer, total] : layer_total) {
    std::printf("  %-10s %10.4f s\n", layer.c_str(),
                total / std::max<size_t>(iterations, 1));
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char value[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) +
           ": {\"value\": " + value +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string MetaJson(const Flags& flags, size_t jobs) {
  char text[1024];
  std::snprintf(
      text, sizeof(text),
      "{\"nproc\": %u, \"lanes\": %d, \"build_type\": %s, \"compiler\": %s, "
      "\"flat_hash_simd\": %s, \"git_sha\": %s, \"source_digest\": %s, "
      "\"workload\": %s, \"seed\": %llu, \"jobs\": %zu, \"seconds\": %g, "
      "\"trace\": %d}",
      std::thread::hardware_concurrency(), flags.lanes,
      JsonString(SWIM_PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(SWIM_PERFBENCH_COMPILER).c_str(),
      JsonString(FlatHashSimdName()).c_str(),
      JsonString(flags.git_sha).c_str(),
      JsonString(flags.source_digest).c_str(),
      JsonString(flags.workload).c_str(),
      static_cast<unsigned long long>(flags.seed), jobs, flags.seconds,
      flags.trace ? 1 : 0);
  return text;
}

// ---------------------------------------------------------------------------
// Run loop and output.
// ---------------------------------------------------------------------------

int Usage(const char* why) {
  std::fprintf(stderr,
               "swim_perfbench: %s\n"
               "usage: swim_perfbench --workload fb2010-pipeline|fb2010-follow|"
               "ccb-swim-sweep --seed N --seconds S --trace 0|1\n"
               "       [--jobs N] [--inject fault] "
               "[--work-dir DIR] [--git-sha SHA] [--source-digest HEX]\n",
               why);
  return 2;
}

template <typename T>
bool ParseNumber(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

std::optional<Flags> ParseFlags(int argc, char** argv) {
  Flags flags;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[i + 1];
    bool ok = true;
    if (flag == "--workload") {
      flags.workload = value;
    } else if (flag == "--seed") {
      ok = ParseNumber(value, flags.seed);
      have_seed = true;
    } else if (flag == "--seconds") {
      ok = ParseNumber(value, flags.seconds) && flags.seconds > 0.0;
      have_seconds = true;
    } else if (flag == "--trace") {
      ok = value == "0" || value == "1";
      flags.trace = value == "1";
      have_trace = true;
    } else if (flag == "--jobs") {
      ok = ParseNumber(value, flags.jobs) && flags.jobs >= 1000;
    } else if (flag == "--inject") {
      ok = value == "fault";
      flags.inject_fault = ok;
    } else if (flag == "--work-dir") {
      flags.work_dir = value;
    } else if (flag == "--git-sha") {
      flags.git_sha = value;
    } else if (flag == "--source-digest") {
      flags.source_digest = value;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad flag or value: %s %s\n", flag.c_str(),
                   value.c_str());
      return std::nullopt;
    }
  }
  if (flags.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return std::nullopt;
  }
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  flags.lanes = static_cast<int>(std::min<unsigned>(kMaxLanes, cores));
  return flags;
}

std::unique_ptr<Workload> MakeWorkload(const Bench& b) {
  const std::string& name = b.flags().workload;
  if (name == "fb2010-pipeline") return std::make_unique<PipelineWorkload>(b);
  if (name == "fb2010-follow") return std::make_unique<FollowWorkload>(b);
  if (name == "ccb-swim-sweep") return std::make_unique<SweepWorkload>(b);
  return nullptr;
}

void PrintHuman(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  std::optional<Flags> flags = ParseFlags(argc, argv);
  if (!flags) return Usage("missing or malformed flags");
  // Layers that take no explicit lane count read SWIM_THREADS.
  setenv("SWIM_THREADS", std::to_string(flags->lanes).c_str(), 1);

  Bench b(*flags);
  std::unique_ptr<Workload> workload = MakeWorkload(b);
  if (!workload) return Usage("unknown workload");
  // The inputs are rebuilt from the seed by every run; whatever way the
  // run ends, it removes the files it wrote and nothing else.
  struct RemoveOnExit {
    std::vector<std::string> files;
    ~RemoveOnExit() {
      std::error_code ignored;
      for (const std::string& file : files) {
        std::filesystem::remove(file, ignored);
      }
    }
  } remove_inputs{workload->Files()};
  std::error_code ec;
  std::filesystem::create_directories(flags->work_dir + "/results", ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", flags->work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  std::printf("swim_perfbench %s seed=%llu trace=%d lanes=%d\n",
              flags->workload.c_str(),
              static_cast<unsigned long long>(flags->seed), flags->trace,
              flags->lanes);
  Tracer& tracer = b.tracer();
  tracer.set_enabled(flags->trace);
  const double setup_deadline = NowSeconds() + kSetupSeconds;
  for (int k = 0; k < kMinSetups ||
                  (k < kMaxSetups && NowSeconds() < setup_deadline);
       ++k) {
    tracer.set_group("setup" + std::to_string(k));
    const double start = NowSeconds();
    bool ok = false;
    {
      ScopedSpan span(tracer, "bench.setup");
      ok = workload->Setup(b);
    }
    if (!ok) {
      std::fprintf(stderr, "set-up failed; no result\n");
      return 1;
    }
    b.Sample("setup_s", NowSeconds() - start);
  }
  tracer.set_enabled(false);
  workload->Prepare(b);
  // peak_rss_mb covers the iterations only: set-up and Prepare hold
  // copies (the generated trace, the whole CSV) the measured work never
  // holds.
  const double setup_peak_rss_mb = PeakRssMb();
  b.Check(ResetPeakRss(), "reset the peak-RSS mark");

  // Untraced runs repeat the iteration for --seconds (at least three
  // times, for a median); an iteration starts only if it is expected to end
  // in time, judged by the longest of the last two. Traced runs alternate
  // untraced and traced iterations in ABBA order (at least two of each) so
  // that the tracing overhead compares like with like.
  const double deadline = NowSeconds() + flags->seconds;
  const int min_iterations = flags->trace ? 4 : 3;
  double last_two[2] = {0.0, 0.0};
  for (int i = 0; i < min_iterations ||
                  NowSeconds() + std::max(last_two[0], last_two[1]) <= deadline;
       ++i) {
    const double iteration_start = NowSeconds();
    const bool traced = flags->trace && (i % 4 == 1 || i % 4 == 2);
    tracer.set_enabled(traced);
    tracer.set_group("iter" + std::to_string(i));
    const size_t spans_before = tracer.spans().size();
    const double start = NowSeconds();
    {
      ScopedSpan span(tracer, "bench.iteration");
      workload->Iterate(b);
    }
    b.Sample("iteration_s", NowSeconds() - start);
    if (traced) {
      b.Sample("tracing.spans",
               static_cast<double>(tracer.spans().size() - spans_before));
      tracer.set_group("decompose" + std::to_string(i));
      ScopedSpan span(tracer, "bench.decompose");
      workload->Decompose(b);
    }
    last_two[i % 2] = NowSeconds() - iteration_start;
  }
  tracer.set_enabled(false);
  const double peak_rss_mb = PeakRssMb();

  // Every reported metric must have been measured.
  std::vector<Metric> metrics;
  if (flags->trace) {
    metrics = PerLayerMetrics(b);
    PrintLayerSelfTimes(b);
  } else {
    for (const char* name : {"setup_s", "first_answer_s", "later_answers_s"}) {
      b.Check(!b.Samples(false, name).empty(),
              std::string("measured ") + name);
    }
    metrics = EndToEndMetrics(b, peak_rss_mb);
  }

  // The CLI-step figures of this workload, by name.
  std::vector<Metric> stages;
  for (const char* name :
       {"analyze_batch_s", "analyze_stream_s", "replay_s",
        "follow_first_report_s", "synth_s", "sweep_s"}) {
    const auto& samples = b.Samples(flags->trace, name);
    if (!samples.empty()) stages.push_back({name, "s", Median(samples)});
  }
  if (!b.Samples(flags->trace, "follow_tick_ms").empty()) {
    AddTickMetrics(b, flags->trace, "", stages);
  }
  const double failed_frac =
      static_cast<double>(b.failed()) /
      static_cast<double>(std::max<int64_t>(b.attempted(), 1));

  const std::string meta = MetaJson(*flags, workload->jobs());
  std::printf("meta %s\n", meta.c_str());
  std::printf("stages (median over %zu %s iterations):\n",
              b.Samples(flags->trace, "iteration_s").size(),
              flags->trace ? "traced" : "untraced");
  PrintHuman(stages);
  std::printf("  %-32s %14.6g (%lld failed / %lld attempted)\n",
              "failed_ops_frac", failed_frac,
              static_cast<long long>(b.failed()),
              static_cast<long long>(b.attempted()));
  std::printf("  %-32s %14.6g MB (set-up and prepare: %.6g MB)\n",
              "iterations_peak_rss_mb", peak_rss_mb, setup_peak_rss_mb);
  std::printf("%s metrics:\n", flags->trace ? "per-layer" : "end-to-end");
  PrintHuman(metrics);

  const std::string tag = flags->workload + "-seed" +
                          std::to_string(flags->seed) + "-trace" +
                          (flags->trace ? "1" : "0");
  const std::string result_path = flags->work_dir + "/results/" + tag + ".json";
  const char* correct = b.failed() == 0 ? "true" : "false";
  std::string result = "{\"meta\": " + meta + ", \"correct\": " + correct +
                       ", \"attempted\": " + std::to_string(b.attempted()) +
                       ", \"failed\": " + std::to_string(b.failed()) +
                       ", \"stages\": " + MetricsJson(stages) +
                       ", \"peak_rss_mb\": {\"setup\": " +
                       std::to_string(setup_peak_rss_mb) +
                       ", \"iterations\": " + std::to_string(peak_rss_mb) +
                       "}" +
                       ", \"samples\": " + b.SamplesJson(flags->trace) +
                       ", \"metrics\": " + MetricsJson(metrics);
  if (flags->trace) result += ",\n\"spans\": " + tracer.ToJson();
  result += "}\n";
  if (!WriteFile(result_path, result)) {
    std::fprintf(stderr, "cannot write %s\n", result_path.c_str());
    return 1;
  }
  std::printf("result file %s\n", result_path.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct,
              static_cast<long long>(b.attempted()),
              static_cast<long long>(b.failed()), MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace swim::perfbench

int main(int argc, char** argv) { return swim::perfbench::Main(argc, argv); }

#include "core/analysis/streaming.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "common/units.h"

namespace swim::core {
namespace {

/// Fixed chunk size for the parallel sketch build. Chunk boundaries depend
/// only on the batch size (never on thread count), and chunk sketches are
/// merged in chunk order, so the folded sketches are byte-identical at any
/// SWIM_THREADS.
constexpr size_t kSketchGrain = 65536;

std::string HotFileLabel(uint64_t key) {
  return "path#" + std::to_string(key);
}

}  // namespace

StreamingAnalyzer::StreamingAnalyzer(StreamingOptions options)
    : options_(options),
      gk_input_(options.quantile_epsilon),
      gk_shuffle_(options.quantile_epsilon),
      gk_output_(options.quantile_epsilon),
      gk_duration_(options.quantile_epsilon),
      gk_reaccess_in_(options.quantile_epsilon),
      gk_reaccess_out_(options.quantile_epsilon),
      hot_inputs_(options.hot_file_capacity),
      window_jobs_(3600.0, options.window_hours),
      window_bytes_(3600.0, options.window_hours),
      window_task_seconds_(3600.0, options.window_hours) {}

void StreamingAnalyzer::SetMetadata(const trace::TraceMetadata& metadata) {
  metadata_ = metadata;
  metadata_set_ = true;
}

void StreamingAnalyzer::AccessCounts::Tally(uint32_t id) {
  if (id >= per_path.size()) per_path.resize(static_cast<size_t>(id) + 1, 0);
  size_t& count = per_path[id];
  if (count > 0) --files_with[count];
  ++count;
  if (count >= files_with.size()) files_with.resize(count + 1, 0);
  ++files_with[count];
}

struct StreamingAnalyzer::Row {
  double submit = 0.0;
  double duration = 0.0;
  double input_bytes = 0.0;
  double shuffle_bytes = 0.0;
  double output_bytes = 0.0;
  double map_task_seconds = 0.0;
  double reduce_task_seconds = 0.0;
  int64_t map_tasks = 0;
  int64_t reduce_tasks = 0;
};

const char* StreamingAnalyzer::RowViolation(const Row& row,
                                            double prev_submit) {
  const double values[7] = {row.submit,           row.duration,
                            row.input_bytes,      row.shuffle_bytes,
                            row.output_bytes,     row.map_task_seconds,
                            row.reduce_task_seconds};
  for (double v : values) {
    if (!std::isfinite(v)) return "non-finite value";
    if (v < 0.0) return "negative value";
  }
  if (row.map_tasks < 0 || row.reduce_tasks < 0) {
    return "negative task count";
  }
  if (row.map_tasks == 0 && row.map_task_seconds > 0.0) {
    return "map_task_seconds > 0 with zero map_tasks";
  }
  if (row.reduce_tasks == 0 && row.reduce_task_seconds > 0.0) {
    return "reduce_task_seconds > 0 with zero reduce_tasks";
  }
  if (row.submit < prev_submit) {
    return "submit time runs backwards (append not submit-ordered)";
  }
  return nullptr;
}

double StreamingAnalyzer::PreviousSubmit() const {
  return jobs_ > 0 ? last_submit_ : -std::numeric_limits<double>::infinity();
}

void StreamingAnalyzer::EnsurePathTables(size_t path_count) {
  if (path_count <= last_read_.size()) return;
  last_read_.resize(path_count, -1.0);
  last_written_.resize(path_count, -1.0);
  seen_inputs_.resize(path_count, 0);
  seen_outputs_.resize(path_count, 0);
}

void StreamingAnalyzer::PopWritesBefore(double time, uint64_t seq) {
  auto after = [](const PendingWrite& a, const PendingWrite& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  };
  while (!pending_writes_.empty()) {
    const PendingWrite& top = pending_writes_.front();
    if (top.time > time || (top.time == time && top.seq >= seq)) break;
    // Apply the write's effect exactly where the batch chronological scan
    // would: mark the path as a produced output and stamp its write time.
    seen_outputs_[top.path_id] = 1;
    last_written_[top.path_id] = top.time;
    std::pop_heap(pending_writes_.begin(), pending_writes_.end(), after);
    pending_writes_.pop_back();
  }
}

void StreamingAnalyzer::ObserveRowSerial(const Row& row,
                                         uint32_t input_path_id,
                                         uint32_t output_path_id) {
  const uint64_t seq = jobs_;
  const double submit = row.submit;
  if (jobs_ == 0) first_submit_ = submit;
  last_submit_ = submit;
  const double finish = submit + row.duration;
  if (finish > max_finish_) max_finish_ = finish;

  // Same expression shapes as the batch accumulators (TotalBytes is
  // (input + shuffle) + output, left-associated) so floating sums match
  // bit for bit.
  const double total_bytes =
      row.input_bytes + row.shuffle_bytes + row.output_bytes;
  const double task_seconds = row.map_task_seconds + row.reduce_task_seconds;
  bytes_moved_ += total_bytes;
  if (row.reduce_tasks == 0 && row.shuffle_bytes == 0.0 &&
      row.reduce_task_seconds == 0.0) {
    ++map_only_;
  }
  if (total_bytes < 10.0 * kGB) ++under_10gb_;

  // Hourly series, bucketed exactly like Trace::HourlySeries.
  const auto hour =
      static_cast<size_t>((submit - first_submit_) / 3600.0);
  if (hour >= hourly_.jobs_per_hour.size()) {
    hourly_.jobs_per_hour.resize(hour + 1, 0.0);
    hourly_.bytes_per_hour.resize(hour + 1, 0.0);
    hourly_.task_seconds_per_hour.resize(hour + 1, 0.0);
  }
  hourly_.jobs_per_hour[hour] += 1.0;
  hourly_.bytes_per_hour[hour] += total_bytes;
  hourly_.task_seconds_per_hour[hour] += task_seconds;

  window_jobs_.Observe(submit, 1.0);
  window_bytes_.Observe(submit, total_bytes);
  window_task_seconds_.Observe(submit, task_seconds);

  auto after = [](const PendingWrite& a, const PendingWrite& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  };
  if (input_path_id != kNoStringId) {
    input_counts_.Tally(input_path_id);
    hot_inputs_.Add(input_path_id);
    EnsurePathTables(static_cast<size_t>(input_path_id) + 1);
    // Drain writes that the batch access stream orders before this read
    // (earlier time, or same time with an earlier stream position).
    PopWritesBefore(submit, 2 * seq);
    ++jobs_with_paths_;
    if (seen_outputs_[input_path_id]) {
      ++output_hits_;
    } else if (seen_inputs_[input_path_id]) {
      ++input_hits_;
    }
    seen_inputs_[input_path_id] = 1;
    if (last_read_[input_path_id] >= 0.0) {
      gk_reaccess_in_.Add(submit - last_read_[input_path_id]);
    }
    if (last_written_[input_path_id] >= 0.0) {
      const double interval = submit - last_written_[input_path_id];
      if (interval >= 0.0) gk_reaccess_out_.Add(interval);
    }
    last_read_[input_path_id] = submit;
  }
  if (output_path_id != kNoStringId) {
    output_counts_.Tally(output_path_id);
    EnsurePathTables(static_cast<size_t>(output_path_id) + 1);
    pending_writes_.push_back(PendingWrite{finish, 2 * seq + 1, output_path_id});
    std::push_heap(pending_writes_.begin(), pending_writes_.end(), after);
  }
  ++jobs_;
}

void StreamingAnalyzer::ObserveNameColumnar(const trace::ColumnarTraceView& view,
                                            uint32_t name_id,
                                            double total_bytes,
                                            double total_task_seconds) {
  if (name_id >= word_of_name_.size()) {
    word_of_name_.resize(view.name_count(), kNoStringId);
  }
  uint32_t& word_id = word_of_name_[name_id];
  if (word_id == kNoStringId) {
    word_id = names_.WordIdForName(view.NameAt(name_id));
  }
  names_.ObserveWord(word_id, total_bytes, total_task_seconds);
}

template <typename RowAt>
void StreamingAnalyzer::FoldSketches(size_t count, const RowAt& row_at) {
  const size_t chunk_count = (count + kSketchGrain - 1) / kSketchGrain;
  std::vector<stats::GkQuantileSketch> chunks(
      4 * chunk_count, stats::GkQuantileSketch(options_.quantile_epsilon));
  ParallelFor(
      0, count, kSketchGrain,
      [&](size_t chunk_begin, size_t chunk_end) {
        stats::GkQuantileSketch* lane = &chunks[4 * (chunk_begin / kSketchGrain)];
        for (size_t i = chunk_begin; i < chunk_end; ++i) {
          const Row row = row_at(i);
          lane[0].Add(row.input_bytes);
          lane[1].Add(row.shuffle_bytes);
          lane[2].Add(row.output_bytes);
          lane[3].Add(row.duration);
        }
      },
      options_.threads);
  for (size_t c = 0; c < chunk_count; ++c) {
    gk_input_.Merge(chunks[4 * c]);
    gk_shuffle_.Merge(chunks[4 * c + 1]);
    gk_output_.Merge(chunks[4 * c + 2]);
    gk_duration_.Merge(chunks[4 * c + 3]);
  }
  ++batches_;
}

Status StreamingAnalyzer::ObserveColumns(const trace::ColumnarTraceView& view,
                                         size_t begin, size_t end) {
  if (mode_ == Mode::kJobs) {
    return FailedPreconditionError(
        "streaming analyzer already bound to parsed-row input");
  }
  if (begin > end || end > view.job_count()) {
    return InvalidArgumentError("streaming batch range out of bounds");
  }
  if (mode_ == Mode::kUnset) {
    mode_ = Mode::kColumnar;
    if (!metadata_set_) SetMetadata(view.metadata());
  }
  if (begin == end) return Status::Ok();

  const auto submits = view.submit_times();
  const auto durations = view.durations();
  const auto inputs = view.input_bytes();
  const auto shuffles = view.shuffle_bytes();
  const auto outputs = view.output_bytes();
  const auto map_tasks = view.map_tasks();
  const auto reduce_tasks = view.reduce_tasks();
  const auto map_secs = view.map_task_seconds();
  const auto reduce_secs = view.reduce_task_seconds();
  const auto name_ids = view.name_ids();
  const auto input_ids = view.input_path_ids();
  const auto output_ids = view.output_path_ids();
  // Row k of this batch is view row begin + k.
  auto row_at = [&](size_t k) {
    const size_t i = begin + k;
    return Row{submits[i],     durations[i], inputs[i],
               shuffles[i],    outputs[i],   map_secs[i],
               reduce_secs[i], map_tasks[i], reduce_tasks[i]};
  };

  // Validate the whole batch before touching any accumulator, so a corrupt
  // append can never poison the analyzer's state. Dictionary ids may grow
  // between calls; they are checked against the view's current sizes.
  double prev_submit = PreviousSubmit();
  for (size_t i = begin; i < end; ++i) {
    const char* violation = RowViolation(row_at(i - begin), prev_submit);
    if (violation == nullptr) {
      if (name_ids[i] != kNoStringId && name_ids[i] >= view.name_count()) {
        violation = "name id out of dictionary range";
      } else if (input_ids[i] != kNoStringId &&
                 input_ids[i] >= view.path_count()) {
        violation = "input path id out of dictionary range";
      } else if (output_ids[i] != kNoStringId &&
                 output_ids[i] >= view.path_count()) {
        violation = "output path id out of dictionary range";
      }
    }
    if (violation != nullptr) {
      return InvalidArgumentError("streaming batch row " + std::to_string(i) +
                                  ": " + violation);
    }
    prev_submit = submits[i];
  }

  EnsurePathTables(view.path_count());
  for (size_t i = begin; i < end; ++i) {
    ObserveRowSerial(row_at(i - begin), input_ids[i], output_ids[i]);
    if (name_ids[i] != kNoStringId) {
      ObserveNameColumnar(view, name_ids[i],
                          inputs[i] + shuffles[i] + outputs[i],
                          map_secs[i] + reduce_secs[i]);
    }
  }
  FoldSketches(end - begin, row_at);
  return Status::Ok();
}

Status StreamingAnalyzer::ObserveJobs(Span<const trace::JobRecord> jobs) {
  if (mode_ == Mode::kColumnar) {
    return FailedPreconditionError(
        "streaming analyzer already bound to columnar input");
  }
  mode_ = Mode::kJobs;
  if (jobs.empty()) return Status::Ok();

  auto row_at = [&](size_t i) {
    const trace::JobRecord& job = jobs[i];
    return Row{job.submit_time,         job.duration,
               job.input_bytes,         job.shuffle_bytes,
               job.output_bytes,        job.map_task_seconds,
               job.reduce_task_seconds, job.map_tasks,
               job.reduce_tasks};
  };

  double prev_submit = PreviousSubmit();
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (const char* violation = RowViolation(row_at(i), prev_submit)) {
      return InvalidArgumentError("streaming batch job " +
                                  std::to_string(jobs[i].job_id) + ": " +
                                  violation);
    }
    prev_submit = jobs[i].submit_time;
  }

  for (size_t i = 0; i < jobs.size(); ++i) {
    const trace::JobRecord& job = jobs[i];
    // Intern in the trace index build's order — input path before output
    // path per job — so CSV-mode ids match the batch trace's ids exactly.
    const uint32_t input_id = job.input_path.empty()
                                  ? kNoStringId
                                  : path_interner_.Intern(job.input_path);
    const uint32_t output_id = job.output_path.empty()
                                   ? kNoStringId
                                   : path_interner_.Intern(job.output_path);
    ObserveRowSerial(row_at(i), input_id, output_id);
    names_.Observe(job.name, job.TotalBytes(), job.TotalTaskSeconds());
  }
  FoldSketches(jobs.size(), row_at);
  return Status::Ok();
}

StatusOr<StreamingReport> StreamingAnalyzer::Report(
    const trace::ColumnarTraceView* dictionaries) const {
  if (jobs_ == 0) return InvalidArgumentError("empty trace");
  StreamingReport report;
  report.batches = batches_;
  report.quantile_epsilon = options_.quantile_epsilon;

  report.summary.name = metadata_.name;
  report.summary.machines = metadata_.machines;
  report.summary.year = metadata_.year;
  report.summary.jobs = jobs_;
  report.summary.bytes_moved = bytes_moved_;
  report.summary.map_only_jobs = map_only_;
  report.summary.span_seconds = max_finish_ - first_submit_;
  report.summary.median_duration = gk_duration_.Quantile(0.5);

  auto quantiles = [](const stats::GkQuantileSketch& gk) {
    StreamingQuantiles q;
    q.p25 = gk.Quantile(0.25);
    q.p50 = gk.Quantile(0.50);
    q.p75 = gk.Quantile(0.75);
    q.p90 = gk.Quantile(0.90);
    q.p99 = gk.Quantile(0.99);
    return q;
  };
  report.input_bytes = quantiles(gk_input_);
  report.shuffle_bytes = quantiles(gk_shuffle_);
  report.output_bytes = quantiles(gk_output_);
  report.duration = quantiles(gk_duration_);

  report.input_popularity =
      PopularityFromCountOfCounts(input_counts_.files_with);
  report.output_popularity =
      PopularityFromCountOfCounts(output_counts_.files_with);
  report.reaccess_fractions =
      ReaccessFractionsFromHits(jobs_with_paths_, input_hits_, output_hits_);
  report.reaccess_p75_interval =
      gk_reaccess_in_.empty() ? -1.0 : gk_reaccess_in_.Quantile(0.75);

  // Pad the hourly series to the full span, matching Trace::HourlySeries'
  // sizing (span includes job durations, so the tail hours past the last
  // submission are genuine zero buckets the batch series also carries).
  const size_t hours =
      static_cast<size_t>(report.summary.span_seconds / 3600.0) + 1;
  SubmissionSeries series = hourly_;
  for (std::vector<double>* column :
       {&series.jobs_per_hour, &series.bytes_per_hour,
        &series.task_seconds_per_hour}) {
    if (column->size() < hours) column->resize(hours, 0.0);
  }
  report.burstiness = ComputeBurstiness(series);
  report.correlations = ComputeSeriesCorrelations(series);
  report.diurnal_strength = DiurnalStrength(series.jobs_per_hour);

  report.names = names_.Report();
  report.fraction_under_10gb =
      static_cast<double>(under_10gb_) / static_cast<double>(jobs_);

  for (const auto& entry : hot_inputs_.TopK(8)) {
    StreamingHotFile hot;
    hot.count = entry.count;
    hot.error = entry.error;
    if (mode_ == Mode::kJobs && entry.key < path_interner_.size()) {
      hot.path = std::string(
          path_interner_.NameOf(static_cast<uint32_t>(entry.key)));
    } else if (dictionaries != nullptr &&
               entry.key < dictionaries->path_count()) {
      hot.path = std::string(
          dictionaries->PathAt(static_cast<uint32_t>(entry.key)));
    } else {
      hot.path = HotFileLabel(entry.key);
    }
    report.hot_inputs.push_back(std::move(hot));
  }

  report.window.jobs_peak_to_median = window_jobs_.PeakToMedian();
  report.window.bytes_peak_to_median = window_bytes_.PeakToMedian();
  report.window.task_seconds_peak_to_median =
      window_task_seconds_.PeakToMedian();
  report.window.live_hours = window_jobs_.Window().size();
  return report;
}

}  // namespace swim::core

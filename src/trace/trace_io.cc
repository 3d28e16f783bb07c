#include "trace/trace_io.h"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/string_util.h"

namespace swim::trace {
namespace {

/// Records per parallel parse shard. Fixed (independent of thread count) so
/// shard boundaries — and therefore job order, merged metadata, report
/// contents, and which error is reported first — are identical at any
/// parallelism.
constexpr size_t kShardLines = 4096;

/// Max physical lines one quoted record may span. A lone stray quote must
/// not swallow the rest of a multi-GB file: past this cap the opening line
/// is surfaced alone (it will fail as unbalanced) and parsing resumes at
/// the next physical line.
constexpr int kMaxRecordLines = 64;

bool NeedsQuoting(std::string_view field) {
  return field.find_first_of(",\"\n") != std::string_view::npos;
}

/// Appends `field` to `out`, RFC-4180-quoted only when needed. Append-only
/// (no temporary string per field) so the row formatter can reuse one
/// buffer across millions of rows.
void AppendQuoted(std::string_view field, std::string* out) {
  if (!NeedsQuoting(field)) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') {
      out->append("\"\"");
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

/// Appends the shortest of %.12g / %.15g / %.17g that parses back to
/// exactly the same double; %.17g always round-trips IEEE binary64, so CSV
/// round-trips are bit-exact.
void AppendDouble(double value, std::string* out) {
  // std::to_chars emits the shortest decimal string that parses back to
  // exactly `value` (same contract the old %.12g/%.15g/%.17g probe ladder
  // approximated, minus the two wasted snprintf+strtod probes per field —
  // double formatting dominates CSV serialization, see bench_ingest).
  char buffer[64];
  auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, static_cast<size_t>(result.ptr - buffer));
}

/// Appends one CSV data row (kTraceCsvHeader order, trailing newline).
void AppendCsvRow(const JobRecord& job, std::string* out) {
  char buffer[32];
  out->append(buffer, static_cast<size_t>(std::snprintf(
                          buffer, sizeof(buffer), "%" PRIu64, job.job_id)));
  out->push_back(',');
  AppendQuoted(job.name, out);
  out->push_back(',');
  AppendDouble(job.submit_time, out);
  out->push_back(',');
  AppendDouble(job.duration, out);
  out->push_back(',');
  AppendDouble(job.input_bytes, out);
  out->push_back(',');
  AppendDouble(job.shuffle_bytes, out);
  out->push_back(',');
  AppendDouble(job.output_bytes, out);
  out->push_back(',');
  out->append(buffer, static_cast<size_t>(std::snprintf(
                          buffer, sizeof(buffer), "%" PRId64, job.map_tasks)));
  out->push_back(',');
  out->append(buffer,
              static_cast<size_t>(std::snprintf(buffer, sizeof(buffer),
                                                "%" PRId64, job.reduce_tasks)));
  out->push_back(',');
  AppendDouble(job.map_task_seconds, out);
  out->push_back(',');
  AppendDouble(job.reduce_task_seconds, out);
  out->push_back(',');
  AppendQuoted(job.input_path, out);
  out->push_back(',');
  AppendQuoted(job.output_path, out);
  out->push_back('\n');
}

/// Appends the "#key=value" metadata comments plus the column header.
void AppendCsvPrologue(const TraceMetadata& meta, std::string* out) {
  if (!meta.name.empty()) {
    out->append("#name=");
    out->append(meta.name);
    out->push_back('\n');
  }
  char buffer[48];
  if (meta.machines > 0) {
    out->append(buffer,
                static_cast<size_t>(std::snprintf(
                    buffer, sizeof(buffer), "#machines=%d\n", meta.machines)));
  }
  if (meta.year > 0) {
    out->append(buffer, static_cast<size_t>(std::snprintf(
                            buffer, sizeof(buffer), "#year=%d\n", meta.year)));
  }
  out->append(kTraceCsvHeader);
  out->push_back('\n');
}

enum class CsvLineError { kNone, kUnbalancedQuote, kMidFieldQuote };

/// Splits one CSV record honoring RFC 4180 quoting. Quotes are only legal
/// as a field-opening quote, doubled inside a quoted field, or as the
/// closing quote immediately followed by a comma or end of record; any
/// other position (ab"cd, "ab"cd) is rejected as kMidFieldQuote so repair
/// mode can count it instead of silently corrupting the field. The fast
/// path (no quote character anywhere, i.e. every machine-generated numeric
/// row) splits zero-copy into views of `line`; the quoted path unescapes
/// into `scratch` and the views point into those strings, which stay alive
/// until the next call.
CsvLineError SplitCsvLine(std::string_view line,
                          std::vector<std::string_view>* fields,
                          std::vector<std::string>* scratch) {
  fields->clear();
  if (line.find('"') == std::string_view::npos) {
    size_t start = 0;
    for (;;) {
      size_t comma = line.find(',', start);
      if (comma == std::string_view::npos) {
        fields->push_back(line.substr(start));
        return CsvLineError::kNone;
      }
      fields->push_back(line.substr(start, comma - start));
      start = comma + 1;
    }
  }
  scratch->clear();
  std::string current;
  bool in_quotes = false;
  bool closed_quote = false;  // current field was quoted and is now closed
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
          closed_quote = true;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == ',') {
      scratch->push_back(std::move(current));
      current.clear();
      closed_quote = false;
    } else if (closed_quote) {
      // "ab"cd — junk after the closing quote.
      return CsvLineError::kMidFieldQuote;
    } else if (c == '"') {
      if (!current.empty()) return CsvLineError::kMidFieldQuote;  // ab"cd
      in_quotes = true;
    } else {
      current.push_back(c);
    }
  }
  if (in_quotes) return CsvLineError::kUnbalancedQuote;
  scratch->push_back(std::move(current));
  // Build the views only once scratch is fully populated: push_back above
  // may reallocate and move small (SSO) strings, which would dangle.
  fields->reserve(scratch->size());
  for (const std::string& field : *scratch) fields->push_back(field);
  return CsvLineError::kNone;
}

enum class RowAction { kAccepted, kRepaired, kSkipped };

/// Clamps a structurally-parsed record onto the nearest valid one: negative
/// values go to zero, and orphan task-seconds (seconds recorded against a
/// zero task count) are zeroed.
void RepairRecord(JobRecord* job) {
  job->submit_time = std::max(0.0, job->submit_time);
  job->duration = std::max(0.0, job->duration);
  job->input_bytes = std::max(0.0, job->input_bytes);
  job->shuffle_bytes = std::max(0.0, job->shuffle_bytes);
  job->output_bytes = std::max(0.0, job->output_bytes);
  job->map_tasks = std::max<int64_t>(0, job->map_tasks);
  job->reduce_tasks = std::max<int64_t>(0, job->reduce_tasks);
  job->map_task_seconds = std::max(0.0, job->map_task_seconds);
  job->reduce_task_seconds = std::max(0.0, job->reduce_task_seconds);
  if (job->map_tasks == 0) job->map_task_seconds = 0.0;
  if (job->reduce_tasks == 0) job->reduce_task_seconds = 0.0;
}

/// Parses one split row under the given mode. On any flagged problem the
/// diagnostic records the row's first problem (fields scanned left to
/// right); kRepair additionally patches every patchable field and reports
/// kRepaired when the row survives. job_id and the field count are
/// identity/structure and never repairable.
RowAction ParseRowLenient(const std::vector<std::string_view>& fields,
                          int line_number, ParseMode mode, JobRecord* job,
                          ParseDiagnostic* diag) {
  diag->line = line_number;
  diag->repaired = false;
  bool flagged = false;
  auto flag = [&](ParseErrorKind kind, const char* field, std::string reason) {
    if (flagged) return;
    flagged = true;
    diag->kind = kind;
    diag->field = field;
    diag->reason = std::move(reason);
  };
  if (fields.size() != 13) {
    flag(ParseErrorKind::kFieldCount, "",
         "expected 13 fields, got " + std::to_string(fields.size()));
    return RowAction::kSkipped;
  }
  const bool repair = mode == ParseMode::kRepair;
  int64_t id = 0;
  if (!ParseInt64(fields[0], &id) || id < 0) {
    flag(ParseErrorKind::kBadNumber, "job_id", "bad job_id");
    return RowAction::kSkipped;  // identity lost; unrepairable
  }
  job->job_id = static_cast<uint64_t>(id);
  job->name = std::string(fields[1]);

  auto read_double = [&](size_t index, const char* name, double* out) {
    double v = 0.0;
    if (!ParseDouble(fields[index], &v) || !std::isfinite(v)) {
      flag(ParseErrorKind::kBadNumber, name, std::string("bad ") + name);
      if (!repair) return false;
      v = 0.0;
    }
    *out = v;
    return true;
  };
  auto read_int = [&](size_t index, const char* name, int64_t* out) {
    int64_t v = 0;
    if (!ParseInt64(fields[index], &v)) {
      flag(ParseErrorKind::kBadNumber, name, std::string("bad ") + name);
      if (!repair) return false;
      v = 0;
    }
    *out = v;
    return true;
  };
  if (!read_double(2, "submit_time", &job->submit_time) ||
      !read_double(3, "duration", &job->duration) ||
      !read_double(4, "input_bytes", &job->input_bytes) ||
      !read_double(5, "shuffle_bytes", &job->shuffle_bytes) ||
      !read_double(6, "output_bytes", &job->output_bytes) ||
      !read_int(7, "map_tasks", &job->map_tasks) ||
      !read_int(8, "reduce_tasks", &job->reduce_tasks) ||
      !read_double(9, "map_task_seconds", &job->map_task_seconds) ||
      !read_double(10, "reduce_task_seconds", &job->reduce_task_seconds)) {
    return RowAction::kSkipped;
  }
  job->input_path = std::string(fields[11]);
  job->output_path = std::string(fields[12]);

  std::string violation = ValidateJobRecord(*job);
  if (!violation.empty()) {
    flag(ParseErrorKind::kInvalidRecord, "", violation);
    if (!repair) return RowAction::kSkipped;
  }
  if (flagged && repair) {
    RepairRecord(job);
    if (!ValidateJobRecord(*job).empty()) return RowAction::kSkipped;
  }
  if (!flagged) return RowAction::kAccepted;
  diag->repaired = true;
  return RowAction::kRepaired;
}

/// Strict-mode error text for a flagged row, matching the historical
/// messages ("line N: expected 13 fields...", "line N: bad submit_time").
Status DiagnosticToStatus(const ParseDiagnostic& diag) {
  std::string what;
  switch (diag.kind) {
    case ParseErrorKind::kUnbalancedQuote:
      what = "unbalanced quotes";
      break;
    case ParseErrorKind::kMidFieldQuote:
      what = "quote in the middle of a field";
      break;
    default:
      what = diag.reason;
      break;
  }
  return InvalidArgumentError("line " + std::to_string(diag.line) + ": " +
                              what);
}

/// "#key=value" metadata assignments, in file order; a later one wins.
struct MetadataUpdate {
  std::optional<std::string> name;
  std::optional<int> machines;
  std::optional<int> year;

  void ApplyTo(TraceMetadata* metadata) const {
    if (name) metadata->name = *name;
    if (machines) metadata->machines = *machines;
    if (year) metadata->year = *year;
  }
};

/// Reads one '#' comment line into `update`. The key ends at the first
/// '=', so a value may itself hold '='. machines and year must be integers
/// in [0, INT_MAX]; anything else fails the whole parse in every mode.
/// Comments without '=' and unknown keys are ignored.
Status ReadMetadataComment(std::string_view line, int line_number,
                           MetadataUpdate* update) {
  const size_t eq = line.find('=');
  if (eq == std::string_view::npos) return Status::Ok();
  const std::string_view key = line.substr(1, eq - 1);
  const std::string_view value = line.substr(eq + 1);
  if (key == "name") {
    update->name = std::string(value);
    return Status::Ok();
  }
  std::optional<int>* field = key == "machines" ? &update->machines
                              : key == "year"   ? &update->year
                                                : nullptr;
  if (field == nullptr) return Status::Ok();
  int64_t v = 0;
  if (!ParseInt64(value, &v) || v < 0 ||
      v > std::numeric_limits<int>::max()) {
    return InvalidArgumentError("line " + std::to_string(line_number) +
                                ": bad " + std::string(key));
  }
  *field = static_cast<int>(v);
  return Status::Ok();
}

/// One logical CSV record: a view into the input plus the 1-based physical
/// line number where it starts (used in diagnostics).
struct CsvRecord {
  std::string_view text;
  int line = 0;
};

/// Whether [begin, end) of `text` holds an odd number of '"'.
bool OddQuotes(std::string_view text, size_t begin, size_t end) {
  bool odd = false;
  const char* p = text.data() + begin;
  const char* const last = text.data() + end;
  while ((p = static_cast<const char*>(
              std::memchr(p, '"', static_cast<size_t>(last - p)))) !=
         nullptr) {
    odd = !odd;
    ++p;
  }
  return odd;
}

/// Where the record starting at `pos` ends: its text is [pos, end) (a
/// trailing '\r' still included), the next record starts at `after`, and it
/// spans `lines` physical lines. `settled` is false when appending bytes to
/// `text` could change any of these: the record's last line has no newline
/// yet, or its quote is still open with room to close.
struct RecordExtent {
  size_t end = 0;
  size_t after = 0;
  int lines = 1;
  bool settled = false;
};

/// The record-boundary rule: a record is one '\n'-terminated line, except
/// that a line (not a '#' comment) left inside an open quote pulls in
/// following lines until the quote closes, so quoted fields may contain
/// newlines. Continuation is capped at kMaxRecordLines; an unclosed quote
/// leaves the opening line alone as the record (the row parser flags it as
/// unbalanced) and the next record starts on the next physical line, which
/// is what lets skip/repair modes recover from a single stray quote.
RecordExtent ScanRecord(std::string_view text, size_t pos) {
  RecordExtent extent;
  const size_t nl = text.find('\n', pos);
  extent.settled = nl != std::string_view::npos;
  extent.end = extent.settled ? nl : text.size();
  extent.after = extent.settled ? nl + 1 : text.size();
  if (text[pos] == '#' || !OddQuotes(text, pos, extent.end)) return extent;
  size_t scan = extent.after;
  bool line_complete = extent.settled;
  bool open = true;
  int span = 1;
  while (scan < text.size() && span < kMaxRecordLines) {
    const size_t cnl = text.find('\n', scan);
    line_complete = cnl != std::string_view::npos;
    const size_t cend = line_complete ? cnl : text.size();
    if (OddQuotes(text, scan, cend)) open = !open;
    ++span;
    if (!open) {
      return {cend, line_complete ? cnl + 1 : text.size(), span,
              line_complete};
    }
    scan = line_complete ? cnl + 1 : text.size();
  }
  // Unclosed: the opening line stands alone. That is final only once the
  // cap is reached on complete lines; before that, more bytes may close it.
  extent.settled = span == kMaxRecordLines && line_complete;
  return extent;
}

/// Splits `text` into records by ScanRecord, with std::getline semantics at
/// the edges (no empty final record after a trailing newline, a trailing
/// '\r' stripped at each record end).
std::vector<CsvRecord> SplitRecords(std::string_view text) {
  std::vector<CsvRecord> records;
  size_t pos = 0;
  int line_no = 0;  // physical lines fully consumed
  while (pos < text.size()) {
    const RecordExtent extent = ScanRecord(text, pos);
    std::string_view record = text.substr(pos, extent.end - pos);
    if (!record.empty() && record.back() == '\r') record.remove_suffix(1);
    records.push_back({record, line_no + 1});
    line_no += extent.lines;
    pos = extent.after;
  }
  return records;
}

}  // namespace

size_t CompleteCsvPrefix(std::string_view text) {
  if (text.empty()) return 0;
  // With no quote anywhere every newline ends a record.
  if (std::memchr(text.data(), '"', text.size()) == nullptr) {
    const size_t nl = text.rfind('\n');
    return nl == std::string_view::npos ? 0 : nl + 1;
  }
  size_t pos = 0;
  while (pos < text.size()) {
    const RecordExtent extent = ScanRecord(text, pos);
    if (!extent.settled) break;
    pos = extent.after;
  }
  return pos;
}

StatusOr<ParseMode> ParseModeFromName(std::string_view name) {
  std::string normalized = ToLower(name);
  if (normalized == "strict") return ParseMode::kStrict;
  if (normalized == "skip") return ParseMode::kSkip;
  if (normalized == "repair") return ParseMode::kRepair;
  return InvalidArgumentError("unknown parse mode '" + std::string(name) +
                              "' (expected strict|skip|repair)");
}

const char* ParseModeName(ParseMode mode) {
  switch (mode) {
    case ParseMode::kStrict:
      return "strict";
    case ParseMode::kSkip:
      return "skip";
    case ParseMode::kRepair:
      return "repair";
  }
  return "?";
}

const char* ParseErrorKindName(ParseErrorKind kind) {
  switch (kind) {
    case ParseErrorKind::kUnbalancedQuote:
      return "unbalanced-quote";
    case ParseErrorKind::kMidFieldQuote:
      return "mid-field-quote";
    case ParseErrorKind::kFieldCount:
      return "field-count";
    case ParseErrorKind::kBadNumber:
      return "bad-number";
    case ParseErrorKind::kInvalidRecord:
      return "invalid-record";
  }
  return "?";
}

std::string ParseDiagnostic::ToString() const {
  std::string out = "line " + std::to_string(line) + " [" +
                    ParseErrorKindName(kind) + "]";
  if (!field.empty()) out += " " + field;
  if (!reason.empty()) out += ": " + reason;
  out += repaired ? " (repaired)" : " (skipped)";
  return out;
}

std::string ParseReport::ToString() const {
  std::string out = "ingest (" + std::string(ParseModeName(mode)) + "): " +
                    std::to_string(total_rows) + " rows, " +
                    std::to_string(accepted) + " accepted";
  if (repaired > 0) out += " (" + std::to_string(repaired) + " repaired)";
  out += ", " + std::to_string(skipped) + " skipped";
  if (flagged() > 0) {
    out += "\n  categories:";
    for (size_t i = 0; i < kParseErrorKinds; ++i) {
      if (error_counts[i] == 0) continue;
      out += " " +
             std::string(ParseErrorKindName(static_cast<ParseErrorKind>(i))) +
             "=" + std::to_string(error_counts[i]);
    }
  }
  for (const ParseDiagnostic& diag : diagnostics) {
    out += "\n  " + diag.ToString();
  }
  if (dropped_diagnostics > 0) {
    out += "\n  (" + std::to_string(dropped_diagnostics) +
           " more flagged rows not shown)";
  }
  return out;
}

std::string TraceToCsv(const Trace& trace) {
  // One output string, append-only formatting: no ostringstream, no
  // per-field temporaries. ~96 bytes/row is the observed average for the
  // generated paper workloads; reserving it keeps growth to O(log n)
  // reallocations.
  std::string out;
  out.reserve(128 + trace.size() * 96);
  AppendCsvPrologue(trace.metadata(), &out);
  for (const auto& job : trace.jobs()) AppendCsvRow(job, &out);
  return out;
}

StatusOr<Trace> TraceFromCsv(const std::string& csv_text,
                             const ParseOptions& options,
                             ParseReport* report) {
  Trace trace;
  if (report) {
    *report = ParseReport{};
    report->mode = options.mode;
  }
  const std::vector<CsvRecord> records = SplitRecords(csv_text);

  // Sequential prologue: metadata comments up to and including the header.
  size_t first_data = records.size();
  bool header_seen = false;
  MetadataUpdate prologue;
  for (size_t i = 0; i < records.size(); ++i) {
    std::string_view line = records[i].text;
    if (line.empty()) continue;
    if (line[0] == '#') {
      SWIM_RETURN_IF_ERROR(
          ReadMetadataComment(line, records[i].line, &prologue));
      continue;
    }
    if (line != kTraceCsvHeader) {
      return InvalidArgumentError("line " + std::to_string(records[i].line) +
                                  ": unrecognized header");
    }
    header_seen = true;
    first_data = i + 1;
    break;
  }
  if (!header_seen) return InvalidArgumentError("missing CSV header");
  prologue.ApplyTo(&trace.mutable_metadata());

  // Data region: fixed-size record shards parsed concurrently. Each shard
  // collects its jobs, any "#key=value" assignments, its report fragment,
  // and its first error (any row in strict mode, bad metadata in every
  // mode); merging in shard order reproduces
  // the serial parser exactly, so trace AND report are byte-identical at
  // any thread count.
  struct Shard {
    std::vector<JobRecord> jobs;
    MetadataUpdate metadata;
    Status error = Status::Ok();
    size_t rows = 0;
    size_t skipped = 0;
    size_t repaired = 0;
    std::array<size_t, kParseErrorKinds> error_counts{};
    std::vector<ParseDiagnostic> diagnostics;  // capped at max_diagnostics
    size_t dropped_diagnostics = 0;
  };
  const size_t shard_count =
      (records.size() - first_data + kShardLines - 1) / kShardLines;
  std::vector<Shard> shards(shard_count);
  const ParseMode mode = options.mode;
  const size_t max_diagnostics = options.max_diagnostics;
  ParallelFor(
      first_data, records.size(), kShardLines,
      [&](size_t lo, size_t hi) {
        Shard& shard = shards[(lo - first_data) / kShardLines];
        std::vector<std::string_view> fields;
        std::vector<std::string> scratch;
        shard.jobs.reserve(hi - lo);
        auto note = [&](const ParseDiagnostic& diag) {
          ++shard.error_counts[static_cast<size_t>(diag.kind)];
          if (diag.repaired) {
            ++shard.repaired;
          } else {
            ++shard.skipped;
          }
          if (shard.diagnostics.size() < max_diagnostics) {
            shard.diagnostics.push_back(diag);
          } else {
            ++shard.dropped_diagnostics;
          }
        };
        for (size_t i = lo; i < hi; ++i) {
          std::string_view line = records[i].text;
          const int line_number = records[i].line;
          if (line.empty()) continue;
          if (line[0] == '#') {
            shard.error =
                ReadMetadataComment(line, line_number, &shard.metadata);
            if (!shard.error.ok()) return;
            continue;
          }
          ++shard.rows;
          ParseDiagnostic diag;
          CsvLineError split_error = SplitCsvLine(line, &fields, &scratch);
          if (split_error != CsvLineError::kNone) {
            diag.line = line_number;
            diag.kind = split_error == CsvLineError::kUnbalancedQuote
                            ? ParseErrorKind::kUnbalancedQuote
                            : ParseErrorKind::kMidFieldQuote;
            diag.reason = "";
            if (mode == ParseMode::kStrict) {
              shard.error = DiagnosticToStatus(diag);
              return;
            }
            note(diag);
            continue;
          }
          JobRecord job;
          RowAction action =
              ParseRowLenient(fields, line_number, mode, &job, &diag);
          if (action == RowAction::kSkipped ||
              action == RowAction::kRepaired) {
            if (mode == ParseMode::kStrict) {
              shard.error = DiagnosticToStatus(diag);
              return;
            }
            note(diag);
            if (action == RowAction::kSkipped) continue;
          }
          shard.jobs.push_back(std::move(job));
        }
      },
      options.threads);

  // The lowest-indexed shard with an error holds the earliest failing
  // line; report it, like the serial parser's first-error behaviour.
  size_t total_jobs = 0;
  for (const Shard& shard : shards) {
    if (!shard.error.ok()) return shard.error;
    total_jobs += shard.jobs.size();
  }
  std::vector<JobRecord> jobs;
  jobs.reserve(total_jobs);
  for (Shard& shard : shards) {
    shard.metadata.ApplyTo(&trace.mutable_metadata());
    for (JobRecord& job : shard.jobs) jobs.push_back(std::move(job));
    if (report) {
      report->total_rows += shard.rows;
      report->skipped += shard.skipped;
      report->repaired += shard.repaired;
      for (size_t i = 0; i < kParseErrorKinds; ++i) {
        report->error_counts[i] += shard.error_counts[i];
      }
      for (ParseDiagnostic& diag : shard.diagnostics) {
        if (report->diagnostics.size() < options.max_diagnostics) {
          report->diagnostics.push_back(std::move(diag));
        } else {
          ++report->dropped_diagnostics;
        }
      }
      report->dropped_diagnostics += shard.dropped_diagnostics;
    }
  }
  if (report) report->accepted = total_jobs;
  trace.SetJobs(std::move(jobs));
  if (options.warm_indexes) trace.WarmIndexes();
  return trace;
}

StatusOr<Trace> TraceFromCsv(const std::string& csv_text, int threads) {
  ParseOptions options;
  options.mode = ParseMode::kStrict;
  options.threads = threads;
  return TraceFromCsv(csv_text, options, nullptr);
}

Status WriteTraceCsv(const Trace& trace, const std::string& path) {
  // Streams through one reused row buffer flushed in ~1 MiB chunks, so a
  // multi-GB trace writes without ever holding its full CSV image in
  // memory (TraceToCsv still offers the in-memory form).
  constexpr size_t kFlushBytes = 1 << 20;
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (!out) return IoError("cannot open for writing: " + path);
  std::string buffer;
  buffer.reserve(kFlushBytes + 4096);
  AppendCsvPrologue(trace.metadata(), &buffer);
  auto flush = [&]() {
    if (buffer.empty()) return true;
    const bool ok =
        std::fwrite(buffer.data(), 1, buffer.size(), out) == buffer.size();
    buffer.clear();
    return ok;
  };
  for (const auto& job : trace.jobs()) {
    AppendCsvRow(job, &buffer);
    if (buffer.size() >= kFlushBytes && !flush()) {
      std::fclose(out);
      return IoError("write failed: " + path);
    }
  }
  if (!flush() || std::fflush(out) != 0) {
    std::fclose(out);
    return IoError("write failed: " + path);
  }
  if (std::fclose(out) != 0) return IoError("close failed: " + path);
  return Status::Ok();
}

StatusOr<Trace> ReadTraceCsv(const std::string& path,
                             const ParseOptions& options,
                             ParseReport* report) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return IoError("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return TraceFromCsv(buffer.str(), options, report);
}

StatusOr<Trace> ReadTraceCsv(const std::string& path, int threads) {
  ParseOptions options;
  options.mode = ParseMode::kStrict;
  options.threads = threads;
  return ReadTraceCsv(path, options, nullptr);
}

}  // namespace swim::trace

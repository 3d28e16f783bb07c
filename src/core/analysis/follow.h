#ifndef SWIM_CORE_ANALYSIS_FOLLOW_H_
#define SWIM_CORE_ANALYSIS_FOLLOW_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/statusor.h"
#include "core/analysis/streaming.h"
#include "trace/columnar.h"
#include "trace/trace_io.h"

namespace swim::core {

// ---------------------------------------------------------------------------
// Trace following — incremental analysis of a growing trace file.
//
// TraceFollower tails one trace file (STF1 or CSV, auto-sniffed) and folds
// newly appended jobs into a StreamingAnalyzer, so each Poll() costs
// O(new rows) analysis work instead of a full re-read:
//
//  - STF1: producers grow an STF1 trace by rewriting the snapshot with more
//    rows (the format is a single checksummed image, not a log). Poll()
//    re-opens the file — O(header + dictionaries), the columns are mmap'd
//    and never scanned — verifies the already-consumed prefix is intact via
//    spot checks (first/last consumed job id + submit time unchanged,
//    dictionaries only ever grow), and streams only rows past the consumed
//    mark. Section checksums are NOT re-verified per poll (that is O(file);
//    run `swim_trace_tool verify` out of band for integrity audits).
//  - CSV: Poll() reads bytes past the consumed offset and cuts after the
//    last record that more bytes cannot change (trace::CompleteCsvPrefix,
//    the parser's own record-boundary rule, so a half-flushed quoted field
//    is never split), parses just that chunk (with the canonical header
//    prepended after the first chunk), and streams the parsed rows.
//
// Either way a poll that observes a malformed state (shrunk file, mutated
// prefix, corrupt header, unparseable chunk, out-of-order appends) returns
// a structured error WITHOUT disturbing the analyzer: the already-folded
// report stays valid, and a later poll retries from the same consumed mark
// — so a producer crash mid-write only delays the tail, never poisons the
// analysis.
// ---------------------------------------------------------------------------

struct FollowOptions {
  StreamingOptions streaming;
  /// Row admission for CSV chunks (strict by default; kSkip tolerates torn
  /// producers at the cost of silently dropping rows). `warm_indexes` is
  /// ignored: each chunk is folded row by row and never indexed.
  trace::ParseOptions csv_parse;
};

/// Outcome of one Poll().
struct FollowPoll {
  /// Rows folded by this poll (0 when the file has not grown).
  size_t new_jobs = 0;
  /// Total rows folded since Open().
  size_t total_jobs = 0;
};

class TraceFollower {
 public:
  /// Binds to `path` (which must exist; its format is sniffed once — a
  /// follow target never changes format). No rows are consumed yet: the
  /// first Poll() picks up everything present.
  static StatusOr<TraceFollower> Open(const std::string& path,
                                      FollowOptions options = {});

  /// Consumes any complete rows appended since the last poll. O(new rows)
  /// plus O(header + dictionaries) re-open for STF1 / O(new bytes) read
  /// for CSV. On error the consumed mark and analyzer are unchanged.
  StatusOr<FollowPoll> Poll();

  /// Renders the report over everything consumed so far (error when no
  /// rows have been consumed yet). Hot-file paths resolve through the
  /// live STF1 dictionaries or the CSV interner.
  StatusOr<StreamingReport> Report() const;

  const std::string& path() const { return path_; }
  trace::TraceFormat format() const { return format_; }
  size_t jobs_consumed() const { return analyzer_.jobs_observed(); }
  const StreamingAnalyzer& analyzer() const { return analyzer_; }

 private:
  TraceFollower(std::string path, trace::TraceFormat format,
                FollowOptions options);

  StatusOr<FollowPoll> PollStf1();
  StatusOr<FollowPoll> PollCsv();

  std::string path_;
  trace::TraceFormat format_ = trace::TraceFormat::kCsv;
  FollowOptions options_;
  StreamingAnalyzer analyzer_;

  // STF1 state: the live view (kept for Report's dictionary lookups) and
  // the consumed-prefix fingerprint checked on every re-open.
  trace::ColumnarTraceView view_;
  bool has_view_ = false;
  size_t consumed_rows_ = 0;
  uint64_t first_job_id_ = 0;
  double first_submit_ = 0.0;
  uint64_t last_job_id_ = 0;
  double last_submit_ = 0.0;
  size_t seen_name_count_ = 0;
  size_t seen_path_count_ = 0;

  // CSV state: byte offset of the first unconsumed byte (always a record
  // boundary, so each poll's chunk starts outside any quote).
  uint64_t consumed_bytes_ = 0;
  bool csv_header_consumed_ = false;
  bool csv_metadata_set_ = false;
};

}  // namespace swim::core

#endif  // SWIM_CORE_ANALYSIS_FOLLOW_H_

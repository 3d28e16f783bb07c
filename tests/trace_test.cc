#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "trace/filters.h"
#include "trace/frameworks.h"
#include "trace/job_record.h"
#include "trace/summary.h"
#include "trace/trace.h"
#include "trace/trace_io.h"

namespace swim::trace {
namespace {

JobRecord MakeJob(uint64_t id, double submit, double input = 1e6,
                  double shuffle = 0.0, double output = 1e5) {
  JobRecord job;
  job.job_id = id;
  job.name = "job_" + std::to_string(id);
  job.submit_time = submit;
  job.duration = 30;
  job.input_bytes = input;
  job.shuffle_bytes = shuffle;
  job.output_bytes = output;
  job.map_tasks = 2;
  job.reduce_tasks = shuffle > 0 ? 1 : 0;
  job.map_task_seconds = 40;
  job.reduce_task_seconds = shuffle > 0 ? 10 : 0;
  job.input_path = "in/a";
  job.output_path = "out/" + std::to_string(id);
  return job;
}

// --- JobRecord ---------------------------------------------------------

TEST(JobRecordTest, TotalsAndMapOnly) {
  JobRecord job = MakeJob(1, 0, 100, 50, 25);
  EXPECT_DOUBLE_EQ(job.TotalBytes(), 175.0);
  EXPECT_DOUBLE_EQ(job.TotalTaskSeconds(), 50.0);
  EXPECT_FALSE(job.IsMapOnly());
  JobRecord map_only = MakeJob(2, 0, 100, 0, 25);
  EXPECT_TRUE(map_only.IsMapOnly());
}

TEST(JobRecordTest, ValidationCatchesNegatives) {
  JobRecord job = MakeJob(1, 0);
  EXPECT_EQ(ValidateJobRecord(job), "");
  job.input_bytes = -1;
  EXPECT_NE(ValidateJobRecord(job), "");
  job = MakeJob(1, 0);
  job.submit_time = -5;
  EXPECT_NE(ValidateJobRecord(job), "");
  job = MakeJob(1, 0);
  job.reduce_tasks = 0;
  job.reduce_task_seconds = 10;
  EXPECT_NE(ValidateJobRecord(job), "");
}

// --- Trace ----------------------------------------------------------------

TEST(TraceTest, MaintainsSubmitOrder) {
  Trace trace;
  trace.AddJob(MakeJob(1, 100));
  trace.AddJob(MakeJob(2, 50));
  trace.AddJob(MakeJob(3, 75));
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_DOUBLE_EQ(trace.StartTime(), 50.0);
  EXPECT_EQ(trace.jobs()[0].job_id, 2u);
  EXPECT_EQ(trace.jobs()[2].job_id, 1u);
}

TEST(TraceTest, SpanCoversDurations) {
  Trace trace;
  JobRecord job = MakeJob(1, 100);
  job.duration = 500;
  trace.AddJob(job);
  trace.AddJob(MakeJob(2, 200));
  EXPECT_DOUBLE_EQ(trace.EndTime(), 600.0);
  EXPECT_DOUBLE_EQ(trace.Span(), 500.0);
}

TEST(TraceTest, EmptyTraceZeroes) {
  Trace trace;
  EXPECT_TRUE(trace.empty());
  EXPECT_DOUBLE_EQ(trace.StartTime(), 0.0);
  EXPECT_DOUBLE_EQ(trace.EndTime(), 0.0);
  EXPECT_TRUE(trace.HourlyJobCounts().empty());
}

TEST(TraceTest, HourlySeriesBucketsBySubmitHour) {
  Trace trace;
  trace.AddJob(MakeJob(1, 0));
  trace.AddJob(MakeJob(2, 1800));
  trace.AddJob(MakeJob(3, 3700));
  auto counts = trace.HourlyJobCounts();
  ASSERT_GE(counts.size(), 2u);
  EXPECT_DOUBLE_EQ(counts[0], 2.0);
  EXPECT_DOUBLE_EQ(counts[1], 1.0);
}

TEST(TraceTest, HourlyBytesAndTaskSeconds) {
  Trace trace;
  trace.AddJob(MakeJob(1, 0, 100, 10, 1));
  auto bytes = trace.HourlyBytes();
  auto tasks = trace.HourlyTaskSeconds();
  EXPECT_DOUBLE_EQ(bytes[0], 111.0);
  EXPECT_DOUBLE_EQ(tasks[0], 50.0);
}

TEST(TraceTest, ValidateFindsBadJob) {
  Trace trace;
  trace.AddJob(MakeJob(1, 0));
  EXPECT_TRUE(trace.Validate().ok());
  JobRecord bad = MakeJob(2, 10);
  bad.duration = -1;
  trace.AddJob(bad);
  EXPECT_FALSE(trace.Validate().ok());
}

// --- CSV I/O -----------------------------------------------------------------

TEST(TraceIoTest, RoundTripsInMemory) {
  Trace trace;
  trace.mutable_metadata().name = "test";
  trace.mutable_metadata().machines = 42;
  trace.mutable_metadata().year = 2011;
  trace.AddJob(MakeJob(1, 0));
  trace.AddJob(MakeJob(2, 3600, 5e9, 1e9, 2e8));
  std::string csv = TraceToCsv(trace);
  auto parsed = TraceFromCsv(csv);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->metadata().name, "test");
  EXPECT_EQ(parsed->metadata().machines, 42);
  EXPECT_EQ(parsed->metadata().year, 2011);
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ(parsed->jobs()[0], trace.jobs()[0]);
  EXPECT_EQ(parsed->jobs()[1], trace.jobs()[1]);
}

TEST(TraceIoTest, QuotesCommasInNames) {
  Trace trace;
  JobRecord job = MakeJob(1, 0);
  job.name = "INSERT OVERWRITE TABLE a,b \"quoted\"";
  trace.AddJob(job);
  auto parsed = TraceFromCsv(TraceToCsv(trace));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->jobs()[0].name, job.name);
}

TEST(TraceIoTest, RejectsMissingHeader) {
  EXPECT_FALSE(TraceFromCsv("1,2,3\n").ok());
  EXPECT_FALSE(TraceFromCsv("").ok());
}

TEST(TraceIoTest, RejectsBadFieldCount) {
  std::string csv = std::string(kTraceCsvHeader) + "\n1,name,0\n";
  auto parsed = TraceFromCsv(csv);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos);
}

TEST(TraceIoTest, RejectsNonNumeric) {
  std::string csv = std::string(kTraceCsvHeader) +
                    "\n1,n,zero,1,1,0,1,1,0,1,0,a,b\n";
  EXPECT_FALSE(TraceFromCsv(csv).ok());
}

TEST(TraceIoTest, RejectsInvalidRecord) {
  // Negative input bytes.
  std::string csv =
      std::string(kTraceCsvHeader) + "\n1,n,0,1,-5,0,1,1,0,1,0,a,b\n";
  EXPECT_FALSE(TraceFromCsv(csv).ok());
}

TEST(TraceIoTest, ExtremeDoublesRoundTripExactly) {
  // CSV serialization must round-trip doubles bit-exactly, including
  // subnormals, huge magnitudes, and values needing all 17 digits.
  const double extremes[] = {0.0,
                             1.0 / 3.0,
                             0.1,
                             3.141592653589793,
                             123456789.123456789,
                             9007199254740993.0,  // 2^53 + 1
                             1e-300,
                             5e-324,                  // smallest subnormal
                             2.2250738585072014e-308,  // smallest normal
                             1.7976931348623157e308,   // DBL_MAX
                             1e300};
  Trace trace;
  uint64_t id = 1;
  for (double v : extremes) {
    JobRecord job = MakeJob(id++, v);
    job.duration = v;
    job.input_bytes = v;
    job.map_task_seconds = v;
    trace.AddJob(job);
  }
  trace.StartTime();  // settle the submit-time sort before serializing
  auto parsed = TraceFromCsv(TraceToCsv(trace));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ASSERT_EQ(parsed->size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(parsed->jobs()[i], trace.jobs()[i]) << "job " << i;
  }
}

TEST(TraceIoTest, RandomDoublesRoundTripExactly) {
  // Property sweep: random finite non-negative bit patterns survive a CSV
  // round trip unchanged.
  Pcg32 rng(2012);
  Trace trace;
  uint64_t id = 1;
  while (trace.size() < 500) {
    uint64_t bits = (static_cast<uint64_t>(rng()) << 32) | rng();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (!std::isfinite(v) || v < 0.0) continue;
    JobRecord job = MakeJob(id, static_cast<double>(id));
    job.input_bytes = v;
    job.output_bytes = v;
    trace.AddJob(job);
    ++id;
  }
  auto parsed = TraceFromCsv(TraceToCsv(trace));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  ASSERT_EQ(parsed->size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(parsed->jobs()[i], trace.jobs()[i]) << "job " << i;
  }
}

TEST(TraceIoTest, FileRoundTrip) {
  Trace trace;
  trace.mutable_metadata().name = "file-test";
  trace.AddJob(MakeJob(1, 0));
  std::string path = ::testing::TempDir() + "/swim_trace_test.csv";
  ASSERT_TRUE(WriteTraceCsv(trace, path).ok());
  auto parsed = ReadTraceCsv(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 1u);
  std::remove(path.c_str());
}

TEST(TraceIoTest, ReadMissingFileFails) {
  EXPECT_FALSE(ReadTraceCsv("/nonexistent/path.csv").ok());
}

// --- Filters ---------------------------------------------------------------

TEST(FiltersTest, TimeRangeSelectsHalfOpenInterval) {
  Trace trace;
  for (int i = 0; i < 10; ++i) trace.AddJob(MakeJob(i + 1, i * 100.0));
  Trace filtered = FilterByTimeRange(trace, 200, 500);
  EXPECT_EQ(filtered.size(), 3u);
  EXPECT_DOUBLE_EQ(filtered.StartTime(), 200.0);
}

TEST(FiltersTest, PredicateFilter) {
  Trace trace;
  trace.AddJob(MakeJob(1, 0, 1e3));
  trace.AddJob(MakeJob(2, 10, 1e12));
  Trace big = FilterByPredicate(
      trace, [](const JobRecord& j) { return j.input_bytes > 1e9; });
  ASSERT_EQ(big.size(), 1u);
  EXPECT_EQ(big.jobs()[0].job_id, 2u);
}

TEST(FiltersTest, TakeFirstAndRebase) {
  Trace trace;
  for (int i = 0; i < 5; ++i) trace.AddJob(MakeJob(i + 1, 1000.0 + i));
  Trace head = TakeFirst(trace, 2);
  EXPECT_EQ(head.size(), 2u);
  Trace rebased = RebaseToZero(head);
  EXPECT_DOUBLE_EQ(rebased.StartTime(), 0.0);
  EXPECT_DOUBLE_EQ(rebased.jobs()[1].submit_time, 1.0);
}

// --- Summary -----------------------------------------------------------------

TEST(SummaryTest, ComputesTable1Row) {
  Trace trace;
  trace.mutable_metadata().name = "X";
  trace.mutable_metadata().machines = 10;
  trace.AddJob(MakeJob(1, 0, 100, 10, 1));
  trace.AddJob(MakeJob(2, 50, 200, 0, 2));  // map-only
  TraceSummary summary = Summarize(trace);
  EXPECT_EQ(summary.name, "X");
  EXPECT_EQ(summary.jobs, 2u);
  EXPECT_DOUBLE_EQ(summary.bytes_moved, 313.0);
  EXPECT_EQ(summary.map_only_jobs, 1u);
  EXPECT_DOUBLE_EQ(summary.median_duration, 30.0);
}

TEST(SummaryTest, TableFormatsTotals) {
  TraceSummary a;
  a.name = "A";
  a.jobs = 10;
  a.bytes_moved = 1e12;
  TraceSummary b;
  b.name = "B";
  b.jobs = 5;
  b.bytes_moved = 2e12;
  std::string table = FormatSummaryTable({a, b});
  EXPECT_NE(table.find("Total"), std::string::npos);
  EXPECT_NE(table.find("15"), std::string::npos);
  EXPECT_NE(table.find("3 TB"), std::string::npos);
}

// --- Frameworks -----------------------------------------------------------

TEST(FrameworksTest, ClassifiesKnownWords) {
  EXPECT_EQ(ClassifyFramework("insert"), Framework::kHive);
  EXPECT_EQ(ClassifyFramework("select"), Framework::kHive);
  EXPECT_EQ(ClassifyFramework("from"), Framework::kHive);
  EXPECT_EQ(ClassifyFramework("piglatin"), Framework::kPig);
  EXPECT_EQ(ClassifyFramework("oozie"), Framework::kOozie);
  EXPECT_EQ(ClassifyFramework("ad"), Framework::kNative);
  EXPECT_EQ(ClassifyFramework(""), Framework::kNative);
}

TEST(FrameworksTest, NamesAreStable) {
  EXPECT_EQ(FrameworkName(Framework::kHive), "Hive");
  EXPECT_EQ(FrameworkName(Framework::kPig), "Pig");
  EXPECT_EQ(FrameworkName(Framework::kOozie), "Oozie");
  EXPECT_EQ(FrameworkName(Framework::kNative), "Native");
}

// --- CSV dialect corners ------------------------------------------------

TEST(TraceIoTest, AcceptsCrlfLineEndings) {
  Trace trace;
  trace.AddJob(MakeJob(1, 0));
  trace.AddJob(MakeJob(2, 60));
  std::string csv = TraceToCsv(trace);
  std::string crlf;
  for (char c : csv) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  auto parsed = TraceFromCsv(crlf);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ(parsed->jobs()[0], trace.jobs()[0]);
  EXPECT_EQ(parsed->jobs()[1], trace.jobs()[1]);
}

TEST(TraceIoTest, QuotedFieldsWithNewlinesAndEscapedQuotes) {
  Trace trace;
  JobRecord job = MakeJob(1, 0);
  job.name = "line one\nline two";
  job.input_path = "hdfs://a,\"b\"\npart=3";
  trace.AddJob(job);
  auto parsed = TraceFromCsv(TraceToCsv(trace));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ(parsed->jobs()[0].name, job.name);
  EXPECT_EQ(parsed->jobs()[0].input_path, job.input_path);
}

TEST(TraceIoTest, MetadataCommentsAfterHeader) {
  // #key=value lines are honored anywhere, not just before the header.
  std::string csv = std::string(kTraceCsvHeader) +
                    "\n#name=LATE\n1,n,0,1,1,0,1,1,0,1,0,a,b\n#machines=64\n";
  auto parsed = TraceFromCsv(csv);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->metadata().name, "LATE");
  EXPECT_EQ(parsed->metadata().machines, 64);
  ASSERT_EQ(parsed->size(), 1u);

  // The key ends at the first '=': a name may hold '=' (and a quote).
  auto named = TraceFromCsv("#name=CC-b=v2\n#year=2011\n#note\n#x=1\n" +
                            std::string(kTraceCsvHeader) + "\n#name=O\"B\n");
  ASSERT_TRUE(named.ok()) << named.status();
  EXPECT_EQ(named->metadata().name, "O\"B");
  EXPECT_EQ(named->metadata().year, 2011);
  named = TraceFromCsv("#name=CC-b=v2\n" + std::string(kTraceCsvHeader));
  ASSERT_TRUE(named.ok()) << named.status();
  EXPECT_EQ(named->metadata().name, "CC-b=v2");
  named = TraceFromCsv("#machines= 2147483647 \n#year=0\n" +
                       std::string(kTraceCsvHeader));
  ASSERT_TRUE(named.ok()) << named.status();
  EXPECT_EQ(named->metadata().machines, 2147483647);

  // machines and year are read exactly or rejected, before or after the
  // header and in every parse mode.
  const std::string row = "1,n,0,1,1,0,1,1,0,1,0,a,b\n";
  for (const char* bad :
       {"machines=4294967596", "machines=-7", "machines=", "machines=3x",
        "machines=2147483648", "year=1e3", "year=-1", "year=+"}) {
    const std::string key(bad, std::string_view(bad).find('='));
    const std::string want = "line 2: bad " + key;
    const std::string comment = "#" + std::string(bad) + "\n";
    for (const std::string& csv :
         {"#name=ok\n" + comment + kTraceCsvHeader + "\n" + row,
          std::string(kTraceCsvHeader) + "\n" + comment + row}) {
      for (ParseMode mode :
           {ParseMode::kStrict, ParseMode::kSkip, ParseMode::kRepair}) {
        ParseOptions options;
        options.mode = mode;
        auto rejected = TraceFromCsv(csv, options);
        ASSERT_FALSE(rejected.ok()) << bad;
        EXPECT_EQ(rejected.status().message(), want) << bad;
      }
    }
  }
}

TEST(TraceIoTest, RejectsMidFieldQuote) {
  // A quote opening mid-field (ab"cd) or junk after a closing quote
  // ("ab"cd) silently mis-parsed before; both must be malformed now.
  std::string mid = std::string(kTraceCsvHeader) +
                    "\n1,na\"me,0,1,1,0,1,1,0,1,0,a,b\n";
  auto parsed = TraceFromCsv(mid);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos);
  std::string junk = std::string(kTraceCsvHeader) +
                     "\n1,\"na\"me,0,1,1,0,1,1,0,1,0,a,b\n";
  EXPECT_FALSE(TraceFromCsv(junk).ok());
}

// --- Lenient parse modes ------------------------------------------------

TEST(TraceIoTest, ParseModeNamesRoundTrip) {
  for (ParseMode mode :
       {ParseMode::kStrict, ParseMode::kSkip, ParseMode::kRepair}) {
    auto back = ParseModeFromName(ParseModeName(mode));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, mode);
  }
  EXPECT_FALSE(ParseModeFromName("lenient").ok());
}

// One good row, then: bad field count (3), non-numeric input_bytes (4),
// negative duration (5), unbalanced quote (6), good (7).
std::string MessyCsv() {
  return std::string(kTraceCsvHeader) +
         "\n1,n,0,1,1,0,1,1,0,1,0,a,b\n"
         "2,n,0\n"
         "3,n,0,1,zero,0,1,1,0,1,0,a,b\n"
         "4,n,0,-9,1,0,1,1,0,1,0,a,b\n"
         "5,\"n,0,1,1,0,1,1,0,1,0,a,b\n"
         "6,n,6,1,1,0,1,1,0,1,0,a,b\n";
}

TEST(TraceIoTest, SkipModeCountsEachCategory) {
  ParseReport report;
  auto parsed =
      TraceFromCsv(MessyCsv(), ParseOptions{ParseMode::kSkip, 64, 0}, &report);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 2u);  // jobs 1 and 6
  EXPECT_EQ(report.total_rows, 6u);
  EXPECT_EQ(report.accepted, 2u);
  EXPECT_EQ(report.skipped, 4u);
  EXPECT_EQ(report.repaired, 0u);
  EXPECT_EQ(report.error_counts[size_t{0}], 1u);  // unbalanced quote
  EXPECT_EQ(
      report.error_counts[static_cast<size_t>(ParseErrorKind::kFieldCount)],
      1u);
  EXPECT_EQ(
      report.error_counts[static_cast<size_t>(ParseErrorKind::kBadNumber)],
      1u);
  EXPECT_EQ(
      report.error_counts[static_cast<size_t>(ParseErrorKind::kInvalidRecord)],
      1u);
  ASSERT_EQ(report.diagnostics.size(), 4u);
  EXPECT_EQ(report.diagnostics[0].line, 3);
  EXPECT_EQ(report.diagnostics[1].line, 4);
  EXPECT_EQ(report.diagnostics[1].field, "input_bytes");
  EXPECT_EQ(report.diagnostics[2].line, 5);
  EXPECT_EQ(report.diagnostics[3].line, 6);
}

TEST(TraceIoTest, RepairModePatchesValueProblems) {
  ParseReport report;
  auto parsed = TraceFromCsv(MessyCsv(),
                             ParseOptions{ParseMode::kRepair, 64, 0}, &report);
  ASSERT_TRUE(parsed.ok());
  // Value-level rows (3: bad number, 4: negative duration) are patched and
  // kept; structural rows (2, 5) stay skipped.
  EXPECT_EQ(parsed->size(), 4u);
  EXPECT_EQ(report.accepted, 4u);
  EXPECT_EQ(report.repaired, 2u);
  EXPECT_EQ(report.skipped, 2u);
  for (const JobRecord& job : parsed->jobs()) {
    EXPECT_EQ(ValidateJobRecord(job), "");
  }
  // The patched fields land on the nearest valid value: zero.
  const JobRecord* three = nullptr;
  const JobRecord* four = nullptr;
  for (const JobRecord& job : parsed->jobs()) {
    if (job.job_id == 3) three = &job;
    if (job.job_id == 4) four = &job;
  }
  ASSERT_NE(three, nullptr);
  EXPECT_DOUBLE_EQ(three->input_bytes, 0.0);
  ASSERT_NE(four, nullptr);
  EXPECT_DOUBLE_EQ(four->duration, 0.0);
}

TEST(TraceIoTest, StrictModeReportsEarliestBadLine) {
  // Strict failure must name the first bad line even when later shards
  // (parallel parse) hit errors too.
  for (int threads : {1, 8}) {
    auto parsed = TraceFromCsv(MessyCsv(), threads);
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.status().message().find("line 3"), std::string::npos)
        << parsed.status().message();
  }
}

TEST(TraceIoTest, ReportIdenticalAtAnyThreadCount) {
  // Build a trace large enough to span several 4096-line parse shards,
  // with errors sprinkled in.
  std::string csv(kTraceCsvHeader);
  csv += "\n";
  for (int i = 1; i <= 10000; ++i) {
    if (i % 97 == 0) {
      csv += "bad line\n";
    } else if (i % 131 == 0) {
      csv += std::to_string(i) + ",n,0,1,nope,0,1,1,0,1,0,a,b\n";
    } else {
      csv += std::to_string(i) + ",n,0,1,1,0,1,1,0,1,0,a,b\n";
    }
  }
  ParseReport serial, wide;
  auto a = TraceFromCsv(csv, ParseOptions{ParseMode::kRepair, 32, 1}, &serial);
  auto b = TraceFromCsv(csv, ParseOptions{ParseMode::kRepair, 32, 8}, &wide);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(TraceToCsv(*a), TraceToCsv(*b));
  EXPECT_EQ(serial.ToString(), wide.ToString());
  EXPECT_GT(serial.dropped_diagnostics, 0u);  // cap respected, counts exact
  EXPECT_EQ(serial.diagnostics.size(), 32u);
}

TEST(TraceIoTest, NonFiniteNumbersAreBadNumbers) {
  // strtod happily parses "inf"/"nan"/"1e999"; the trace schema has no
  // meaning for them. Strict rejects; repair patches to 0 and keeps.
  for (const char* hostile : {"inf", "-inf", "nan", "1e999"}) {
    std::string csv = std::string(kTraceCsvHeader) + "\n1,n,0,1," + hostile +
                      ",0,1,1,0,1,0,a,b\n";
    EXPECT_FALSE(TraceFromCsv(csv).ok()) << hostile;
    ParseReport report;
    auto repaired =
        TraceFromCsv(csv, ParseOptions{ParseMode::kRepair, 64, 0}, &report);
    ASSERT_TRUE(repaired.ok()) << hostile;
    ASSERT_EQ(repaired->size(), 1u) << hostile;
    EXPECT_DOUBLE_EQ(repaired->jobs()[0].input_bytes, 0.0) << hostile;
    EXPECT_EQ(
        report.error_counts[static_cast<size_t>(ParseErrorKind::kBadNumber)],
        1u)
        << hostile;
  }
}

TEST(TraceIoTest, CompleteCsvPrefixParsesLikeTheWholeFile) {
  // Every prefix a follower would parse holds exactly the leading records
  // of the whole file: quoted newlines wait for their closing quote, a
  // quote in a '#' comment is ignored, and a stray quote is given up on
  // once kMaxRecordLines (64) complete lines pass without closing it.
  auto row = [](int id, const std::string& name) {
    return std::to_string(id) + "," + name + "," + std::to_string(id) +
           ",1,1,0,1,1,0,1,0,a,b\n";
  };
  std::string csv = "#name=O\"B\n" + std::string(kTraceCsvHeader) + "\n" +
                    row(1, "\"two\nlines\"") + row(2, "crlf");
  csv.insert(csv.size() - 1, "\r");
  csv += row(3, "stray\"quote");
  for (int id = 4; id < 74; ++id) csv += row(id, "plain");
  csv += row(74, "\"a \"\"b\"\"\nc\"") + row(75, "last");
  const ParseOptions skip{ParseMode::kSkip, 64, 0};
  auto whole = TraceFromCsv(csv, skip);
  ASSERT_TRUE(whole.ok()) << whole.status();
  ASSERT_EQ(whole->size(), 74u);  // the stray-quote row is skipped
  EXPECT_EQ(CompleteCsvPrefix(csv), csv.size());
  const size_t header_end = csv.find("\n1,");
  size_t previous = 0;
  for (size_t length = 0; length <= csv.size(); ++length) {
    const size_t cut =
        CompleteCsvPrefix(std::string_view(csv).substr(0, length));
    ASSERT_LE(cut, length);
    ASSERT_GE(cut, previous) << length;
    previous = cut;
    if (cut <= header_end) continue;
    auto prefix = TraceFromCsv(csv.substr(0, cut), skip);
    ASSERT_TRUE(prefix.ok()) << length << ": " << prefix.status();
    ASSERT_LE(prefix->size(), whole->size());
    for (size_t i = 0; i < prefix->size(); ++i) {
      ASSERT_EQ(prefix->jobs()[i], whole->jobs()[i]) << length;
    }
  }
}

// --- Lazy index thread safety (regression: data race) -------------------

TEST(TraceTest, ConcurrentLazyIndexBuildIsSafe) {
  // EnsurePathIndex/EnsureNameIndex used to mutate mutable members from
  // const accessors with no synchronization; concurrent readers raced.
  // Run under TSan this test fails on the old code.
  Trace trace;
  for (uint64_t id = 1; id <= 500; ++id) {
    JobRecord job = MakeJob(id, static_cast<double>(500 - id));
    job.input_path = "in/" + std::to_string(id % 17);
    job.name = "name" + std::to_string(id % 11);
    trace.AddJob(std::move(job));
  }
  const Trace& shared = trace;
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int r = 0; r < 8; ++r) {
    readers.emplace_back([&shared, &failures, r] {
      // Mix of accessors that trigger sorting and both index builds.
      if (shared.input_path_ids().size() != 500) ++failures;
      if (shared.name_ids().size() != 500) ++failures;
      if (shared.output_path_ids().size() != 500) ++failures;
      if (shared.jobs().front().submit_time != 0.0) ++failures;
      (void)r;
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(TraceTest, CopyAndMovePreserveJobsAndMetadata) {
  Trace trace;
  trace.mutable_metadata().name = "copy-src";
  trace.AddJob(MakeJob(2, 10));
  trace.AddJob(MakeJob(1, 0));
  (void)trace.input_path_ids();  // force lazy state before copying

  Trace copy = trace;
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.metadata().name, "copy-src");
  EXPECT_EQ(copy.jobs()[0].job_id, 1u);  // sortedness carried
  EXPECT_EQ(copy.input_path_ids().size(), 2u);  // indexes rebuilt on demand

  Trace moved = std::move(copy);
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved.metadata().name, "copy-src");
  EXPECT_EQ(moved.name_ids().size(), 2u);
}

}  // namespace
}  // namespace swim::trace

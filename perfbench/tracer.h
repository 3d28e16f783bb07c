#ifndef SWIM_PERFBENCH_TRACER_H_
#define SWIM_PERFBENCH_TRACER_H_

// In-memory span recorder for the benchmark's traced runs.
//
// A span is (name, start, end, parent, group): the benchmark opens one
// around every call it makes into a layer's public functions, and around
// its own structure (set-up, iteration, answer). Spans stay in memory and
// are written as JSON when the run ends, so recording costs one vector
// push per span. Only the benchmark's main thread opens spans; timings
// taken on worker lanes are handed over with Add() after the lanes join.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace swim::perfbench {

/// Seconds on the monotonic clock since the first call in this process.
inline double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  /// Index of the enclosing span in Tracer::spans(); -1 for a root.
  int parent = -1;
  /// Which set-up or iteration the span belongs to ("setup0", "iter3").
  std::string group;
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_group(std::string group) { group_ = std::move(group); }

  /// Opens a span under the innermost open one; -1 when disabled.
  int Begin(const char* name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, NowSeconds(), 0.0, parent, group_});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end = NowSeconds();
    // Spans close in LIFO order (ScopedSpan); pop through `id` anyway so
    // a mismatched End cannot leave a stale parent open.
    while (!open_.empty()) {
      const int top = open_.back();
      open_.pop_back();
      if (top == id) break;
    }
  }

  /// Records a finished span timed elsewhere (a worker lane) as a child of
  /// the innermost open span.
  void Add(const char* name, double start, double end) {
    if (!enabled_) return;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, start, end, parent, group_});
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part of its interval
  /// covered by its children (children on parallel lanes may overlap, so
  /// their union is subtracted, not their sum).
  std::vector<double> SelfTimes() const {
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const SpanRecord& span : spans_) {
      if (span.parent >= 0) {
        children[static_cast<size_t>(span.parent)].emplace_back(span.start,
                                                                span.end);
      }
    }
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      double covered = 0.0;
      double cursor = spans_[i].start;
      for (const auto& [start, end] : kids) {
        const double from = std::max(start, cursor);
        const double to = std::min(end, spans_[i].end);
        if (to > from) covered += to - from;
        cursor = std::max(cursor, end);
      }
      self[i] = std::max(0.0, spans_[i].end - spans_[i].start - covered);
    }
    return self;
  }

  /// The spans as a JSON array of {name, start, end, parent, group}.
  std::string ToJson() const {
    std::string out = "[";
    char line[384];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::snprintf(line, sizeof(line),
                    "%s\n{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,"
                    "\"end\":%.9f,\"parent\":%d,\"group\":\"%s\"}",
                    i == 0 ? "" : ",", i, s.name.c_str(), s.start, s.end,
                    s.parent, s.group.c_str());
      out += line;
    }
    out += "\n]";
    return out;
  }

 private:
  bool enabled_ = false;
  std::string group_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace swim::perfbench

#endif  // SWIM_PERFBENCH_TRACER_H_

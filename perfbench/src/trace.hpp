#pragma once

// In-memory span recorder for the traced run. The benchmark records one
// span around each public library call it makes; spans are written out as
// Chrome trace-event JSON (chrome://tracing, Perfetto) when the run ends.
// Single-threaded: only the benchmark's main thread records.

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int parent = -1;        ///< index of the enclosing span, -1 at top level
    double start_us = 0.0;  ///< since the recorder was created
    double duration_us = -1.0;
    std::vector<std::pair<std::string, double>> args;
  };

  explicit SpanRecorder(bool enabled);

  /// Opens a span nested in the innermost open one; returns its id, or -1
  /// when recording is off.
  int begin(std::string name);
  /// Closes span `id` (a no-op for -1).
  void end(int id);
  /// Attaches a numeric argument to span `id` (a no-op for -1).
  void annotate(int id, std::string key, double value);

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  /// Throws std::runtime_error on I/O failure.
  void write_chrome_trace(const std::string& path) const;

 private:
  double now_us() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name)
      : recorder_(recorder), id_(recorder.begin(std::move(name))) {}
  ~ScopedSpan() { recorder_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  void annotate(std::string key, double value) {
    recorder_.annotate(id_, std::move(key), value);
  }

 private:
  SpanRecorder& recorder_;
  int id_;
};

}  // namespace perfbench

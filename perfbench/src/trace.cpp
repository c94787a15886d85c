#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   origin_)
      .count();
}

int SpanRecorder::begin(std::string name) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = now_us();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].duration_us =
      now_us() - spans_[static_cast<std::size_t>(id)].start_us;
  const auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it);
}

void SpanRecorder::annotate(int id, std::string key, double value) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].args.emplace_back(std::move(key), value);
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Span names and argument keys are the benchmark's own identifiers
    // (letters, digits, '.', '_'), so they need no JSON escaping.
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %zu, \"parent\": %d",
                  i == 0 ? "" : ",\n", span.name.c_str(), span.start_us,
                  std::max(span.duration_us, 0.0), i, span.parent);
    out << buf;
    for (const auto& [key, value] : span.args) {
      std::snprintf(buf, sizeof buf, ", \"%s\": %.17g", key.c_str(), value);
      out << buf;
    }
    out << "}}";
  }
  out << "\n]}\n";
  if (!out.flush()) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace perfbench

#pragma once

// Outside-in span recorder of the traced run. Spans are opened by the
// benchmark around its calls into each layer (nothing inside the library
// is instrumented), kept in memory, and written out when the run ends.
//
// Every span names its parent and the op it belongs to. A span opened on a
// thread with no open span is the root of a new op; a span's self time is
// its duration minus the union of its children's intervals, and the self
// time of an op's root is the part of the op no layer span covers (the
// unattributed remainder).

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t id = 0;
  /// 0 for a root span.
  std::uint32_t parent = 0;
  /// Id of the root span of the op this span belongs to.
  std::uint32_t op = 0;
  /// Layer name; a string literal.
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  std::uint32_t next_id() {
    return next_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(const Span& span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }
  /// Writes one JSON line per span (times in microseconds from the first
  /// span) to `path`.
  void write_jsonl(const std::string& path) const;

 private:
  std::atomic<std::uint32_t> next_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span around one call into a layer; a no-op when `recorder` is null.
/// Nests under the innermost span open on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  Span span_;
  ScopedSpan* outer_ = nullptr;
};

/// Self times and durations by span name over every span, and the
/// coverage of the ops rooted at a span named `op_name`.
struct SpanAnalysis {
  /// Per span name: summed self time, summed duration, span count.
  std::map<std::string, double> self_s;
  std::map<std::string, double> total_s;
  std::map<std::string, std::uint64_t> count;
  std::uint64_t ops = 0;
  /// Spans that belong to those ops, roots included.
  std::uint64_t op_spans = 0;
  /// Summed duration of the op roots and of their own self time.
  double op_s = 0.0;
  double unattributed_s = 0.0;

  /// Summed duration of the spans named `name`; throws if there are none.
  double total(const std::string& name) const;
};

SpanAnalysis analyse(const std::vector<Span>& spans, const std::string& op_name);

}  // namespace perfbench

#pragma once

/// \file trace.hpp
/// Virtual-clock trace recorder: timestamped spans and instant events per
/// simmpi rank, ring-buffered so steady-state recording never allocates,
/// merged and exported as Chrome `trace_event` JSON that loads directly in
/// `chrome://tracing` / Perfetto (one row per rank, timestamps in virtual
/// microseconds).
///
/// Recording is disabled unless a recorder is installed with
/// `set_current_trace()`; every instrumentation site starts with a single
/// relaxed pointer load, so the cost when tracing is off is one predictable
/// branch.
///
/// Threading contract: each rank writes only its own buffer (the rank id is
/// bound per thread, by `simmpi::Runtime::run` on every switch to a rank's
/// fiber, or explicitly via `bind_trace_rank`), so recording needs no
/// locks. Export runs after the writers have finished.
///
/// Event names and categories must be string literals (or otherwise outlive
/// the recorder): the ring buffer stores the pointers, not copies.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace hetero::obs {

struct TraceEvent {
  const char* name = "";
  const char* category = "";
  /// Chrome phase: 'X' = complete span, 'i' = instant.
  char phase = 'X';
  int rank = 0;
  /// Virtual-clock timestamp and duration, in seconds.
  double ts_s = 0.0;
  double dur_s = 0.0;
  /// Optional numeric argument (bytes moved, iteration count, dollars...);
  /// recorded when arg_name != nullptr.
  const char* arg_name = nullptr;
  double arg = 0.0;
};

class TraceRecorder {
 public:
  /// `ranks` rows; each keeps the most recent `capacity_per_rank` events.
  explicit TraceRecorder(int ranks, std::size_t capacity_per_rank = 65536);

  int ranks() const { return static_cast<int>(buffers_.size()); }

  /// A finished span [t0, t1] on `rank`'s row.
  void complete(int rank, const char* name, const char* category, double t0_s,
                double t1_s, const char* arg_name = nullptr, double arg = 0.0);

  /// A zero-duration marker on `rank`'s row.
  void instant(int rank, const char* name, const char* category, double ts_s,
               const char* arg_name = nullptr, double arg = 0.0);

  /// Events recorded on `rank` (oldest first); ring overwrites drop the
  /// oldest. Reader-side only — do not call while ranks record.
  std::vector<TraceEvent> events(int rank) const;

  /// All ranks merged, sorted by (ts, rank). Stable across runs because the
  /// virtual clocks are deterministic.
  std::vector<TraceEvent> merged() const;

  /// Events ever recorded on `rank` (including overwritten ones).
  std::uint64_t recorded(int rank) const;
  /// Events lost to ring overwrite on `rank`.
  std::uint64_t dropped(int rank) const;

  /// Chrome trace_event document: {"traceEvents": [...], ...} with one
  /// thread (tid = rank) per rank under pid 0 and thread_name metadata.
  Json chrome_json() const;

  /// Serializes chrome_json() to `path`; throws hetero::Error on I/O error.
  void write_chrome_json(const std::string& path) const;

 private:
  struct RankBuffer {
    std::vector<TraceEvent> ring;
    std::uint64_t recorded = 0;
  };

  void record(int rank, const TraceEvent& event);

  std::vector<RankBuffer> buffers_;
  std::size_t capacity_;
};

namespace detail {
/// The process-global recorder; nullptr = tracing off.
inline std::atomic<TraceRecorder*> g_trace{nullptr};
/// Rank bound to the calling thread (the row it records on).
inline thread_local int t_trace_rank = 0;
}  // namespace detail

/// Installs (or, with nullptr, removes) the process-global recorder.
/// The recorder must outlive recording; not owned.
inline void set_current_trace(TraceRecorder* recorder) {
  detail::g_trace.store(recorder, std::memory_order_release);
}

/// The installed recorder, or nullptr when tracing is off.
inline TraceRecorder* current_trace() {
  return detail::g_trace.load(std::memory_order_acquire);
}

/// Binds the calling thread to a rank row. simmpi::Runtime::run does this
/// whenever a host thread switches to a rank's fiber, and gives the caller
/// its row back when it returns; host-side code records on the default
/// row 0.
inline void bind_trace_rank(int rank) { detail::t_trace_rank = rank; }
inline int bound_trace_rank() { return detail::t_trace_rank; }

/// Convenience: record an instant event for the bound rank, if tracing.
inline void trace_instant(const char* name, const char* category, double ts_s,
                          const char* arg_name = nullptr, double arg = 0.0) {
  if (TraceRecorder* t = current_trace()) {
    t->instant(bound_trace_rank(), name, category, ts_s, arg_name, arg);
  }
}

/// RAII span over any clock-like object exposing `double now()` returning
/// virtual seconds (simmpi::Comm does). Usage:
///   obs::ScopedSpan span(comm, "assemble", "app");
template <class TimeSource>
class ScopedSpan {
 public:
  ScopedSpan(TimeSource& time_source, const char* name, const char* category)
      : time_source_(&time_source), name_(name), category_(category) {
    if (current_trace() != nullptr) {
      begin_s_ = time_source_->now();
      active_ = true;
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a numeric argument reported with the span.
  void set_arg(const char* arg_name, double value) {
    arg_name_ = arg_name;
    arg_ = value;
  }

  ~ScopedSpan() {
    if (!active_) {
      return;
    }
    if (TraceRecorder* t = current_trace()) {
      t->complete(bound_trace_rank(), name_, category_, begin_s_,
                  time_source_->now(), arg_name_, arg_);
    }
  }

 private:
  TimeSource* time_source_;
  const char* name_;
  const char* category_;
  const char* arg_name_ = nullptr;
  double arg_ = 0.0;
  double begin_s_ = 0.0;
  bool active_ = false;
};

}  // namespace hetero::obs

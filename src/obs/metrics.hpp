#pragma once

/// \file metrics.hpp
/// Named counters / gauges / histograms with JSON export.
///
/// Hot-path writes (halo bytes, solver iterations, message counts) happen on
/// every simmpi rank concurrently, so counters and histograms shard their
/// state across cache-line-padded slots: each thread picks a shard once
/// (round-robin at first use) and updates it with relaxed atomics — no
/// contention, no locks, and direct-mode timings are not perturbed. Reads
/// aggregate over shards and are not meant for hot paths. Recording is
/// always on.
///
/// Registry lookups take a mutex; instrument hot loops by hoisting the
/// `Counter&` out of the loop, as the references are stable for the
/// registry's lifetime.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace hetero::obs {

namespace detail {

constexpr std::size_t kShards = 16;

/// One cache line per shard so host threads never false-share.
struct alignas(64) Shard {
  std::atomic<double> value{0.0};
};

struct alignas(64) HistogramShard {
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{0.0};
  std::atomic<double> max{0.0};
};

/// Round-robin shard assignment, decided once per thread.
std::size_t this_thread_shard();

/// Atomic max/min via CAS (atomic<double> has no fetch_max).
void atomic_update_min(std::atomic<double>& slot, double value);
void atomic_update_max(std::atomic<double>& slot, double value);

}  // namespace detail

/// Monotonically increasing sum (bytes, iterations, dollars, seconds).
class Counter {
 public:
  void add(double delta) {
    shards_[detail::this_thread_shard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void increment() { add(1.0); }

  double value() const;
  void reset();

 private:
  detail::Shard shards_[detail::kShards];
};

/// Last-written value (assembly sizes, current prices).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Streaming count/sum/min/max/mean of observed samples.
class Histogram {
 public:
  void observe(double value) {
    auto& shard = shards_[detail::this_thread_shard()];
    if (shard.count.fetch_add(1, std::memory_order_relaxed) == 0) {
      // First sample in this shard seeds min/max.
      shard.min.store(value, std::memory_order_relaxed);
      shard.max.store(value, std::memory_order_relaxed);
    } else {
      detail::atomic_update_min(shard.min, value);
      detail::atomic_update_max(shard.max, value);
    }
    shard.sum.fetch_add(value, std::memory_order_relaxed);
  }

  std::uint64_t count() const;
  double sum() const;
  double min() const;
  double max() const;
  /// 0 when empty.
  double mean() const;
  void reset();

 private:
  detail::HistogramShard shards_[detail::kShards];
};

/// Name -> metric registry. Metric references remain valid for the
/// registry's lifetime; reset() zeroes values without invalidating them.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Zeroes every registered metric (references stay valid).
  void reset();

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  /// min, max, mean}}}, keys sorted by registration order.
  Json to_json() const;

  /// Serializes to_json() to `path`; throws hetero::Error on I/O failure.
  void write_json(const std::string& path) const;

 private:
  template <class T>
  struct Named {
    std::string name;
    std::unique_ptr<T> metric;
  };
  template <class T>
  static T& find_or_create(std::vector<Named<T>>& list,
                           const std::string& name);

  mutable std::mutex mutex_;
  std::vector<Named<Counter>> counters_;
  std::vector<Named<Gauge>> gauges_;
  std::vector<Named<Histogram>> histograms_;
};

/// The process-global registry used by the built-in instrumentation.
MetricsRegistry& metrics();

}  // namespace hetero::obs

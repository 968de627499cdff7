#include "core/campaign_engine.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/byte_codec.hpp"
#include "support/error.hpp"

namespace hetero::core {

int resolve_jobs(int requested) {
  if (requested > 0) {
    return requested;
  }
  if (const char* env = std::getenv("HETEROLAB_JOBS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != nullptr && end != env && *end == '\0' && v > 0) {
      return static_cast<int>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::string experiment_cache_key(const Experiment& e,
                                 std::uint64_t runner_seed) {
  std::string key;
  key.reserve(512);
  visit_fields(e, [&key](const auto& field) {
    support::append_key_field(key, field);
  });
  support::append_key_field(key, runner_seed);
  return key;
}

/// Persistent workers that claim the indices of the current range from one
/// shared counter. One range holds the pool at a time; a caller that finds
/// it held, a nested call included, gets `false` back and runs its range
/// inline instead of waiting.
class CampaignEngine::Pool {
 public:
  Pool(int workers, obs::Gauge& queue_depth) : queue_depth_(queue_depth) {
    for (int i = 0; i < workers; ++i) {
      threads_.emplace_back(
          [this](const std::stop_token& stop) { worker_main(stop); });
    }
  }

  /// Runs body(i) for every i in [0, n) on the workers and the calling
  /// thread, then rethrows the failure with the lowest index. Returns
  /// false, having run nothing, while another range holds the pool.
  bool try_run(std::size_t n, const std::function<void(std::size_t)>& body) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (body_ != nullptr) {
        return false;
      }
      body_ = &body;
      n_ = n;
      next_ = 0;
      error_ = nullptr;
      error_index_ = n;
      ++generation_;
    }
    queue_depth_.set(static_cast<double>(n));
    wake_cv_.notify_all();
    // The submitting thread works too: pool width `jobs` means `jobs`
    // executors, not jobs + 1.
    drain();
    std::exception_ptr error;
    {
      // Every index is claimed; wait for the workers still running theirs.
      // Workers join only while body_ is set, so none is left in drain().
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [&] { return draining_ == 0; });
      body_ = nullptr;
      error = error_;
    }
    queue_depth_.set(0.0);
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
    return true;
  }

 private:
  /// Claims and runs indices until the counter passes the end of the range.
  void drain() {
    for (std::size_t i = next_++; i < n_; i = next_++) {
      queue_depth_.set(static_cast<double>(n_ - i - 1));
      try {
        (*body_)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (i < error_index_) {
          error_index_ = i;
          error_ = std::current_exception();
        }
      }
    }
  }

  void worker_main(const std::stop_token& stop) {
    for (std::uint64_t seen = 0;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!wake_cv_.wait(lock, stop, [&] {
              return body_ != nullptr && generation_ != seen;
            })) {
          return;  // the pool is being destroyed
        }
        seen = generation_;
        ++draining_;
      }
      drain();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --draining_;
      }
      done_cv_.notify_all();
    }
  }

  obs::Gauge& queue_depth_;
  // The current range; written under mutex_ while no worker drains.
  std::mutex mutex_;
  std::condition_variable_any wake_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t n_ = 0;
  std::atomic<std::size_t> next_{0};
  std::uint64_t generation_ = 0;
  int draining_ = 0;  // workers inside drain()
  std::exception_ptr error_;
  std::size_t error_index_ = 0;
  // Last member, so destruction stops and joins the workers first.
  std::vector<std::jthread> threads_;
};

struct CampaignEngine::Impl {
  explicit Impl(std::uint64_t seed)
      : runner(seed),
        cache_hit_count(obs::metrics().counter("engine.cache_hits")),
        cache_miss_count(obs::metrics().counter("engine.cache_misses")),
        jobs_completed(obs::metrics().counter("engine.jobs_completed")),
        queue_depth(obs::metrics().gauge("engine.queue_depth")),
        job_latency(obs::metrics().histogram("engine.job_latency_s")) {}

  ExperimentRunner runner;

  // Memoization: key -> entry; the first submitter computes, later ones
  // wait on the entry's condition variable (in-flight deduplication).
  struct CacheEntry {
    std::mutex mutex;
    std::condition_variable cv;
    bool ready = false;
    std::exception_ptr error;
    ExperimentResult result;
  };
  std::mutex cache_mutex;
  std::unordered_map<std::string, std::shared_ptr<CacheEntry>> cache;

  // Thread budget (in-flight simulated threads, not jobs).
  std::mutex budget_mutex;
  std::condition_variable budget_cv;
  int inflight_threads = 0;
  int peak_inflight = 0;

  // Lazily built pool (never built when jobs == 1).
  std::once_flag pool_once;
  std::unique_ptr<Pool> pool;

  // Engine counters (stats() snapshot).
  std::atomic<std::uint64_t> jobs_run{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> store_hits{0};
  std::atomic<std::uint64_t> batches{0};

  // Hoisted obs metrics (registry references are stable).
  obs::Counter& cache_hit_count;
  obs::Counter& cache_miss_count;
  obs::Counter& jobs_completed;
  obs::Gauge& queue_depth;
  obs::Histogram& job_latency;
};

CampaignEngine::CampaignEngine(std::uint64_t seed,
                               CampaignEngineOptions options)
    : seed_(seed), options_(options) {
  jobs_ = resolve_jobs(options_.jobs);
  const unsigned hw = std::thread::hardware_concurrency();
  budget_ = std::max(jobs_, hw == 0 ? 1 : static_cast<int>(hw));
  impl_ = std::make_unique<Impl>(seed_);
}

CampaignEngine::~CampaignEngine() = default;

int CampaignEngine::experiment_weight(const Experiment& e) const {
  // Trace/metrics output installs process-global observers, so those runs
  // take the whole budget and execute alone.
  if (writes_output_files(e)) {
    return budget_;
  }
  return e.mode == Mode::kDirect ? std::max(1, e.ranks) : 1;
}

ExperimentResult CampaignEngine::execute_uncached(const Experiment& e) {
  const int weight = experiment_weight(e);
  {
    std::unique_lock<std::mutex> lock(impl_->budget_mutex);
    // A job heavier than the whole budget is admitted only on an idle
    // engine (and then blocks everything else until it finishes).
    impl_->budget_cv.wait(lock, [&] {
      return impl_->inflight_threads == 0 ||
             impl_->inflight_threads + weight <= budget_;
    });
    impl_->inflight_threads += weight;
    impl_->peak_inflight =
        std::max(impl_->peak_inflight, impl_->inflight_threads);
  }
  const auto started = std::chrono::steady_clock::now();
  ExperimentResult result;
  std::exception_ptr error;
  try {
    result = impl_->runner.run(e);
  } catch (...) {
    error = std::current_exception();
  }
  const double latency_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  {
    std::lock_guard<std::mutex> lock(impl_->budget_mutex);
    impl_->inflight_threads -= weight;
  }
  impl_->budget_cv.notify_all();
  impl_->jobs_run.fetch_add(1, std::memory_order_relaxed);
  impl_->jobs_completed.increment();
  impl_->job_latency.observe(latency_s);
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
  return result;
}

std::vector<ExperimentResult> CampaignEngine::evaluate(
    std::span<const Experiment> batch) {
  // One slot per index: its cache entry (null for an output-file run, which
  // is never cached), whether this call owns the entry, and its error.
  struct Slot {
    std::shared_ptr<Impl::CacheEntry> entry;
    bool owner = false;
    std::string key;
    std::exception_ptr error;
  };
  const std::size_t n = batch.size();
  std::vector<ExperimentResult> results(n);
  std::vector<Slot> slots(n);
  std::vector<std::size_t> local;   // computed in this process
  std::vector<std::size_t> remote;  // owned misses for the executor
  ExperimentResultStore* store = options_.result_store;

  // Runs `step`, recording what it throws as index i's error.
  const auto guarded = [&](std::size_t i, const auto& step) {
    try {
      step();
    } catch (...) {
      slots[i].error = std::current_exception();
    }
  };
  // Settles an owner: saves it if it was computed and succeeded, then
  // publishes it with its error.
  const auto settle = [&](std::size_t i, bool computed) {
    Slot& slot = slots[i];
    if (computed && slot.error == nullptr && store != nullptr) {
      guarded(i, [&] { store->save(slot.key, results[i]); });
    }
    Impl::CacheEntry& entry = *slot.entry;
    {
      std::lock_guard<std::mutex> lock(entry.mutex);
      entry.result = results[i];
      entry.error = slot.error;
      entry.ready = true;
    }
    entry.cv.notify_all();
  };

  // Claim: the first submitter of a key owns its entry (a miss), later
  // ones wait on it (a hit). An owner the result store answers computes
  // nothing. Output files must appear, so those runs always compute here.
  for (std::size_t i = 0; i < n; ++i) {
    Slot& slot = slots[i];
    if (writes_output_files(batch[i])) {
      local.push_back(i);
      continue;
    }
    slot.key = experiment_cache_key(batch[i], seed_);
    {
      std::lock_guard<std::mutex> lock(impl_->cache_mutex);
      const auto [it, inserted] = impl_->cache.try_emplace(slot.key);
      if (inserted) {
        it->second = std::make_shared<Impl::CacheEntry>();
      }
      slot.entry = it->second;
      slot.owner = inserted;
    }
    if (!slot.owner) {
      impl_->cache_hits.fetch_add(1, std::memory_order_relaxed);
      impl_->cache_hit_count.increment();
      continue;
    }
    impl_->cache_misses.fetch_add(1, std::memory_order_relaxed);
    impl_->cache_miss_count.increment();
    bool stored = false;
    guarded(i, [&] {
      stored = store != nullptr && store->load(slot.key, results[i]);
    });
    if (stored) {
      impl_->store_hits.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter("engine.store_hits").increment();
    }
    if (stored || slot.error != nullptr) {
      settle(i, false);
    } else {
      (options_.executor != nullptr ? remote : local).push_back(i);
    }
  }

  // Compute, settling each owner as soon as it is done and before this
  // call waits on any entry. The executor call is the only fork between
  // the backends.
  if (!remote.empty()) {
    std::vector<Experiment> dispatch;
    dispatch.reserve(remote.size());
    for (const std::size_t i : remote) {
      dispatch.push_back(batch[i]);
    }
    std::vector<ExecOutcome> outcomes;
    guarded(remote[0], [&] {
      outcomes = options_.executor->execute(dispatch);
      HETERO_CHECK(outcomes.size() == dispatch.size());
    });
    for (std::size_t d = 0; d < remote.size(); ++d) {
      const std::size_t i = remote[d];
      if (outcomes.size() != remote.size()) {
        slots[i].error = slots[remote[0]].error;  // the executor threw
      } else {
        impl_->jobs_run.fetch_add(1, std::memory_order_relaxed);
        impl_->jobs_completed.increment();
        if (outcomes[d].failed) {
          slots[i].error = std::make_exception_ptr(Error(outcomes[d].error));
        } else {
          results[i] = std::move(outcomes[d].result);
        }
      }
      settle(i, true);
    }
  }
  if (!local.empty()) {
    fan_out(local.size(), [&](std::size_t k) {
      const std::size_t i = local[k];
      guarded(i, [&] { results[i] = execute_uncached(batch[i]); });
      if (slots[i].entry != nullptr) {
        settle(i, true);
      }
    });
  }

  // Wait on the entries other submitters own, then rethrow the failure
  // with the lowest index.
  for (std::size_t i = 0; i < n; ++i) {
    Slot& slot = slots[i];
    if (slot.entry == nullptr || slot.owner) {
      continue;
    }
    Impl::CacheEntry& entry = *slot.entry;
    std::unique_lock<std::mutex> lock(entry.mutex);
    entry.cv.wait(lock, [&] { return entry.ready; });
    slot.error = entry.error;
    if (slot.error == nullptr) {
      results[i] = entry.result;
    }
  }
  for (const Slot& slot : slots) {
    if (slot.error != nullptr) {
      std::rethrow_exception(slot.error);
    }
  }
  return results;
}

ExperimentResult CampaignEngine::run(const Experiment& e) {
  return std::move(evaluate(std::span<const Experiment>(&e, 1)).front());
}

std::vector<ExperimentResult> CampaignEngine::run_batch(
    const std::vector<Experiment>& batch) {
  impl_->batches.fetch_add(1, std::memory_order_relaxed);
  obs::trace_instant("batch_begin", "engine", 0.0, "tasks",
                     static_cast<double>(batch.size()));
  std::vector<ExperimentResult> results = evaluate(batch);
  obs::trace_instant("batch_end", "engine", 0.0, "tasks",
                     static_cast<double>(batch.size()));
  return results;
}

void CampaignEngine::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  impl_->batches.fetch_add(1, std::memory_order_relaxed);
  obs::trace_instant("batch_begin", "engine", 0.0, "tasks",
                     static_cast<double>(n));
  fan_out(n, body);
  obs::trace_instant("batch_end", "engine", 0.0, "tasks",
                     static_cast<double>(n));
}

void CampaignEngine::fan_out(std::size_t n,
                             const std::function<void(std::size_t)>& body) {
  if (jobs_ > 1 && n > 1) {
    std::call_once(impl_->pool_once, [&] {
      // The submitter participates, so spawn jobs - 1 workers.
      impl_->pool = std::make_unique<Pool>(jobs_ - 1, impl_->queue_depth);
    });
    if (impl_->pool->try_run(n, body)) {
      return;
    }
  }
  // Inline path: the sequential reference (jobs == 1), trivial ranges, and
  // ranges that find the pool held, by another caller or by the range this
  // call is nested in: waiting for it could deadlock.
  for (std::size_t i = 0; i < n; ++i) {
    body(i);
  }
}

CampaignEngineStats CampaignEngine::stats() const {
  CampaignEngineStats out;
  out.jobs_run = impl_->jobs_run.load(std::memory_order_relaxed);
  out.cache_hits = impl_->cache_hits.load(std::memory_order_relaxed);
  out.cache_misses = impl_->cache_misses.load(std::memory_order_relaxed);
  out.store_hits = impl_->store_hits.load(std::memory_order_relaxed);
  out.batches = impl_->batches.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(impl_->budget_mutex);
    out.peak_inflight_threads = impl_->peak_inflight;
  }
  return out;
}

}  // namespace hetero::core

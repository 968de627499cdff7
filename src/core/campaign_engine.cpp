#include "core/campaign_engine.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/byte_codec.hpp"
#include "support/error.hpp"

namespace hetero::core {

namespace {

/// True on threads currently executing a pool task; parallel_for uses it to
/// run nested fan-outs inline instead of deadlocking on its own pool.
thread_local bool t_inside_pool_task = false;

}  // namespace

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

/// Work-stealing pool: one index deque per worker, own-queue FIFO pops,
/// tail steals from the neighbours. Only one batch is in flight at a time
/// (parallel_for serializes callers), so tasks are plain indices into the
/// current batch's body.
class CampaignEngine::Pool {
 public:
  explicit Pool(int workers) : queues_(static_cast<std::size_t>(workers)) {
    for (auto& q : queues_) {
      q = std::make_unique<Queue>();
    }
    threads_.reserve(queues_.size());
    for (std::size_t id = 0; id < queues_.size(); ++id) {
      threads_.emplace_back([this, id] { worker_main(id); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(wake_mutex_);
      shutdown_ = true;
    }
    wake_cv_.notify_all();
    for (auto& t : threads_) {
      t.join();
    }
  }

  /// Distributes [0, n) over the workers, participates in the drain, and
  /// rethrows the failure with the lowest index once everything finished.
  void run(std::size_t n, const std::function<void(std::size_t)>& body,
           obs::Gauge& queue_depth) {
    std::lock_guard<std::mutex> batch_guard(batch_mutex_);
    body_ = &body;
    queue_depth_ = &queue_depth;
    error_ = nullptr;
    error_index_ = std::numeric_limits<std::size_t>::max();
    remaining_.store(n, std::memory_order_relaxed);
    unclaimed_.store(n, std::memory_order_relaxed);
    queue_depth.set(static_cast<double>(n));
    for (std::size_t i = 0; i < n; ++i) {
      Queue& q = *queues_[i % queues_.size()];
      std::lock_guard<std::mutex> lock(q.mutex);
      q.indices.push_back(i);
    }
    {
      // Taking the mutex orders the unclaimed_ store before any sleeping
      // worker's next predicate check, so the notify cannot be lost.
      std::lock_guard<std::mutex> lock(wake_mutex_);
    }
    wake_cv_.notify_all();

    // The submitting thread works too: pool width `jobs` means `jobs`
    // executors, not jobs + 1.
    std::size_t index = 0;
    while (claim(0, index)) {
      execute(index);
    }
    {
      std::unique_lock<std::mutex> lock(done_mutex_);
      done_cv_.wait(lock, [&] {
        return remaining_.load(std::memory_order_acquire) == 0;
      });
    }
    body_ = nullptr;
    queue_depth.set(0.0);
    if (error_ != nullptr) {
      std::rethrow_exception(error_);
    }
  }

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::size_t> indices;
  };

  bool claim(std::size_t home, std::size_t& index) {
    if (unclaimed_.load(std::memory_order_acquire) == 0) {
      return false;
    }
    // Own queue first (front: submission order), then steal tails.
    for (std::size_t attempt = 0; attempt < queues_.size(); ++attempt) {
      Queue& q = *queues_[(home + attempt) % queues_.size()];
      std::lock_guard<std::mutex> lock(q.mutex);
      if (q.indices.empty()) {
        continue;
      }
      if (attempt == 0) {
        index = q.indices.front();
        q.indices.pop_front();
      } else {
        index = q.indices.back();
        q.indices.pop_back();
      }
      const std::size_t left =
          unclaimed_.fetch_sub(1, std::memory_order_acq_rel) - 1;
      if (queue_depth_ != nullptr) {
        queue_depth_->set(static_cast<double>(left));
      }
      return true;
    }
    return false;
  }

  void execute(std::size_t index) {
    const bool was_inside = t_inside_pool_task;
    t_inside_pool_task = true;
    try {
      (*body_)(index);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (index < error_index_) {
        error_index_ = index;
        error_ = std::current_exception();
      }
    }
    t_inside_pool_task = was_inside;
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(done_mutex_);
      done_cv_.notify_all();
    }
  }

  void worker_main(std::size_t id) {
    for (;;) {
      std::size_t index = 0;
      if (claim(id, index)) {
        execute(index);
        continue;
      }
      std::unique_lock<std::mutex> lock(wake_mutex_);
      wake_cv_.wait(lock, [&] {
        return shutdown_ || unclaimed_.load(std::memory_order_acquire) > 0;
      });
      if (shutdown_) {
        return;
      }
    }
  }

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> threads_;

  std::mutex batch_mutex_;  // one batch in flight at a time
  const std::function<void(std::size_t)>* body_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  std::atomic<std::size_t> remaining_{0};
  std::atomic<std::size_t> unclaimed_{0};

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  bool shutdown_ = false;

  std::mutex done_mutex_;
  std::condition_variable done_cv_;

  std::mutex error_mutex_;
  std::exception_ptr error_;
  std::size_t error_index_ = std::numeric_limits<std::size_t>::max();
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
  std::mutex pool_mutex;
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
  const int hw_threads = hw == 0 ? 1 : static_cast<int>(hw);
  budget_ = options_.thread_budget > 0 ? options_.thread_budget
                                       : std::max(jobs_, hw_threads);
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

ExperimentResult CampaignEngine::run(const Experiment& e) {
  // With an executor installed, single runs are one-element batches so the
  // memo/store/dispatch flow stays in one place. Trace/metrics runs are
  // exempt: they must execute in *this* process for the files to appear.
  if (options_.executor != nullptr && !writes_output_files(e)) {
    return run_batch_executor({e})[0];
  }
  // Side-effecting runs (trace/metrics files) are never replayed from the
  // cache: the caller wants the files written.
  if (!options_.memoize || writes_output_files(e)) {
    return execute_uncached(e);
  }
  const std::string key = experiment_cache_key(e, seed_);
  std::shared_ptr<Impl::CacheEntry> entry;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(impl_->cache_mutex);
    auto it = impl_->cache.find(key);
    if (it == impl_->cache.end()) {
      entry = std::make_shared<Impl::CacheEntry>();
      impl_->cache.emplace(key, entry);
      owner = true;
    } else {
      entry = it->second;
    }
  }
  if (owner) {
    impl_->cache_misses.fetch_add(1, std::memory_order_relaxed);
    impl_->cache_miss_count.increment();
    try {
      ExperimentResult result;
      // Second cache level: the persistent store answers across restarts.
      const bool from_store = options_.result_store != nullptr &&
                              options_.result_store->load(key, result);
      if (from_store) {
        impl_->store_hits.fetch_add(1, std::memory_order_relaxed);
        obs::metrics().counter("engine.store_hits").increment();
      } else {
        result = execute_uncached(e);
        if (options_.result_store != nullptr) {
          options_.result_store->save(key, result);
        }
      }
      {
        std::lock_guard<std::mutex> lock(entry->mutex);
        entry->result = result;
        entry->ready = true;
      }
      entry->cv.notify_all();
      return result;
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(entry->mutex);
        entry->error = std::current_exception();
        entry->ready = true;
      }
      entry->cv.notify_all();
      throw;
    }
  }
  impl_->cache_hits.fetch_add(1, std::memory_order_relaxed);
  impl_->cache_hit_count.increment();
  std::unique_lock<std::mutex> lock(entry->mutex);
  entry->cv.wait(lock, [&] { return entry->ready; });
  if (entry->error != nullptr) {
    std::rethrow_exception(entry->error);
  }
  return entry->result;
}

void CampaignEngine::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  impl_->batches.fetch_add(1, std::memory_order_relaxed);
  obs::trace_instant("batch_begin", "engine", 0.0, "tasks",
                     static_cast<double>(n));
  if (n == 0) {
    return;
  }
  // Inline path: sequential reference (jobs == 1), trivial batches, and
  // nested fan-outs from inside a pool task.
  if (jobs_ <= 1 || n == 1 || t_inside_pool_task) {
    for (std::size_t i = 0; i < n; ++i) {
      body(i);
    }
  } else {
    {
      std::lock_guard<std::mutex> lock(impl_->pool_mutex);
      if (impl_->pool == nullptr) {
        // The submitter participates, so spawn jobs - 1 workers.
        impl_->pool = std::make_unique<Pool>(jobs_ - 1);
      }
    }
    impl_->pool->run(n, body, impl_->queue_depth);
  }
  obs::trace_instant("batch_end", "engine", 0.0, "tasks",
                     static_cast<double>(n));
}

std::vector<ExperimentResult> CampaignEngine::run_batch(
    const std::vector<Experiment>& batch) {
  if (options_.executor != nullptr) {
    return run_batch_executor(batch);
  }
  std::vector<ExperimentResult> results(batch.size());
  parallel_for(batch.size(),
               [&](std::size_t i) { results[i] = run(batch[i]); });
  return results;
}

std::vector<ExperimentResult> CampaignEngine::run_batch_executor(
    const std::vector<Experiment>& batch) {
  const std::size_t n = batch.size();
  impl_->batches.fetch_add(1, std::memory_order_relaxed);
  obs::trace_instant("batch_begin", "engine", 0.0, "tasks",
                     static_cast<double>(n));
  std::vector<ExperimentResult> results(n);
  std::vector<std::exception_ptr> errors(n);
  // Memoization happens here, on the supervisor side: only cache misses
  // cross the process boundary, and freshly computed results come back
  // through the same entry/result-store flow as the in-process path.
  std::vector<std::shared_ptr<Impl::CacheEntry>> owned(n);
  std::vector<std::shared_ptr<Impl::CacheEntry>> waiting(n);
  std::vector<std::size_t> inline_indices;
  std::vector<std::size_t> dispatch_indices;
  std::vector<Experiment> dispatch;
  for (std::size_t i = 0; i < n; ++i) {
    const Experiment& e = batch[i];
    if (writes_output_files(e)) {
      // Process-global side effects: run locally, exclusively, afterwards.
      inline_indices.push_back(i);
      continue;
    }
    if (!options_.memoize) {
      dispatch_indices.push_back(i);
      dispatch.push_back(e);
      continue;
    }
    const std::string key = experiment_cache_key(e, seed_);
    std::shared_ptr<Impl::CacheEntry> entry;
    bool owner = false;
    {
      std::lock_guard<std::mutex> lock(impl_->cache_mutex);
      auto it = impl_->cache.find(key);
      if (it == impl_->cache.end()) {
        entry = std::make_shared<Impl::CacheEntry>();
        impl_->cache.emplace(key, entry);
        owner = true;
      } else {
        entry = it->second;
      }
    }
    if (!owner) {
      impl_->cache_hits.fetch_add(1, std::memory_order_relaxed);
      impl_->cache_hit_count.increment();
      waiting[i] = entry;
      continue;
    }
    impl_->cache_misses.fetch_add(1, std::memory_order_relaxed);
    impl_->cache_miss_count.increment();
    ExperimentResult stored;
    if (options_.result_store != nullptr &&
        options_.result_store->load(key, stored)) {
      impl_->store_hits.fetch_add(1, std::memory_order_relaxed);
      obs::metrics().counter("engine.store_hits").increment();
      {
        std::lock_guard<std::mutex> lock(entry->mutex);
        entry->result = stored;
        entry->ready = true;
      }
      entry->cv.notify_all();
      results[i] = std::move(stored);
      continue;
    }
    owned[i] = entry;
    dispatch_indices.push_back(i);
    dispatch.push_back(e);
  }
  if (!dispatch.empty()) {
    const std::vector<ExecOutcome> outcomes =
        options_.executor->execute(dispatch);
    HETERO_CHECK(outcomes.size() == dispatch.size());
    for (std::size_t d = 0; d < dispatch.size(); ++d) {
      const std::size_t i = dispatch_indices[d];
      const ExecOutcome& out = outcomes[d];
      impl_->jobs_run.fetch_add(1, std::memory_order_relaxed);
      impl_->jobs_completed.increment();
      if (out.failed) {
        errors[i] = std::make_exception_ptr(Error(out.error));
      } else {
        results[i] = out.result;
      }
      if (owned[i] != nullptr) {
        if (!out.failed && options_.result_store != nullptr) {
          const std::string key = experiment_cache_key(batch[i], seed_);
          options_.result_store->save(key, out.result);
        }
        {
          std::lock_guard<std::mutex> lock(owned[i]->mutex);
          owned[i]->result = out.result;
          owned[i]->error = errors[i];
          owned[i]->ready = true;
        }
        owned[i]->cv.notify_all();
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (waiting[i] == nullptr) {
      continue;
    }
    std::unique_lock<std::mutex> lock(waiting[i]->mutex);
    waiting[i]->cv.wait(lock, [&] { return waiting[i]->ready; });
    if (waiting[i]->error != nullptr) {
      errors[i] = waiting[i]->error;
    } else {
      results[i] = waiting[i]->result;
    }
  }
  for (const std::size_t i : inline_indices) {
    try {
      results[i] = execute_uncached(batch[i]);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  }
  obs::trace_instant("batch_end", "engine", 0.0, "tasks",
                     static_cast<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i] != nullptr) {
      std::rethrow_exception(errors[i]);
    }
  }
  return results;
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

#include "svc/memo_store.hpp"

#include "obs/metrics.hpp"
#include "support/record_log.hpp"

namespace hetero::svc {

MemoStore::MemoStore(std::string path)
    : path_(std::move(path)),
      log_(std::make_unique<support::RecordLog>(path_)) {
  const support::RecordLogStats recovery =
      log_->recover([this](std::string key, std::string value) {
        index_.insert_or_assign(std::move(key), std::move(value));
      });
  // Concurrent appenders may re-log a key another process already holds;
  // insert_or_assign keeps the last occurrence, so duplicates are harmless.
  stats_.recovered_records = recovery.recovered_records;
  stats_.dropped_bytes = recovery.dropped_bytes;
  if (recovery.dropped_bytes > 0) {
    obs::metrics().counter("svc.memo.dropped_bytes")
        .add(static_cast<double>(recovery.dropped_bytes));
  }
}

MemoStore::~MemoStore() = default;

bool MemoStore::lookup(const std::string& key, std::string* value) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& stats = const_cast<MemoStoreStats&>(stats_);
  ++stats.lookups;
  const auto it = index_.find(key);
  if (it == index_.end()) {
    return false;
  }
  ++stats.hits;
  if (value != nullptr) {
    *value = it->second;
  }
  return true;
}

void MemoStore::append(const std::string& key, std::string value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index_.find(key) != index_.end()) {
    return;
  }
  log_->append(key, value);
  index_.emplace(key, std::move(value));
  ++stats_.appends;
  obs::metrics().counter("svc.memo.appends").increment();
}

std::string MemoStore::fetch_or_compute(
    const std::string& key, const std::function<std::string()>& compute) {
  std::shared_ptr<InFlight> entry;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.lookups;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      ++stats_.hits;
      obs::metrics().counter("svc.memo.hits").increment();
      return it->second;
    }
    const auto in = inflight_.find(key);
    if (in == inflight_.end()) {
      entry = std::make_shared<InFlight>();
      inflight_.emplace(key, entry);
      owner = true;
    } else {
      entry = in->second;
      ++stats_.inflight_joins;
    }
  }
  if (!owner) {
    obs::metrics().counter("svc.memo.inflight_joins").increment();
    std::unique_lock<std::mutex> lock(entry->mutex);
    entry->cv.wait(lock, [&] { return entry->done; });
    if (entry->error != nullptr) {
      std::rethrow_exception(entry->error);
    }
    return entry->value;
  }
  obs::metrics().counter("svc.memo.misses").increment();
  std::string value;
  std::exception_ptr error;
  try {
    value = compute();
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (error == nullptr && index_.find(key) == index_.end()) {
      log_->append(key, value);
      index_.emplace(key, value);
      ++stats_.appends;
      obs::metrics().counter("svc.memo.appends").increment();
    }
    inflight_.erase(key);
  }
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    entry->done = true;
    entry->failed = error != nullptr;
    entry->value = value;
    entry->error = error;
  }
  entry->cv.notify_all();
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
  return value;
}

void MemoStore::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  log_->flush();
}

std::size_t MemoStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

MemoStoreStats MemoStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace hetero::svc

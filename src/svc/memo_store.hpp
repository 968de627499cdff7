#pragma once

/// \file memo_store.hpp
/// Persistent content-addressed memo store — the heart of the advisory
/// service. The campaign engine's in-memory memoization answers repeats
/// within one process; the MemoStore extends that to an append-only on-disk
/// log so repeated sweeps are incremental *across process restarts*: a
/// daemon killed mid-stream warm-starts from the log and re-answers the
/// replayed requests byte-identically without recomputing anything.
///
/// The on-disk format is `support::RecordLog` (shared with the per-worker
/// result shards of `hetero::proc`): a flat sequence of checksummed records
///
///   [magic u32][key_len u32][value_len u32][checksum u64][key][value]
///
/// (little-endian, checksum over key+value bytes). Crash safety comes from
/// *recovery*, not from per-record fsync: open() replays the log and, on the
/// first damaged record — a torn tail from a kill, a flipped byte — drops
/// that record and everything after it (ftruncate), keeping every intact
/// record before it in service. Writers append whole records under an
/// advisory flock on an O_APPEND fd, so several *processes* sharing one
/// store file each land whole records; the file is fsynced on flush() and
/// close.
///
/// Keys are opaque content addresses (the engine's full descriptor+seed
/// cache key, or the service's request descriptor hash); values are opaque
/// bytes. fetch_or_compute() adds in-flight deduplication across concurrent
/// clients: the first caller of a missing key computes, later callers block
/// on the entry instead of recomputing.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace hetero::support {
class RecordLog;
}  // namespace hetero::support

namespace hetero::svc {

struct MemoStoreStats {
  /// Intact records replayed from the log at open.
  std::uint64_t recovered_records = 0;
  /// Bytes of damaged suffix truncated off the log at open.
  std::uint64_t dropped_bytes = 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  /// Records appended (new keys committed to the log / index).
  std::uint64_t appends = 0;
  /// fetch_or_compute callers that joined another caller's in-flight
  /// computation instead of starting their own.
  std::uint64_t inflight_joins = 0;
};

class MemoStore {
 public:
  /// Opens (creating if absent) the log at `path` and replays every intact
  /// record into the in-memory index; a damaged suffix is truncated off.
  /// An empty path makes a purely in-memory store (no persistence).
  explicit MemoStore(std::string path);
  /// Flushes and fsyncs the log.
  ~MemoStore();

  MemoStore(const MemoStore&) = delete;
  MemoStore& operator=(const MemoStore&) = delete;

  /// True and fills *value when `key` is present. Thread-safe.
  bool lookup(const std::string& key, std::string* value) const;

  /// Commits (key, value) to the index and appends it to the log. A key
  /// that is already present is left untouched (the log stays
  /// content-addressed: one record per key). Thread-safe.
  void append(const std::string& key, std::string value);

  /// lookup() or compute-once: the first caller of a missing key runs
  /// `compute` (without holding any store lock) and commits the result;
  /// concurrent callers of the same key block until it is ready and share
  /// the value. A compute that throws releases the key so a later caller
  /// can retry; the waiting callers see the exception.
  std::string fetch_or_compute(const std::string& key,
                               const std::function<std::string()>& compute);

  /// Flushes buffered appends to disk and fsyncs. No-op in-memory.
  void flush();

  /// Committed entries (recovered + appended).
  std::size_t size() const;
  MemoStoreStats stats() const;
  const std::string& path() const { return path_; }

 private:
  struct InFlight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;       // computation finished (value or error)
    bool failed = false;     // compute threw; key released for retry
    std::string value;
    std::exception_ptr error;
  };

  std::string path_;
  std::unique_ptr<support::RecordLog> log_;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::string> index_;
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_;

  MemoStoreStats stats_;
};

}  // namespace hetero::svc

#include "support/record_log.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "support/byte_codec.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/io_util.hpp"

namespace hetero::support {

namespace {

constexpr std::uint32_t kMagic = 0x484D5331;  // "HMS1"
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 8;

std::uint64_t checksum_bytes(std::uint64_t h, const std::string& bytes) {
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t chunk = 0;
    std::memcpy(&chunk, bytes.data() + i, 8);
    h = hash_combine(h, chunk);
  }
  std::uint64_t tail = 0;
  for (std::size_t j = i; j < bytes.size(); ++j) {
    tail = (tail << 8) | static_cast<unsigned char>(bytes[j]);
  }
  return hash_combine(h, tail);
}

/// flock(2) with EINTR retry; LOCK_UN never blocks.
void flock_retry(int fd, int op) {
  while (::flock(fd, op) != 0) {
    HETERO_REQUIRE(errno == EINTR, "RecordLog: flock failed");
  }
}

struct ScopedFlock {
  int fd;
  explicit ScopedFlock(int fd_in) : fd(fd_in) { flock_retry(fd, LOCK_EX); }
  ~ScopedFlock() { ::flock(fd, LOCK_UN); }
};

}  // namespace

std::uint64_t record_checksum(const std::string& key,
                              const std::string& value) {
  std::uint64_t h = hash_combine(key.size(), value.size());
  h = checksum_bytes(h, key);
  return checksum_bytes(h, value);
}

RecordLog::RecordLog(std::string path) : path_(std::move(path)) {
  if (path_.empty()) {
    return;
  }
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  HETERO_REQUIRE(fd_ >= 0, "RecordLog: cannot open log file: " + path_);
}

RecordLog::~RecordLog() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

RecordLogStats RecordLog::recover(
    const std::function<void(std::string key, std::string value)>& sink) {
  RecordLogStats stats;
  if (fd_ < 0) {
    return stats;
  }
  ScopedFlock lock(fd_);
  HETERO_REQUIRE(::lseek(fd_, 0, SEEK_SET) == 0,
                 "RecordLog: cannot seek log file: " + path_);
  std::string data;
  {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) {
        continue;
      }
      HETERO_REQUIRE(n >= 0, "RecordLog: cannot read log file: " + path_);
      if (n == 0) {
        break;
      }
      data.append(buf, static_cast<std::size_t>(n));
    }
  }
  std::size_t good = 0;
  while (good + kHeaderBytes <= data.size()) {
    const char* p = data.data() + good;
    if (get_u32(p) != kMagic) {
      break;
    }
    const std::uint32_t key_len = get_u32(p + 4);
    const std::uint32_t value_len = get_u32(p + 8);
    const std::uint64_t checksum = get_u64(p + 12);
    const std::size_t total =
        kHeaderBytes + static_cast<std::size_t>(key_len) + value_len;
    if (good + total > data.size()) {
      break;  // torn tail: the record was cut off mid-write
    }
    std::string key(data, good + kHeaderBytes, key_len);
    std::string value(data, good + kHeaderBytes + key_len, value_len);
    if (record_checksum(key, value) != checksum) {
      break;  // flipped bytes anywhere in the record
    }
    sink(std::move(key), std::move(value));
    good += total;
    ++stats.recovered_records;
  }
  if (good < data.size()) {
    stats.dropped_bytes = data.size() - good;
    HETERO_REQUIRE(::ftruncate(fd_, static_cast<off_t>(good)) == 0,
                   "RecordLog: cannot truncate damaged log tail: " + path_);
  }
  return stats;
}

void RecordLog::append(const std::string& key, const std::string& value) {
  if (fd_ < 0) {
    return;
  }
  std::string record;
  record.reserve(kHeaderBytes + key.size() + value.size());
  put_u32(record, kMagic);
  put_u32(record, static_cast<std::uint32_t>(key.size()));
  put_u32(record, static_cast<std::uint32_t>(value.size()));
  put_u64(record, record_checksum(key, value));
  record += key;
  record += value;
  ScopedFlock lock(fd_);
  HETERO_REQUIRE(write_all(fd_, record.data(), record.size()),
                 "RecordLog: cannot append to log file: " + path_);
}

void RecordLog::flush() {
  if (fd_ >= 0) {
    HETERO_REQUIRE(::fsync(fd_) == 0,
                   "RecordLog: cannot fsync log file: " + path_);
  }
}

}  // namespace hetero::support

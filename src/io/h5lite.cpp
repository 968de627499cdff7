#include "io/h5lite.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "support/error.hpp"
#include "support/io_util.hpp"

namespace hetero::io {

namespace {
constexpr std::uint64_t kMagic = 0x48354C4954453031ULL;  // "H5LITE01"

void write_all(int fd, const void* data, std::size_t bytes) {
  HETERO_REQUIRE(support::write_all(fd, data, bytes), "h5lite: write failed");
}

void read_all(int fd, void* data, std::size_t bytes) {
  HETERO_REQUIRE(support::read_full(fd, data, bytes) ==
                     static_cast<ssize_t>(bytes),
                 "h5lite: short read (corrupt file?)");
}
}  // namespace

std::uint64_t DatasetInfo::element_count() const {
  if (std::find(shape.begin(), shape.end(), std::uint64_t{0}) !=
      shape.end()) {
    return 0;
  }
  std::uint64_t n = 1;
  for (std::uint64_t d : shape) {
    HETERO_REQUIRE(!__builtin_mul_overflow(n, d, &n),
                   "h5lite: dataset shape has 2^64 elements or more");
  }
  return n;
}

H5LiteWriter::H5LiteWriter(const std::string& path)
    : path_(path), tmp_path_(path + ".tmp") {
  fd_ = ::open(tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  HETERO_REQUIRE(fd_ >= 0, "h5lite: cannot create " + tmp_path_);
  write_all(fd_, &kMagic, sizeof(kMagic));
  cursor_ = sizeof(kMagic);
}

H5LiteWriter::~H5LiteWriter() {
  if (!closed_) {
    try {
      close();
    } catch (...) {
      // Destructor must not throw; the previous file at path_ (if any)
      // stays in place and the abandoned .tmp is removed below.
    }
  }
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(tmp_path_.c_str());
  }
}

void H5LiteWriter::write_raw(const std::string& name, DType dtype,
                             const std::vector<std::uint64_t>& shape,
                             const void* data, std::size_t bytes) {
  HETERO_REQUIRE(!closed_, "h5lite: writer already closed");
  HETERO_REQUIRE(!name.empty(), "h5lite: dataset name must not be empty");
  HETERO_REQUIRE(toc_.find(name) == toc_.end(),
                 "h5lite: duplicate dataset name: " + name);
  Entry entry;
  entry.info.dtype = dtype;
  entry.info.shape = shape;
  HETERO_REQUIRE(entry.info.element_count() == bytes / 8,
                 "h5lite: shape does not match data size for " + name);
  entry.offset = cursor_;
  write_all(fd_, data, bytes);
  cursor_ += bytes;
  toc_.emplace(name, entry);
}

void H5LiteWriter::write_doubles(const std::string& name,
                                 const std::vector<std::uint64_t>& shape,
                                 const std::vector<double>& data) {
  write_raw(name, DType::kFloat64, shape, data.data(), data.size() * 8);
}

void H5LiteWriter::write_ints(const std::string& name,
                              const std::vector<std::uint64_t>& shape,
                              const std::vector<std::int64_t>& data) {
  write_raw(name, DType::kInt64, shape, data.data(), data.size() * 8);
}

void H5LiteWriter::close() {
  if (closed_) {
    return;
  }
  // TOC layout: per entry {u32 name_len, name bytes, u32 dtype, u32 ndims,
  // u64 dims..., u64 offset}; footer {u64 toc_offset, u64 count, magic}.
  const std::uint64_t toc_offset = cursor_;
  for (const auto& [name, entry] : toc_) {
    const auto name_len = static_cast<std::uint32_t>(name.size());
    write_all(fd_, &name_len, sizeof(name_len));
    write_all(fd_, name.data(), name.size());
    const auto dtype = static_cast<std::uint32_t>(entry.info.dtype);
    write_all(fd_, &dtype, sizeof(dtype));
    const auto ndims = static_cast<std::uint32_t>(entry.info.shape.size());
    write_all(fd_, &ndims, sizeof(ndims));
    for (std::uint64_t d : entry.info.shape) {
      write_all(fd_, &d, sizeof(d));
    }
    write_all(fd_, &entry.offset, sizeof(entry.offset));
  }
  const std::uint64_t count = toc_.size();
  write_all(fd_, &toc_offset, sizeof(toc_offset));
  write_all(fd_, &count, sizeof(count));
  write_all(fd_, &kMagic, sizeof(kMagic));
  // Durability point: the complete file must be on disk before the rename
  // publishes it, otherwise a crash could expose a truncated "finished"
  // checkpoint. rename(2) within a directory is atomic, so readers see
  // either the old file or the new one, never a partial write.
  HETERO_REQUIRE(::fsync(fd_) == 0, "h5lite: fsync failed for " + tmp_path_);
  ::close(fd_);
  fd_ = -1;
  HETERO_REQUIRE(std::rename(tmp_path_.c_str(), path_.c_str()) == 0,
                 "h5lite: cannot rename " + tmp_path_ + " into place");
  closed_ = true;
}

H5LiteReader::H5LiteReader(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  HETERO_REQUIRE(fd_ >= 0, "h5lite: cannot open " + path);
  // Size check comes first so an empty or truncated file is reported as
  // such, not as a short read halfway through parsing. The minimum valid
  // file is the leading magic plus the 24-byte footer.
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  file_size_ = static_cast<std::uint64_t>(size);
  HETERO_REQUIRE(size >= static_cast<off_t>(4 * sizeof(std::uint64_t)),
                 "h5lite: file truncated: " + path);
  std::uint64_t magic = 0;
  read_at(0, &magic, sizeof(magic));
  HETERO_REQUIRE(magic == kMagic, "h5lite: bad magic in " + path);
  std::uint64_t footer[3];
  read_at(file_size_ - sizeof(footer), footer, sizeof(footer));
  HETERO_REQUIRE(footer[2] == kMagic,
                 "h5lite: missing footer (file not closed?): " + path);
  const std::uint64_t toc_offset = footer[0];
  const std::uint64_t count = footer[1];
  HETERO_REQUIRE(
      toc_offset >= sizeof(kMagic) && toc_offset <= file_size_ - sizeof(footer),
      "h5lite: corrupt TOC offset in " + path);
  ::lseek(fd_, static_cast<off_t>(toc_offset), SEEK_SET);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint32_t name_len = 0;
    read_all(fd_, &name_len, sizeof(name_len));
    HETERO_REQUIRE(name_len > 0 && name_len <= file_size_,
                   "h5lite: corrupt TOC entry in " + path);
    std::string name(name_len, '\0');
    read_all(fd_, name.data(), name_len);
    std::uint32_t dtype = 0;
    std::uint32_t ndims = 0;
    read_all(fd_, &dtype, sizeof(dtype));
    read_all(fd_, &ndims, sizeof(ndims));
    HETERO_REQUIRE(dtype == static_cast<std::uint32_t>(DType::kFloat64) ||
                       dtype == static_cast<std::uint32_t>(DType::kInt64),
                   "h5lite: unknown dtype in " + path);
    HETERO_REQUIRE(ndims <= 32, "h5lite: corrupt TOC entry in " + path);
    Entry entry;
    entry.info.dtype = static_cast<DType>(dtype);
    entry.info.shape.resize(ndims);
    for (auto& d : entry.info.shape) {
      read_all(fd_, &d, sizeof(d));
    }
    read_all(fd_, &entry.offset, sizeof(entry.offset));
    // The payload must fit between the header and the TOC.
    const std::uint64_t elements = entry.info.element_count();
    HETERO_REQUIRE(entry.offset >= sizeof(kMagic) &&
                       elements <= toc_offset / 8 &&
                       entry.offset <= toc_offset - elements * 8,
                   "h5lite: dataset extends past the TOC in " + path);
    toc_.emplace(std::move(name), entry);
  }
}

H5LiteReader::~H5LiteReader() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

bool H5LiteReader::has(const std::string& name) const {
  return toc_.find(name) != toc_.end();
}

std::vector<std::string> H5LiteReader::names() const {
  std::vector<std::string> out;
  out.reserve(toc_.size());
  for (const auto& [name, entry] : toc_) {
    out.push_back(name);
  }
  return out;
}

const H5LiteReader::Entry& H5LiteReader::entry(
    const std::string& name) const {
  const auto it = toc_.find(name);
  HETERO_REQUIRE(it != toc_.end(), "h5lite: no dataset named " + name);
  return it->second;
}

DatasetInfo H5LiteReader::info(const std::string& name) const {
  return entry(name).info;
}

void H5LiteReader::read_at(std::uint64_t offset, void* out,
                           std::size_t bytes) const {
  ::lseek(fd_, static_cast<off_t>(offset), SEEK_SET);
  read_all(fd_, out, bytes);
}

std::vector<double> H5LiteReader::read_doubles(const std::string& name) const {
  const Entry& e = entry(name);
  HETERO_REQUIRE(e.info.dtype == DType::kFloat64,
                 "h5lite: dataset is not float64: " + name);
  std::vector<double> out(e.info.element_count());
  read_at(e.offset, out.data(), out.size() * 8);
  return out;
}

std::vector<std::int64_t> H5LiteReader::read_ints(
    const std::string& name) const {
  const Entry& e = entry(name);
  HETERO_REQUIRE(e.info.dtype == DType::kInt64,
                 "h5lite: dataset is not int64: " + name);
  std::vector<std::int64_t> out(e.info.element_count());
  read_at(e.offset, out.data(), out.size() * 8);
  return out;
}

}  // namespace hetero::io

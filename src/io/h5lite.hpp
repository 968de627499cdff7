#pragma once

/// \file h5lite.hpp
/// Minimal hierarchical dataset container — heterolab's stand-in for the
/// HDF5 dependency the paper's stack carries (built with the 1.6 interface
/// for compatibility, as §IV-D notes). One file holds named datasets of
/// doubles or int64s with a shape; the format is a simple self-describing
/// binary layout with a table of contents at the end.
///
/// This is not the real HDF5 format; it reproduces the *capability* the
/// applications need (large array storage + named lookup) without the
/// dependency, per the substitution rules in DESIGN.md.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hetero::io {

/// Dataset element type.
enum class DType : std::uint32_t { kFloat64 = 1, kInt64 = 2 };

struct DatasetInfo {
  DType dtype = DType::kFloat64;
  std::vector<std::uint64_t> shape;

  /// Product of the dims; throws Error when it does not fit in 64 bits.
  std::uint64_t element_count() const;
};

/// Write-mode file: datasets are appended, the table of contents lands at
/// close(). Writing after close, duplicate names, or I/O failures throw.
///
/// Writes are crash-atomic: all bytes go to `path + ".tmp"`, and only
/// close() fsyncs and rename()s the file into place. A crash mid-write
/// (or a writer destroyed without close()) leaves at most an orphaned
/// `.tmp` behind — the previous file at `path`, if any, stays loadable.
class H5LiteWriter {
 public:
  explicit H5LiteWriter(const std::string& path);
  ~H5LiteWriter();

  H5LiteWriter(const H5LiteWriter&) = delete;
  H5LiteWriter& operator=(const H5LiteWriter&) = delete;

  void write_doubles(const std::string& name,
                     const std::vector<std::uint64_t>& shape,
                     const std::vector<double>& data);
  void write_ints(const std::string& name,
                  const std::vector<std::uint64_t>& shape,
                  const std::vector<std::int64_t>& data);

  /// Flushes the table of contents, fsyncs, and renames the temporary
  /// file into place; until then `path` is untouched.
  void close();

 private:
  void write_raw(const std::string& name, DType dtype,
                 const std::vector<std::uint64_t>& shape, const void* data,
                 std::size_t bytes);

  struct Entry {
    DatasetInfo info;
    std::uint64_t offset = 0;
  };
  std::string path_;
  std::string tmp_path_;
  std::map<std::string, Entry> toc_;
  std::uint64_t cursor_ = 0;
  int fd_ = -1;
  bool closed_ = false;
};

/// Read-mode file; the whole table of contents is parsed at open.
class H5LiteReader {
 public:
  explicit H5LiteReader(const std::string& path);
  ~H5LiteReader();

  H5LiteReader(const H5LiteReader&) = delete;
  H5LiteReader& operator=(const H5LiteReader&) = delete;

  bool has(const std::string& name) const;
  std::vector<std::string> names() const;
  DatasetInfo info(const std::string& name) const;

  std::vector<double> read_doubles(const std::string& name) const;
  std::vector<std::int64_t> read_ints(const std::string& name) const;

 private:
  struct Entry {
    DatasetInfo info;
    std::uint64_t offset = 0;
  };
  const Entry& entry(const std::string& name) const;
  void read_at(std::uint64_t offset, void* out, std::size_t bytes) const;

  std::string path_;
  std::map<std::string, Entry> toc_;
  std::uint64_t file_size_ = 0;
  int fd_ = -1;
};

}  // namespace hetero::io

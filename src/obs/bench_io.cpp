#include "obs/bench_io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "support/error.hpp"
#include "support/io_util.hpp"

namespace hetero::obs {

std::string field_name(const std::string& header) {
  std::string out;
  out.reserve(header.size());
  for (std::size_t i = 0; i < header.size(); ++i) {
    const char c = header[i];
    if (c == '[') {
      // Unit suffix: "[s]" -> "_s", "[$]" -> "_usd", "[h]" -> "_h".
      const std::size_t close = header.find(']', i);
      std::string unit = close == std::string::npos
                             ? header.substr(i + 1)
                             : header.substr(i + 1, close - i - 1);
      if (unit == "$") {
        unit = "usd";
      }
      if (!unit.empty()) {
        if (!out.empty() && out.back() != '_') {
          out.push_back('_');
        }
        for (char u : unit) {
          out.push_back(static_cast<char>(
              std::isalnum(static_cast<unsigned char>(u)) ? std::tolower(u)
                                                          : '_'));
        }
      }
      if (close == std::string::npos) {
        break;
      }
      i = close;
      continue;
    }
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (c == '$') {
      if (!out.empty() && out.back() != '_') {
        out.push_back('_');
      }
      out += "usd";
    } else if (!out.empty() && out.back() != '_') {
      out.push_back('_');
    }
  }
  while (!out.empty() && out.back() == '_') {
    out.pop_back();
  }
  HETERO_REQUIRE(!out.empty(),
                 "field_name: header '" + header + "' sanitizes to nothing");
  return out;
}

Json cell_value(const std::string& cell) {
  if (cell.empty() || cell == "-") {
    return Json(nullptr);
  }
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  if (end != nullptr && *end == '\0' && end != cell.c_str()) {
    return Json(v);
  }
  return Json(cell);
}

JsonlWriter::JsonlWriter(const std::string& path) : path_(path) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  HETERO_REQUIRE(fd_ >= 0, "cannot open JSONL output file: " + path_);
}

JsonlWriter::~JsonlWriter() {
  try {
    close();
  } catch (const Error& e) {
    // Destructors must not throw: report the lost lines here. A caller
    // that must act on the failure calls close() itself.
    std::fprintf(stderr, "%s\n", e.what());
  }
}

void JsonlWriter::write(const Json& record) {
  HETERO_REQUIRE(fd_ >= 0, "JsonlWriter: write after close: " + path_);
  record.dump_to(buffer_);
  buffer_.push_back('\n');
  if (buffer_.size() >= kChunkBytes) {
    HETERO_REQUIRE(write_buffer(), "cannot append to JSONL file: " + path_);
  }
}

bool JsonlWriter::write_buffer() {
  // The buffer holds whole lines only, so even a run that crashes between
  // two chunks leaves complete records behind, never half a line.
  const bool ok = support::write_all(fd_, buffer_.data(), buffer_.size());
  buffer_.clear();
  return ok;
}

void JsonlWriter::close() {
  if (fd_ < 0) {
    return;
  }
  const bool ok = write_buffer();
  // fsync before close: once the writer is gone the file is durable, not
  // parked in the page cache waiting for a power cut to truncate it.
  ::fsync(fd_);
  ::close(fd_);
  fd_ = -1;
  HETERO_REQUIRE(ok, "cannot append to JSONL file: " + path_);
}

std::vector<Json> read_jsonl(const std::string& path) {
  std::ifstream is(path);
  HETERO_REQUIRE(is.good(), "cannot open JSONL file: " + path);
  std::vector<Json> records;
  std::string line;
  while (std::getline(is, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    records.push_back(Json::parse(line));
  }
  return records;
}

BenchReporter::BenchReporter(const CliArgs& args, std::string bench)
    : bench_(std::move(bench)), path_(args.get_string("json", "")) {}

void BenchReporter::add_table(const Table& table, const std::string& series) {
  if (!enabled()) {
    return;
  }
  std::vector<std::string> fields;
  fields.reserve(table.cols());
  for (const auto& header : table.header()) {
    fields.push_back(field_name(header));
  }
  for (std::size_t r = 0; r < table.rows(); ++r) {
    Json record = Json::object();
    if (!series.empty()) {
      record.set("series", series);
    }
    const auto& row = table.row(r);
    for (std::size_t c = 0; c < fields.size(); ++c) {
      record.set(fields[c], cell_value(row[c]));
    }
    add_record(std::move(record));
  }
}

void BenchReporter::add_record(Json record) {
  if (!enabled()) {
    return;
  }
  HETERO_REQUIRE(record.is_object(), "bench records must be JSON objects");
  Json stamped = Json::object();
  stamped.set("schema", kBenchSchema);
  stamped.set("bench", bench_);
  for (const auto& member : record.as_object()) {
    stamped.set(member.first, member.second);
  }
  records_.push_back(std::move(stamped));
}

BenchReporter::~BenchReporter() {
  if (!enabled()) {
    return;
  }
  try {
    JsonlWriter writer(path_);
    for (const auto& record : records_) {
      writer.write(record);
    }
    writer.close();
  } catch (const Error&) {
    // Destructors must not throw; a bench that cannot write its JSONL will
    // be caught by the missing/short file in check_bench.py.
  }
}

}  // namespace hetero::obs

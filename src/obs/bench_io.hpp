#pragma once

/// \file bench_io.hpp
/// Structured results layer: schema-versioned JSONL records for the bench
/// suite and the CLI, one record per datapoint. This is what
/// `tools/check_bench.py` reads to gate CI on the *shape* of the paper's
/// figures rather than on "it ran".
///
/// Record layout (schema "heterolab-bench-v1"): a flat JSON object per line
///   {"schema":"heterolab-bench-v1","bench":"fig4_rd_weak_scaling",
///    "platform":"lagrange","procs":343,"total_s":9.42,...}
/// Field names derive from table headers via `field_name()` ("assembly[s]"
/// -> "assembly_s", "full real cost[$]" -> "full_real_cost_usd"); numeric
/// cells become JSON numbers and the "-" placeholder becomes null.

#include <cstddef>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace hetero::obs {

/// Version tag stamped on every bench record.
inline constexpr const char* kBenchSchema = "heterolab-bench-v1";

/// Canonical JSON field name for a table column header.
std::string field_name(const std::string& header);

/// Table cell -> JSON: numbers parse to numbers, "-" to null, rest verbatim.
Json cell_value(const std::string& cell);

/// Appends one JSON document per line; creates/truncates `path` on open.
/// The file stays open for the writer's lifetime. Lines collect in a
/// buffer that reaches the OS in chunks of whole lines, at least
/// kChunkBytes each (the rest at close()), through an EINTR/short-write-
/// safe write_all: a report of 16k records takes a few hundred syscalls,
/// not 16k. A crashed run leaves only whole records behind, never a torn
/// tail for check_bench.py to choke on, and a heartbeat signal
/// interrupting the write(2) cannot drop bytes either. close() fsyncs
/// before releasing the descriptor so a reported-done file is durable,
/// not just buffered.
class JsonlWriter {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t{64} << 10;

  explicit JsonlWriter(const std::string& path);
  /// Calls close(); a write error goes to stderr, since a destructor
  /// cannot throw. Call close() to handle it.
  ~JsonlWriter();

  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  void write(const Json& record);
  /// Writes the buffered lines, fsyncs and closes; throws hetero::Error
  /// when the lines cannot be written. Idempotent.
  void close();
  const std::string& path() const { return path_; }

 private:
  /// Hands the buffered lines to write_all and empties the buffer.
  bool write_buffer();

  std::string path_;
  int fd_ = -1;
  std::string buffer_;
};

/// Parses a JSONL file into one Json per non-empty line.
std::vector<Json> read_jsonl(const std::string& path);

/// Per-binary reporter: reads `--json <path>` from the CLI args and, when
/// present, writes every added record on destruction. With no `--json` flag
/// it is a cheap no-op, so bench mains call it unconditionally.
class BenchReporter {
 public:
  /// `bench` is the record's "bench" field (binary name sans path).
  BenchReporter(const CliArgs& args, std::string bench);
  ~BenchReporter();

  BenchReporter(const BenchReporter&) = delete;
  BenchReporter& operator=(const BenchReporter&) = delete;

  /// True when --json was passed (records will be written).
  bool enabled() const { return !path_.empty(); }

  /// One record per table row; `series` tags the record (e.g. which of a
  /// bench's tables it came from) when non-empty.
  void add_table(const Table& table, const std::string& series = "");

  /// One hand-built record; "schema"/"bench" fields are stamped on top.
  void add_record(Json record);

 private:
  std::string bench_;
  std::string path_;
  std::vector<Json> records_;
};

}  // namespace hetero::obs

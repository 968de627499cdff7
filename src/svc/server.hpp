#pragma once

/// \file server.hpp
/// Transports for the advisory daemon: one request loop over two kinds of
/// byte stream. The loop reads a line, has the Service answer it, tallies
/// the kind of record the answer is, and writes and flushes the answer
/// before it reads the next line, so responses leave in request order and
/// a warm re-run is byte-comparable to a cold one.
///
///   * pipe mode — `heterolab serve < requests.jsonl > answers.jsonl`, and
///     `heterolab broker --requests FILE.jsonl`: the loop runs over the
///     stream pair.
///   * Unix-domain-socket mode — `heterolab serve --socket PATH`: one
///     thread per connection runs the loop over it, all connections sharing
///     the Service (and therefore the engine cache, the persistent memo
///     store, and its in-flight dedup). A "shutdown" request stops the
///     accept loop; the open connections are served to their end.
///
/// End of input or a "shutdown" request ends a loop with a final "bye"
/// record (one per connection on the socket).

#include <cstdint>
#include <iosfwd>
#include <string>

#include "svc/service.hpp"

namespace hetero::svc {

struct ServeStats {
  std::uint64_t served = 0;     ///< Decision (and rebroker) answers.
  std::uint64_t pings = 0;
  std::uint64_t errors = 0;     ///< Malformed or unpriceable requests.
  std::uint64_t throttled = 0;  ///< Budget rejections.
};

/// Runs the line protocol over a stream pair until EOF or a "shutdown"
/// request, emits the final "bye" record, and returns the tallies.
ServeStats serve_pipe(Service& service, std::istream& in, std::ostream& out);

/// Binds a Unix-domain socket at `path` (replacing a stale one) and serves
/// connections until a "shutdown" request arrives; waits for the open
/// connections and returns the tallies. Each connection speaks the same
/// line protocol as pipe mode.
ServeStats serve_unix_socket(Service& service, const std::string& path);

}  // namespace hetero::svc

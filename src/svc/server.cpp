#include "svc/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <istream>
#include <list>
#include <mutex>
#include <ostream>
#include <thread>

#include "support/error.hpp"

namespace hetero::svc {

namespace {

/// The request loop of every transport: answers each line `read_line`
/// yields until it runs dry or a "shutdown" request arrives, tallies the
/// answer in `stats`, hands its text to `write`, and ends with the "bye"
/// record. True when a shutdown request ended it.
template <class ReadLine, class Write>
bool serve_lines(Service& service, ServeStats& stats, ReadLine read_line,
                 Write write) {
  std::string line;
  bool shutdown = false;
  while (!shutdown && read_line(line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    const Answer answer = service.answer(line);
    switch (answer.kind) {
      case Answer::Kind::kDecision:
        ++stats.served;
        break;
      case Answer::Kind::kPong:
        ++stats.pings;
        break;
      case Answer::Kind::kError:
        ++stats.errors;
        break;
      case Answer::Kind::kThrottled:
        ++stats.throttled;
        break;
      case Answer::Kind::kShutdown:
        shutdown = true;
        break;
    }
    std::string text;
    for (const auto& out : answer.lines) {
      text += out;
      text.push_back('\n');
    }
    write(text);
  }
  write(render_bye(stats.served) + "\n");
  return shutdown;
}

}  // namespace

ServeStats serve_pipe(Service& service, std::istream& in, std::ostream& out) {
  ServeStats stats;
  serve_lines(
      service, stats,
      [&](std::string& line) { return static_cast<bool>(std::getline(in, line)); },
      [&](const std::string& text) { out << text << std::flush; });
  service.store().flush();
  return stats;
}

namespace {

/// One accepted client as a line source and sink; closes the fd.
class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool read_line(std::string& line) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line.assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) {
        continue;  // a signal is not end-of-stream; keep the client
      }
      if (n <= 0) {
        line = std::move(buffer_);
        buffer_.clear();
        return !line.empty();  // a last line without its newline
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  void write(const std::string& text) {
    std::size_t written = 0;
    while (written < text.size()) {
      // MSG_NOSIGNAL: a peer that already hung up (the shutdown poke, a
      // client gone after `shutdown`) must yield EPIPE, not kill the
      // daemon with SIGPIPE.
      const ssize_t n = ::send(fd_, text.data() + written,
                               text.size() - written, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;  // a signal mid-reply must not truncate the response
      }
      if (n <= 0) {
        return;  // client went away; nothing useful to do
      }
      written += static_cast<std::size_t>(n);
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

}  // namespace

ServeStats serve_unix_socket(Service& service, const std::string& path) {
  HETERO_REQUIRE(!path.empty(), "svc: socket path must be non-empty");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  HETERO_REQUIRE(path.size() < sizeof(addr.sun_path),
                 "svc: socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  HETERO_REQUIRE(listen_fd >= 0, "svc: cannot create socket");
  ::unlink(path.c_str());
  HETERO_REQUIRE(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0,
                 "svc: cannot bind socket at " + path);
  HETERO_REQUIRE(::listen(listen_fd, 64) == 0,
                 "svc: cannot listen on " + path);

  ServeStats stats;
  std::mutex stats_mutex;
  std::atomic<bool> stopping{false};
  struct Live {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<Live> connections;

  while (!stopping.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR && !stopping.load(std::memory_order_acquire)) {
        continue;
      }
      break;
    }
    // A finished thread keeps its stack mapped until it is joined.
    connections.remove_if([](Live& c) {
      if (!c.done.load(std::memory_order_acquire)) {
        return false;
      }
      c.thread.join();
      return true;
    });
    Live* live = &connections.emplace_back();
    live->thread = std::thread([&, fd, live] {
      ServeStats mine;
      bool shutdown = false;
      {
        Connection conn(fd);
        shutdown = serve_lines(
            service, mine,
            [&](std::string& line) { return conn.read_line(line); },
            [&](const std::string& text) { conn.write(text); });
      }
      {
        std::lock_guard<std::mutex> lock(stats_mutex);
        stats.served += mine.served;
        stats.pings += mine.pings;
        stats.errors += mine.errors;
        stats.throttled += mine.throttled;
      }
      if (shutdown) {
        stopping.store(true, std::memory_order_release);
        // Unblock the accept() so the server notices the shutdown: a
        // no-op connection to our own socket.
        const int poke = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (poke >= 0) {
          ::connect(poke, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr));
          ::close(poke);
        }
      }
      live->done.store(true, std::memory_order_release);
    });
  }

  ::close(listen_fd);
  ::unlink(path.c_str());
  for (auto& c : connections) {
    c.thread.join();
  }
  service.store().flush();
  return stats;
}

}  // namespace hetero::svc

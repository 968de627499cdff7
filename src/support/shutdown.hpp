#pragma once

/// \file shutdown.hpp
/// Graceful SIGINT/SIGTERM handling for the CLI entry points.
///
/// A Ctrl-C used to kill `heterolab run`/`serve` wherever it stood:
/// buffered JSONL tails lost, worker processes orphaned, memo stores
/// unsynced. The ShutdownGuard turns those signals into an orderly exit:
/// it blocks SIGINT/SIGTERM in the installing thread (every thread spawned
/// after inherits the mask) and runs a dedicated watcher thread in
/// sigwait. When a signal arrives the watcher runs the registered hooks
/// newest-first — flush and fsync writers, SIGKILL+reap campaign workers —
/// prints a clear message to stderr, and _exits with the conventional
/// 128+signo status.
///
/// Hooks run on the watcher thread (a normal thread, not a signal
/// handler), so they may allocate, lock, and do real I/O — but they race
/// the interrupted main thread, so they must be safe against concurrent
/// progress (kill(2), fsync(2), and flag flips are; complex teardown is
/// not). Keep them small.

#include <functional>

namespace hetero::support {

/// Registers a cleanup hook; returns a token for remove_shutdown_hook.
/// Hooks run newest-first on shutdown. Safe without a ShutdownGuard (the
/// hook is simply never invoked).
int add_shutdown_hook(std::function<void()> hook);
void remove_shutdown_hook(int token);

/// Installs the watcher. Construct once, early in main(), while the
/// process is still single-threaded. Destruction stops the watcher and
/// restores the signal mask.
class ShutdownGuard {
 public:
  ShutdownGuard();
  ~ShutdownGuard();

  ShutdownGuard(const ShutdownGuard&) = delete;
  ShutdownGuard& operator=(const ShutdownGuard&) = delete;
};

}  // namespace hetero::support

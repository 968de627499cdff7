#include "support/shutdown.hpp"

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

namespace hetero::support {

namespace {

std::mutex g_hooks_mutex;
std::map<int, std::function<void()>> g_hooks;
int g_next_token = 1;

const char* signal_name(int signo) {
  switch (signo) {
    case SIGINT:
      return "SIGINT";
    case SIGTERM:
      return "SIGTERM";
    default:
      return "signal";
  }
}

void run_hooks_newest_first() {
  // Copy under the lock, run outside it: a hook may unregister others.
  std::map<int, std::function<void()>> hooks;
  {
    std::lock_guard<std::mutex> lock(g_hooks_mutex);
    hooks = g_hooks;
  }
  for (auto it = hooks.rbegin(); it != hooks.rend(); ++it) {
    try {
      it->second();
    } catch (...) {
      // Shutdown must not die in a hook; keep flushing the rest.
    }
  }
}

}  // namespace

int add_shutdown_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(g_hooks_mutex);
  const int token = g_next_token++;
  g_hooks.emplace(token, std::move(hook));
  return token;
}

void remove_shutdown_hook(int token) {
  std::lock_guard<std::mutex> lock(g_hooks_mutex);
  g_hooks.erase(token);
}

namespace {

struct Watcher {
  std::thread thread;
  sigset_t previous_mask;
  bool active = false;
};
Watcher g_watcher;

/// Private wake-up signal the destructor uses to stop the sigwait loop.
constexpr int kStopSignal = SIGUSR2;

void watcher_main() {
  sigset_t wait_set;
  sigemptyset(&wait_set);
  sigaddset(&wait_set, SIGINT);
  sigaddset(&wait_set, SIGTERM);
  sigaddset(&wait_set, kStopSignal);
  for (;;) {
    int signo = 0;
    if (sigwait(&wait_set, &signo) != 0) {
      continue;
    }
    if (signo == kStopSignal) {
      return;  // guard destructor: normal exit path
    }
    run_hooks_newest_first();
    std::fprintf(stderr,
                 "heterolab: interrupted by %s — flushed partial output, "
                 "reaped workers, exiting\n",
                 signal_name(signo));
    std::fflush(stderr);
    ::_exit(128 + signo);
  }
}

}  // namespace

ShutdownGuard::ShutdownGuard() {
  sigset_t block_set;
  sigemptyset(&block_set);
  sigaddset(&block_set, SIGINT);
  sigaddset(&block_set, SIGTERM);
  sigaddset(&block_set, kStopSignal);
  pthread_sigmask(SIG_BLOCK, &block_set, &g_watcher.previous_mask);
  g_watcher.thread = std::thread(watcher_main);
  g_watcher.active = true;
}

ShutdownGuard::~ShutdownGuard() {
  if (g_watcher.active) {
    pthread_kill(g_watcher.thread.native_handle(), kStopSignal);
    g_watcher.thread.join();
    pthread_sigmask(SIG_SETMASK, &g_watcher.previous_mask, nullptr);
    g_watcher.active = false;
  }
}

}  // namespace hetero::support

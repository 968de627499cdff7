#include "simmpi/runtime.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <string>
#include <thread>

#include "obs/trace.hpp"
#include "simmpi/comm.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#define HETERO_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#define HETERO_FIBER_TSAN 1
#endif

namespace hetero::simmpi {

namespace {

constexpr std::uint64_t kOneRunnable = 1;
constexpr std::uint64_t kOneLive = std::uint64_t{1} << 32;
constexpr std::uint64_t kRunnableMask = kOneLive - 1;

std::size_t page_bytes() {
  static const std::size_t bytes =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return bytes;
}

/// Stack size of a default-constructed std::thread, which a fiber replaces.
std::size_t thread_stack_bytes() {
  static const std::size_t bytes = [] {
    std::size_t size = 0;
    pthread_attr_t attr;
    if (::pthread_getattr_default_np(&attr) == 0) {
      ::pthread_attr_getstacksize(&attr, &size);
      ::pthread_attr_destroy(&attr);
    }
    if (size == 0) {
      size = std::size_t{8} << 20;
    }
    const std::size_t page = page_bytes();
    return (size + page - 1) / page * page;
  }();
  return bytes;
}

/// min(ranks, CPUs the calling thread may run on).
int host_threads_for(int ranks) {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = 1;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, std::min(ranks, cpus));
}

/// Sanitizer view of one execution context: a fiber, or a host thread's
/// own stack. Sanitizers cannot tell which stack swapcontext moves to, so
/// every switch is announced to them.
struct SwitchState {
  const void* stack_bottom = nullptr;  // ASan: lowest address
  std::size_t stack_size = 0;
  void* fake_stack = nullptr;  // ASan: saved while switched out
  void* tsan_fiber = nullptr;
};

/// Announces a switch to `to`; `from_fake_stack` is null when the current
/// context never resumes.
void start_switch([[maybe_unused]] void** from_fake_stack,
                  [[maybe_unused]] const SwitchState& to) {
#ifdef HETERO_FIBER_ASAN
  __sanitizer_start_switch_fiber(from_fake_stack, to.stack_bottom,
                                 to.stack_size);
#endif
#ifdef HETERO_FIBER_TSAN
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
}

/// Completes a switch into `self`; records the stack it came from in
/// `from` when given.
void finish_switch([[maybe_unused]] SwitchState& self,
                   [[maybe_unused]] SwitchState* from) {
#ifdef HETERO_FIBER_ASAN
  __sanitizer_finish_switch_fiber(
      self.fake_stack, from != nullptr ? &from->stack_bottom : nullptr,
      from != nullptr ? &from->stack_size : nullptr);
#endif
}

}  // namespace

/// One host thread: runs its block of fibers until all have finished.
struct Runtime::HostThread {
  /// The scheduler loop's context, which fibers switch back to.
  ucontext_t context{};
  SwitchState sanitizer;
  /// Ready fibers woken by this thread's own fibers; touched only here.
  std::deque<Fiber*> ready;
  /// Ready fibers woken from other host threads.
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Fiber*> inbox;
  /// Unfinished fibers of this thread.
  int live = 0;
};

struct Runtime::Fiber {
  Fiber(Runtime& owner, int r, HostThread& home)
      : runtime(&owner), rank(r), host(&home) {
    const std::size_t guard = page_bytes();
    const std::size_t stack = thread_stack_bytes();
    // Lazily committed: pages cost memory only once the rank touches them.
    mapping_bytes = guard + stack;
    mapping = ::mmap(nullptr, mapping_bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                     -1, 0);
    HETERO_REQUIRE(mapping != MAP_FAILED,
                   "simmpi: cannot map a rank stack of " +
                       std::to_string(stack) + " bytes");
    // Guard page below the stack: an overflow faults instead of silently
    // writing into the neighbouring mapping.
    HETERO_REQUIRE(::mprotect(mapping, guard, PROT_NONE) == 0,
                   "simmpi: cannot protect a rank stack guard page");
    char* bottom = static_cast<char*>(mapping) + guard;
    sanitizer.stack_bottom = bottom;
    sanitizer.stack_size = stack;
#ifdef HETERO_FIBER_TSAN
    sanitizer.tsan_fiber = __tsan_create_fiber(0);
#endif
    HETERO_REQUIRE(::getcontext(&context) == 0, "simmpi: getcontext failed");
    context.uc_stack.ss_sp = bottom;
    context.uc_stack.ss_size = stack;
    context.uc_link = nullptr;
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    ::makecontext(&context, reinterpret_cast<void (*)()>(&Fiber::entry), 2,
                  static_cast<unsigned>(self >> 32),
                  static_cast<unsigned>(self & 0xffffffffu));
  }

  ~Fiber() {
#ifdef HETERO_FIBER_ASAN
    // A finished fiber leaves its last frames poisoned; whatever maps this
    // range next must start clean.
    __asan_unpoison_memory_region(sanitizer.stack_bottom,
                                  sanitizer.stack_size);
#endif
#ifdef HETERO_FIBER_TSAN
    __tsan_destroy_fiber(sanitizer.tsan_fiber);
#endif
    ::munmap(mapping, mapping_bytes);
  }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// makecontext passes int-sized arguments, so `this` arrives in halves.
  static void entry(unsigned hi, unsigned lo) {
    auto* self = reinterpret_cast<Fiber*>(
        (static_cast<std::uintptr_t>(hi) << 32) | lo);
    self->runtime->fiber_main(*self);
  }

  /// Switches back to the host's scheduler loop; returns when resumed.
  void yield() {
    start_switch(&sanitizer.fake_stack, host->sanitizer);
    ::swapcontext(&context, &host->context);
    finish_switch(sanitizer, &host->sanitizer);
  }

  Runtime* runtime;
  int rank;
  HostThread* host;
  ucontext_t context{};
  void* mapping = nullptr;
  std::size_t mapping_bytes = 0;
  SwitchState sanitizer;
  /// Guarded by the lock of the mailbox or rendezvous the fiber parks on.
  Wait wait;
  bool done = false;
};

Runtime::Runtime(netsim::Topology topology)
    : topology_(std::move(topology)),
      mailboxes_(static_cast<std::size_t>(topology_.ranks())),
      clocks_(static_cast<std::size_t>(topology_.ranks())),
      stats_(static_cast<std::size_t>(topology_.ranks())) {}

Runtime::~Runtime() = default;

void Runtime::run(const std::function<void(Comm&)>& rank_main) {
  const int p = size();
  for (int r = 0; r < p; ++r) {
    clocks_[static_cast<std::size_t>(r)].reset();
    stats_[static_cast<std::size_t>(r)] = CommStats{};
    stats_[static_cast<std::size_t>(r)].bytes_by_dest.assign(
        static_cast<std::size_t>(p), 0);
    mailboxes_[static_cast<std::size_t>(r)].queue.clear();
    mailboxes_[static_cast<std::size_t>(r)].waiters.clear();
  }
  aborted_.store(false);
  first_error_ = nullptr;
  rendezvous_ = Rendezvous{};
  rendezvous_.blocks.resize(static_cast<std::size_t>(p));

  // Host thread h owns ranks [h * p / k, (h + 1) * p / k).
  const int k = host_threads_for(p);
  fibers_.clear();
  hosts_.clear();
  for (int h = 0; h < k; ++h) {
    hosts_.push_back(std::make_unique<HostThread>());
    HostThread& host = *hosts_.back();
    for (int r = h * p / k; r < (h + 1) * p / k; ++r) {
      fibers_.push_back(std::make_unique<Fiber>(*this, r, host));
      host.ready.push_back(fibers_.back().get());
      ++host.live;
    }
  }
  census_.store(static_cast<std::uint64_t>(p) * (kOneLive + kOneRunnable));
  rank_main_ = &rank_main;

  // Fibers rebind the thread's trace row on every switch-in; host-side
  // code keeps recording on the caller's row once run() returns.
  const int caller_row = obs::bound_trace_rank();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(k - 1));
  for (int h = 1; h < k; ++h) {
    threads.emplace_back([this, h] { host_loop(*hosts_[h]); });
  }
  host_loop(*hosts_[0]);
  for (auto& t : threads) {
    t.join();
  }
  obs::bind_trace_rank(caller_row);
  fibers_.clear();
  rank_main_ = nullptr;
  if (first_error_) {
    std::rethrow_exception(first_error_);
  }
}

void Runtime::host_loop(HostThread& host) {
#ifdef HETERO_FIBER_TSAN
  host.sanitizer.tsan_fiber = __tsan_get_current_fiber();
#endif
  for (;;) {
    if (host.ready.empty()) {
      std::unique_lock<std::mutex> lock(host.mutex);
      host.cv.wait(lock, [&] { return !host.inbox.empty() || host.live == 0; });
      if (host.live == 0) {
        return;
      }
      host.ready.insert(host.ready.end(), host.inbox.begin(),
                        host.inbox.end());
      host.inbox.clear();
    }
    Fiber& fiber = *host.ready.front();
    host.ready.pop_front();
    obs::bind_trace_rank(fiber.rank);
    start_switch(&host.sanitizer.fake_stack, fiber.sanitizer);
    ::swapcontext(&host.context, &fiber.context);
    finish_switch(host.sanitizer, nullptr);
    if (fiber.done) {
      --host.live;
    }
  }
}

void Runtime::fiber_main(Fiber& self) {
  finish_switch(self.sanitizer, &self.host->sanitizer);
  {
    Comm comm(*this, self.rank);
    try {
      (*rank_main_)(comm);
    } catch (...) {
      record_error(std::current_exception());
      abort_all(*self.host);
    }
  }
  self.done = true;
  const std::uint64_t before =
      census_.fetch_sub(kOneLive + kOneRunnable, std::memory_order_acq_rel);
  if ((before & kRunnableMask) == 1 && (before >> 32) > 1) {
    report_deadlock(*self.host);
  }
  start_switch(nullptr, self.host->sanitizer);
  ::setcontext(&self.host->context);
}

void Runtime::park(Fiber& self, std::unique_lock<std::mutex>& lock,
                   std::vector<Fiber*>& waiters, const Wait& wait) {
  // C++ exception state is per OS thread; a fiber that switched out while
  // unwinding would hand its in-flight exception to the next fiber.
  HETERO_CHECK(std::uncaught_exceptions() == 0);
  self.wait = wait;
  waiters.push_back(&self);
  lock.unlock();
  const std::uint64_t before =
      census_.fetch_sub(kOneRunnable, std::memory_order_acq_rel);
  if ((before & kRunnableMask) == 1) {
    report_deadlock(*self.host);  // wakes `self` too, through abort_all
  }
  self.yield();
  lock.lock();
}

void Runtime::wake_all(std::vector<Fiber*>& waiters, HostThread& waker) {
  for (Fiber* fiber : waiters) {
    make_ready(*fiber, waker);
  }
  waiters.clear();
}

void Runtime::make_ready(Fiber& fiber, HostThread& waker) {
  fiber.wait = Wait{};
  census_.fetch_add(kOneRunnable, std::memory_order_acq_rel);
  HostThread& host = *fiber.host;
  if (&host == &waker) {
    host.ready.push_back(&fiber);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(host.mutex);
    host.inbox.push_back(&fiber);
  }
  host.cv.notify_one();
}

void Runtime::report_deadlock(HostThread& waker) {
  // No fiber runs, so none can wake another: every unfinished one is
  // parked for good. Describe each, folding runs of equal descriptions.
  std::vector<std::string> what(fibers_.size());
  {
    std::lock_guard<std::mutex> lock(coll_mutex_);
    for (std::size_t r = 0; r < fibers_.size(); ++r) {
      const Wait& w = fibers_[r]->wait;
      if (w.op == nullptr) {
        continue;
      }
      std::string& s = what[r];
      s = w.op;
      s += std::strcmp(w.op, "recv") == 0
               ? "(source " + std::to_string(w.source) + ", tag " +
                     std::to_string(w.tag) + ")"
               : " (" + std::to_string(rendezvous_.arrived) + " of " +
                     std::to_string(fibers_.size()) + " ranks arrived)";
    }
  }
  std::string message =
      "simmpi: deadlock — every unfinished rank is blocked and none can "
      "release another:";
  for (std::size_t r = 0; r < what.size();) {
    std::size_t end = r + 1;
    while (end < what.size() && what[end] == what[r]) {
      ++end;
    }
    if (!what[r].empty()) {
      message += end - r == 1
                     ? " rank " + std::to_string(r)
                     : " ranks " + std::to_string(r) + "-" +
                           std::to_string(end - 1);
      message += (end - r == 1 ? " waits in " : " wait in ") + what[r] + ";";
    }
    r = end;
  }
  message.pop_back();
  record_error(std::make_exception_ptr(Error(message)));
  abort_all(waker);
}

void Runtime::record_error(std::exception_ptr error) {
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (!first_error_) {
    first_error_ = std::move(error);
  }
}

double Runtime::elapsed_sim_seconds() const {
  double t = 0.0;
  for (const auto& clock : clocks_) {
    t = std::max(t, clock.time());
  }
  return t;
}

const CommStats& Runtime::stats(int rank) const {
  HETERO_REQUIRE(rank >= 0 && rank < size(), "stats(): rank out of range");
  return stats_[static_cast<std::size_t>(rank)];
}

void Runtime::post_send(int source, int dest, int tag,
                        std::vector<std::byte> payload, double depart_time) {
  auto& box = mailboxes_[static_cast<std::size_t>(dest)];
  std::lock_guard<std::mutex> lock(box.mutex);
  box.queue.push_back(Envelope{source, tag, std::move(payload), depart_time});
  if (!box.waiters.empty()) {
    const Wait& want = box.waiters.front()->wait;
    if (want.source == source && want.tag == tag) {
      wake_all(box.waiters, *fibers_[static_cast<std::size_t>(source)]->host);
    }
  }
}

Runtime::Envelope Runtime::blocking_recv(int self, int source, int tag) {
  HETERO_REQUIRE(source >= 0 && source < size(), "recv: source out of range");
  auto& box = mailboxes_[static_cast<std::size_t>(self)];
  std::unique_lock<std::mutex> lock(box.mutex);
  for (;;) {
    check_abort();
    for (auto it = box.queue.begin(); it != box.queue.end(); ++it) {
      if (it->source == source && it->tag == tag) {
        Envelope env = std::move(*it);
        box.queue.erase(it);
        return env;
      }
    }
    park(*fibers_[static_cast<std::size_t>(self)], lock, box.waiters,
         Wait{"recv", source, tag});
  }
}

Blocks Runtime::collective(const char* name, int rank, Blocks input,
                           const CombineFn& combine, double cost_seconds,
                           double entry_time, double* exit_time) {
  std::unique_lock<std::mutex> lock(coll_mutex_);
  check_abort();
  Rendezvous& g = rendezvous_;
  Fiber& self = *fibers_[static_cast<std::size_t>(rank)];
  const std::uint64_t my_generation = g.generation;
  g.blocks[static_cast<std::size_t>(rank)] = std::move(input);
  g.max_entry = (g.arrived == 0) ? entry_time
                                 : std::max(g.max_entry, entry_time);
  g.cost = (g.arrived == 0) ? cost_seconds : std::max(g.cost, cost_seconds);
  ++g.arrived;
  if (g.arrived == size()) {
    // Last arrival performs the combine and releases everyone.
    if (combine) {
      combine(g.blocks);
    }
    g.exit = g.max_entry + g.cost * degradation_.factor_at(g.max_entry);
    g.arrived = 0;
    ++g.generation;
    wake_all(g.waiters, *self.host);
  } else {
    while (g.generation == my_generation) {
      park(self, lock, g.waiters, Wait{name, 0, 0});
      check_abort();
    }
  }
  *exit_time = g.exit;
  return std::move(g.blocks[static_cast<std::size_t>(rank)]);
}

void Runtime::abort_all(HostThread& waker) {
  aborted_.store(true);
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box.mutex);
    wake_all(box.waiters, waker);
  }
  std::lock_guard<std::mutex> lock(coll_mutex_);
  wake_all(rendezvous_.waiters, waker);
}

void Runtime::check_abort() const {
  if (aborted_.load()) {
    throw Aborted();
  }
}

}  // namespace hetero::simmpi

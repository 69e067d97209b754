#include "base/thread_pool.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#if defined(__linux__)
#include <sched.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace repro::base {

namespace {

/// Cores this process may actually run on. hardware_concurrency()
/// reports the host's core count even inside a container or cpuset that
/// pins the process to fewer — oversubscribing those time-slices one
/// core and turns the "parallel" path into pure overhead (the PR-1
/// speedup-below-1 regression). The affinity mask is the truth.
std::size_t usable_cores() {
  const std::size_t advertised =
      std::max(1u, std::thread::hardware_concurrency());
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int allowed = CPU_COUNT(&set);
    if (allowed > 0) {
      return std::min<std::size_t>(advertised,
                                   static_cast<std::size_t>(allowed));
    }
  }
#endif
  return advertised;
}

/// True on a pool worker thread: nested resolve_workers() calls then
/// return 1, so work called from inside a task runs inline instead of
/// spawning a pool of its own.
thread_local bool t_on_worker = false;

/// glibc raises its mmap threshold (and with it the trim threshold, up to
/// 32 MiB) the first time a large mmapped block is freed. Under several
/// worker arenas that makes freed memory stay resident; pinning the
/// threshold at glibc's own 128 KiB default turns the dynamic raise off.
void pin_mmap_threshold() {
#if defined(__GLIBC__)
  static const int pinned = mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  (void)pinned;
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers > 0) {
    pin_mmap_threshold();
  }
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

std::size_t ThreadPool::hardware_workers() { return usable_cores(); }

std::size_t ThreadPool::parse_thread_count(const char* text) {
  if (text == nullptr) {
    return 0;
  }
  // Reject leading whitespace/signs ourselves: strtol would accept
  // " +8" and, worse, stop at trailing garbage ("8x" -> 8) or saturate
  // silently on overflow. The whole string must be plain digits.
  if (*text == '\0' || !std::isdigit(static_cast<unsigned char>(*text))) {
    return 0;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long parsed = std::strtoul(text, &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') {
    return 0;
  }
  if (parsed == 0 || parsed > kMaxWorkers) {
    return 0;
  }
  return static_cast<std::size_t>(parsed);
}

std::size_t ThreadPool::resolve_workers(std::size_t requested) {
  if (t_on_worker) {
    return 1;
  }
  if (requested > 0) {
    return requested;
  }
  if (const char* env = std::getenv("FX8_THREADS")) {
    const std::size_t parsed = parse_thread_count(env);
    if (parsed > 0) {
      return parsed;
    }
    std::fprintf(stderr,
                 "fx8: ignoring invalid FX8_THREADS=\"%s\" "
                 "(want an integer in [1, %zu]); using %zu hardware "
                 "worker(s)\n",
                 env, kMaxWorkers, hardware_workers());
  }
  return hardware_workers();
}

void ThreadPool::worker_loop() {
  t_on_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping_ and nothing left to run
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace repro::base

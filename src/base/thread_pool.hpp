// Fixed-size worker pool for the embarrassingly parallel layers of the
// study: independent measurement sessions, bootstrap replicates, and
// configuration sweeps. Tasks return futures; exceptions thrown inside a
// task propagate to whoever calls future::get(), so a failing session
// surfaces exactly as it would on the serial path.
//
// Determinism contract: the pool never introduces randomness. Callers
// pre-derive every seed in a fixed order before dispatch and merge
// results in submission order, so a study run with N workers is
// bit-identical to the serial run (see docs/parallel_execution.md).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace repro::base {

class ThreadPool {
 public:
  /// Spawn `workers` threads. 0 workers is a valid degenerate pool:
  /// tasks run inline on the submitting thread (handy for tests and for
  /// the threads=1 fallback without special-casing call sites). The
  /// first non-empty pool of the process pins glibc's mmap threshold
  /// (docs/parallel_execution.md, "Artifact renders").
  explicit ThreadPool(std::size_t workers);

  /// Drains nothing: joins after finishing every task already queued.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// Usable cores with a floor of 1: hardware_concurrency clamped to the
  /// process CPU-affinity mask, so auto-sized pools never oversubscribe a
  /// container/cpuset that pins the process to fewer cores.
  [[nodiscard]] static std::size_t hardware_workers();

  /// Worker count a `requested` value resolves to: `requested` if
  /// nonzero, else the FX8_THREADS environment variable if it parses
  /// strictly (see parse_thread_count), else hardware_workers() — with
  /// a one-line stderr warning when FX8_THREADS is set but invalid.
  /// Always 1 when called from a pool worker thread: pools never nest,
  /// so a study or bootstrap run from inside a task runs inline.
  [[nodiscard]] static std::size_t resolve_workers(std::size_t requested);

  /// Upper bound resolve_workers accepts from the environment; far
  /// beyond any machine this runs on, but small enough that a typo'd
  /// value cannot ask for millions of threads.
  static constexpr std::size_t kMaxWorkers = 1024;

  /// Strict worker-count parse: the whole string must be a plain
  /// decimal integer in [1, kMaxWorkers] — no sign, no whitespace, no
  /// trailing characters, no overflow. Returns 0 for anything else
  /// (0 is never a valid worker count, so it doubles as "invalid").
  [[nodiscard]] static std::size_t parse_thread_count(const char* text);

  /// Enqueue a callable; returns a future for its result. Exceptions
  /// inside the task are captured and rethrown by future::get().
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<std::decay_t<F>>> submit(
      F&& fn) {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    if (workers_.empty()) {
      (*task)();
      return future;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace repro::base

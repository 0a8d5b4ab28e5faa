#ifndef MIP_COMMON_PARALLEL_H_
#define MIP_COMMON_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace mip {

/// \brief Number of hardware threads (>= 1).
int HardwareThreads();

/// \brief A fixed-size pool of worker threads consuming a FIFO task queue.
///
/// Used by the federation Master to fan local-run requests out to many
/// Workers concurrently (tasks there mostly wait on simulated network
/// latency, so the pool may be larger than the core count), by the parts
/// of a merge table (both through OrderedFanOut) and by the engine's
/// morsel dispatch (ParallelFor). Tasks submitted through Submit()
/// must be independent: a task must never block on another task that could
/// still be queued behind it, or the pool can deadlock. ParallelFor() is
/// exempt from that rule — the caller participates in the work, so it makes
/// progress even when every pool thread is busy, and it is therefore safe to
/// call from inside a pool task (nested parallelism).
///
/// The destructor drains the queue (every submitted task runs) and joins
/// all threads.
class ThreadPool {
 public:
  /// `num_threads <= 0` uses HardwareThreads().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  /// Enqueues a task. Tasks run in submission order, `size()` at a time.
  void Submit(std::function<void()> task);

  /// Runs `body(begin, end)` over [0, n) split into chunks of `grain`
  /// elements (the last chunk may be short; grain 0 means one chunk).
  /// Chunks are claimed from a shared atomic counter by up to size() pool
  /// threads *and the calling thread*, so the call makes progress even when
  /// the pool is saturated and never deadlocks when nested. Returns after
  /// every chunk has run. If any body invocation throws, the first captured
  /// exception is rethrown here after all claimed chunks finish; remaining
  /// unclaimed chunks are skipped.
  ///
  /// Chunk boundaries depend only on (n, grain) — never on thread count —
  /// so per-chunk partial results merged in chunk order give deterministic,
  /// bit-identical reductions at any parallelism (the engine's morsel
  /// determinism guarantee rests on this).
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t begin, size_t end)>& body);

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// \brief The one ordered fan-out: runs `fn(i)` for every i in [0, n) with
/// at most `lanes` calls in flight (0: up to n), each lane claiming the
/// next unclaimed index, and returns the results in index order. Inline in
/// index order when `pool` is null or `lanes == 1`. Lanes are ParallelFor
/// chunks, so the caller participates and nesting cannot deadlock.
template <typename Fn>
auto OrderedFanOut(ThreadPool* pool, size_t n, size_t lanes, const Fn& fn)
    -> std::vector<decltype(fn(size_t{0}))> {
  using T = decltype(fn(size_t{0}));
  std::vector<std::optional<T>> slots(n);
  std::atomic<size_t> next{0};
  const auto drain = [&](size_t, size_t) {
    for (size_t i; (i = next.fetch_add(1)) < n;) slots[i].emplace(fn(i));
  };
  lanes = lanes == 0 ? n : std::min(lanes, n);
  if (pool == nullptr || lanes <= 1) {
    drain(0, n);
  } else {
    pool->ParallelFor(lanes, 1, drain);
  }
  std::vector<T> out;
  out.reserve(n);
  for (std::optional<T>& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace mip

#endif  // MIP_COMMON_PARALLEL_H_

#include "engine/exec_context.h"

#include <pthread.h>

#include <algorithm>
#include <cstdlib>

namespace mip::engine {

namespace {

int DefaultThreadCount() {
  if (const char* env = std::getenv("MIP_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v >= 0 && v <= 1024) return static_cast<int>(v);
  }
  return HardwareThreads();
}

ExecContext* g_default = nullptr;

/// A forked child inherits the pool object but none of its threads, and
/// signalling the pool's condition variable there can block forever on
/// waiters that no longer exist. The child gets a fresh pool of the same
/// size; the stale one is leaked.
void RenewDefaultPoolInChild() {
  g_default->pool = new ThreadPool(g_default->pool->size());
}

}  // namespace

const ExecContext& ExecContext::Default() {
  // Leaked on purpose: engine threads must outlive every static destructor
  // that might still run a query during teardown.
  static const ExecContext* ctx = [] {
    g_default = new ExecContext();
    const int threads = DefaultThreadCount();
    if (threads > 1) {
      g_default->pool = new ThreadPool(threads);
      pthread_atfork(nullptr, nullptr, RenewDefaultPoolInChild);
    }
    return g_default;
  }();
  return *ctx;
}

const ExecContext& ExecContext::Serial() {
  static const ExecContext ctx;
  return ctx;
}

void ExecContext::ForEachMorsel(
    size_t n,
    const std::function<void(size_t, size_t, size_t)>& body) const {
  if (n == 0) return;
  const size_t m = morsel_size == 0 ? kDefaultMorselSize : morsel_size;
  if (pool == nullptr || n <= m) {
    for (size_t begin = 0, morsel = 0; begin < n; begin += m, ++morsel) {
      body(morsel, begin, std::min(n, begin + m));
    }
    return;
  }
  // One ParallelFor chunk per morsel — but re-split the handed range on
  // morsel boundaries anyway: ParallelFor may coalesce chunks (e.g. its
  // single-thread shortcut runs [0, n) in one call), and determinism
  // requires the morsel decomposition to be identical no matter how the
  // pool schedules the ranges.
  pool->ParallelFor(n, m, [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; b += m) {
      body(b / m, b, std::min(end, b + m));
    }
  });
}

}  // namespace mip::engine

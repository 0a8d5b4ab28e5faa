#ifndef MIP_ENGINE_EXEC_CONTEXT_H_
#define MIP_ENGINE_EXEC_CONTEXT_H_

#include <cstddef>
#include <functional>

#include "common/parallel.h"

namespace mip::engine {

/// \brief Execution context for engine operators: the thread pool to dispatch
/// morsels on and the morsel size.
///
/// The engine parallelizes scans, filters, aggregates, and group-bys by
/// splitting columns into fixed-size morsels and running them on `pool`
/// via ThreadPool::ParallelFor. Morsel boundaries depend only on
/// `morsel_size` — never on the thread count — and every reduction merges
/// per-morsel partial states in morsel order, so results are bit-identical
/// whether a query runs on 1 thread or 8 (pinned by engine_parallel_test).
///
/// A null `pool` means serial execution on the calling thread (same morsel
/// boundaries, same results). Operators take `const ExecContext*` defaulting
/// to nullptr, which resolves to Default().
struct ExecContext {
  static constexpr size_t kDefaultMorselSize = 64 * 1024;

  ThreadPool* pool = nullptr;       ///< not owned; null => serial
  size_t morsel_size = kDefaultMorselSize;

  /// Process-wide default: a lazily created shared pool sized by the
  /// MIP_THREADS environment variable (unset => HardwareThreads();
  /// <= 1 => serial, no pool). The pool lives for the process lifetime; a
  /// forked child gets a fresh pool of the same size.
  static const ExecContext& Default();

  /// A context that always executes serially (no pool).
  static const ExecContext& Serial();

  /// `ctx` if non-null, Default() otherwise — the resolution rule every
  /// operator applies to its optional exec parameter.
  static const ExecContext& Resolve(const ExecContext* ctx) {
    return ctx != nullptr ? *ctx : Default();
  }

  /// Runs `body(morsel_index, begin, end)` for each morsel of [0, n), in
  /// parallel when a pool is present (one ParallelFor chunk per morsel),
  /// serially in morsel order otherwise. Bodies for different morsels must
  /// be independent (disjoint writes or per-morsel partial states).
  void ForEachMorsel(
      size_t n,
      const std::function<void(size_t morsel, size_t begin, size_t end)>&
          body) const;

  /// Number of morsels covering [0, n).
  size_t NumMorsels(size_t n) const {
    const size_t m = morsel_size == 0 ? kDefaultMorselSize : morsel_size;
    return n == 0 ? 0 : (n + m - 1) / m;
  }
};

}  // namespace mip::engine

#endif  // MIP_ENGINE_EXEC_CONTEXT_H_

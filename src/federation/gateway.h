#ifndef MIP_FEDERATION_GATEWAY_H_
#define MIP_FEDERATION_GATEWAY_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/result.h"
#include "engine/database.h"
#include "net/transport.h"

namespace mip::smpc {
class SmpcCluster;
}

namespace mip::federation {

/// \brief LRU result cache for the gateway, keyed by (optimized plan
/// fingerprint, catalog version) with single-flight computation.
///
/// Keying off the *optimized plan* instead of the SQL text means two
/// spellings of the same question share an entry, while any semantic
/// difference (predicate, projection, limit, source) diverges. The catalog
/// version in the key makes invalidation implicit: every DDL/DML bumps it,
/// so stale entries simply stop matching and age out of the LRU.
///
/// Single-flight: concurrent callers of one key elect a leader that computes
/// while the rest wait; the result is computed once. A failing leader does
/// not poison the key — one waiter takes over and retries.
class ResultCache {
 public:
  /// (PlanFingerprint, Database::catalog_version).
  using Key = std::pair<uint64_t, uint64_t>;

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;     ///< leader computations started
    uint64_t coalesced = 0;  ///< waiters that rode a leader's computation
    uint64_t evictions = 0;  ///< entries dropped by the capacity bound
  };

  explicit ResultCache(size_t capacity) : capacity_(capacity) {}

  /// Returns the cached table for `key`, or runs `compute` — once across
  /// all concurrent callers of the same key — and caches its result.
  /// `compute` runs without the cache lock held.
  Result<engine::Table> GetOrCompute(
      const Key& key, const std::function<Result<engine::Table>()>& compute);

  void Clear();
  size_t size() const;
  Stats stats() const;

 private:
  struct InFlight {
    bool done = false;
    Status status;
    engine::Table table;
  };
  using LruList = std::list<std::pair<Key, engine::Table>>;

  size_t capacity_;
  mutable std::mutex mu_;
  /// Signaled when any in-flight computation completes.
  std::condition_variable cv_;
  LruList lru_;  ///< most recently used first
  std::map<Key, LruList::iterator> index_;
  std::map<Key, std::shared_ptr<InFlight>> inflight_;
  Stats stats_;
};

struct GatewayOptions {
  /// Endpoint id the gateway serves under (Envelope::to routing key).
  std::string node_id = "gateway";
  /// Global admission cap: requests in flight beyond this are shed with a
  /// typed BUSY (kResourceExhausted) reply instead of queuing unboundedly.
  size_t max_in_flight = 64;
  /// Per-tenant quota (tenant = Envelope::from): one noisy dashboard cannot
  /// starve the others even below the global cap.
  size_t per_tenant_in_flight = 16;
  /// Result cache entries (0 disables caching: every SELECT recomputes).
  size_t cache_capacity = 128;
};

/// Message types the gateway endpoint understands.
inline constexpr char kGatewayRunSql[] = "run_sql";
inline constexpr char kGatewayMetrics[] = "metrics";

/// \brief Multi-tenant SQL serving front end over a (typically federated)
/// Database: admission control, per-tenant quotas, a fingerprint-keyed
/// result cache, and a /metrics-style observability surface.
///
/// Protocol ("run_sql" mirrors the worker endpoint, so any existing client
/// works): payload = WriteString(sql); reply = SerializeTableForWire(result).
/// Shed requests answer Status kResourceExhausted ("BUSY") — retryable by
/// client backoff but deliberately NOT auto-retried by the federation
/// fan-out, because hammering an overloaded node makes it worse. "metrics"
/// replies with the MetricsText() bytes.
///
/// Thread safety: handlers run concurrently (the epoll server's pool). The
/// hosted Database is guarded by a shared_mutex: a SELECT plans and
/// executes under it shared (planning's schema/stats caches carry their own
/// lock), so concurrent SELECTs and cache hits overlap while remote round
/// trips happen; only DDL/DML take it exclusively.
class Gateway {
 public:
  explicit Gateway(engine::Database* db,
                   GatewayOptions options = GatewayOptions());

  /// Registers this gateway as endpoint options().node_id on `transport`
  /// (works for both the in-process bus and a TCP transport).
  Status Attach(net::Transport* transport);

  /// Optional: the transport whose link_histograms() feed MetricsText's
  /// per-link section (usually the transport carrying worker traffic).
  void set_link_source(const net::Transport* transport) {
    link_source_ = transport;
  }

  /// Optional: the SMPC cluster whose per-op latency histograms and
  /// transfer counters feed MetricsText's "# smpc" section.
  void set_smpc_source(const smpc::SmpcCluster* cluster) {
    smpc_source_ = cluster;
  }

  /// The endpoint handler: admission -> quota -> cache -> execute.
  Result<std::vector<uint8_t>> Handle(const net::Envelope& envelope);

  struct Stats {
    uint64_t admitted = 0;
    uint64_t shed_capacity = 0;  ///< BUSY: global in-flight cap hit
    uint64_t shed_quota = 0;     ///< BUSY: per-tenant quota hit
    uint64_t served = 0;         ///< requests answered successfully
    uint64_t errors = 0;         ///< requests answered with an error status
  };
  Stats stats() const;
  ResultCache& cache() { return cache_; }
  const GatewayOptions& options() const { return options_; }

  /// Plain-text metrics: admission and cache counters, log-linear latency
  /// quantiles (p50/p99/p999) per tenant and per link, and — when the
  /// hosted database has disk storage attached — the storage layer's
  /// lifetime counters (segments scanned/pruned, index probes/hits,
  /// flushes, compactions, WAL replays).
  std::string MetricsText() const;

 private:
  Result<std::vector<uint8_t>> RunSql(const net::Envelope& envelope);
  /// Runs one statement under db_mu_, a SELECT through the result cache
  /// when cache_capacity > 0.
  Result<engine::Table> Execute(const std::string& sql);

  engine::Database* db_;
  GatewayOptions options_;
  ResultCache cache_;
  const net::Transport* link_source_ = nullptr;
  const smpc::SmpcCluster* smpc_source_ = nullptr;

  /// Catalog lock: shared for SELECT/EXPLAIN, exclusive for DDL/DML (see
  /// the class comment).
  std::shared_mutex db_mu_;

  mutable std::mutex mu_;  ///< admission counters, stats, tenant tables
  size_t in_flight_ = 0;
  std::map<std::string, size_t> tenant_in_flight_;
  std::map<std::string, LatencyHistogram> tenant_hist_;
  Stats stats_;
};

}  // namespace mip::federation

#endif  // MIP_FEDERATION_GATEWAY_H_

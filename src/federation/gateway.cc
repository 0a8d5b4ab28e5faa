#include "federation/gateway.h"

#include <cstdio>
#include <utility>

#include "common/bytes.h"
#include "common/stopwatch.h"
#include "engine/sql_parser.h"
#include "engine/table.h"
#include "smpc/cluster.h"

namespace mip::federation {

// --- ResultCache -----------------------------------------------------------

Result<engine::Table> ResultCache::GetOrCompute(
    const Key& key, const std::function<Result<engine::Table>()>& compute) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto hit = index_.find(key);
    if (hit != index_.end()) {
      lru_.splice(lru_.begin(), lru_, hit->second);  // mark most recent
      stats_.hits += 1;
      return hit->second->second;
    }
    auto flying = inflight_.find(key);
    if (flying == inflight_.end()) break;  // become the leader
    // Wait for the leader; on its failure loop back and retry (the next
    // round either finds a cached entry, a new leader, or elects us).
    std::shared_ptr<InFlight> state = flying->second;
    stats_.coalesced += 1;
    cv_.wait(lock, [&] { return state->done; });
    if (state->status.ok()) return state->table;
  }

  auto state = std::make_shared<InFlight>();
  inflight_.emplace(key, state);
  stats_.misses += 1;
  lock.unlock();

  Result<engine::Table> result = compute();

  lock.lock();
  inflight_.erase(key);
  state->done = true;
  if (result.ok()) {
    state->status = Status::OK();
    state->table = result.ValueOrDie();
    lru_.emplace_front(key, state->table);
    index_[key] = lru_.begin();
    while (lru_.size() > capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
      stats_.evictions += 1;
    }
  } else {
    state->status = result.status();
  }
  cv_.notify_all();
  return result;
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// --- Gateway ---------------------------------------------------------------

Gateway::Gateway(engine::Database* db, GatewayOptions options)
    : db_(db),
      options_(std::move(options)),
      cache_(options_.cache_capacity) {}

Status Gateway::Attach(net::Transport* transport) {
  return transport->RegisterEndpoint(
      options_.node_id,
      [this](const net::Envelope& envelope) { return Handle(envelope); });
}

Result<std::vector<uint8_t>> Gateway::Handle(const net::Envelope& envelope) {
  const std::string tenant =
      envelope.from.empty() ? "anonymous" : envelope.from;
  if (envelope.type == kGatewayMetrics) {
    const std::string text = MetricsText();
    return std::vector<uint8_t>(text.begin(), text.end());
  }
  if (envelope.type != kGatewayRunSql) {
    return Status::InvalidArgument("gateway does not handle message type '" +
                                   envelope.type + "'");
  }

  // Admission control: shed instead of queue. The BUSY status crosses the
  // wire typed (kResourceExhausted), so clients can back off deliberately
  // rather than treat it as a node failure.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (in_flight_ >= options_.max_in_flight) {
      stats_.shed_capacity += 1;
      return Status::ResourceExhausted(
          "BUSY: gateway at max in-flight (" +
          std::to_string(options_.max_in_flight) + "); retry with backoff");
    }
    size_t& tenant_count = tenant_in_flight_[tenant];
    if (tenant_count >= options_.per_tenant_in_flight) {
      stats_.shed_quota += 1;
      return Status::ResourceExhausted(
          "BUSY: tenant '" + tenant + "' at quota (" +
          std::to_string(options_.per_tenant_in_flight) +
          " in flight); retry with backoff");
    }
    in_flight_ += 1;
    tenant_count += 1;
    stats_.admitted += 1;
  }

  Stopwatch sw;
  Result<std::vector<uint8_t>> reply = RunSql(envelope);
  {
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_ -= 1;
    tenant_in_flight_[tenant] -= 1;
    tenant_hist_[tenant].Record(sw.ElapsedMillis());
    if (reply.ok()) {
      stats_.served += 1;
    } else {
      stats_.errors += 1;
    }
  }
  return reply;
}

Result<std::vector<uint8_t>> Gateway::RunSql(const net::Envelope& envelope) {
  BufferReader reader(envelope.payload);
  MIP_ASSIGN_OR_RETURN(std::string sql, reader.ReadString());
  MIP_ASSIGN_OR_RETURN(engine::Table table, Execute(sql));
  BufferWriter writer;
  engine::SerializeTableForWire(table, &writer);
  return writer.TakeBytes();
}

Result<engine::Table> Gateway::Execute(const std::string& sql) {
  if (!engine::IsReadOnlySql(sql)) {
    // DDL/DML change the catalog and move its version: exclusive.
    std::unique_lock<std::shared_mutex> exclusive(db_mu_);
    return db_->ExecuteSql(sql);
  }
  // A SELECT only reads the catalog, so it plans and executes under the
  // shared lock: concurrent SELECTs, cache hits included, overlap while
  // remote round trips are in flight. The cache key's version is read in
  // the same scope, so it names exactly the catalog this execution reads.
  std::shared_lock<std::shared_mutex> shared(db_mu_);
  MIP_ASSIGN_OR_RETURN(engine::PlanPtr plan, db_->TryPlanSelectSql(sql));
  if (plan == nullptr) return db_->ExecuteSql(sql);  // EXPLAIN
  if (options_.cache_capacity == 0) {
    return db_->ExecutePlannedSelect(*plan);
  }
  const ResultCache::Key key{engine::PlanFingerprint(*plan),
                             db_->catalog_version()};
  return cache_.GetOrCompute(
      key, [&] { return db_->ExecutePlannedSelect(*plan); });
}

Gateway::Stats Gateway::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string Gateway::MetricsText() const {
  std::string out;
  char line[256];
  const ResultCache::Stats cache = cache_.stats();
  const size_t entries = cache_.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    out += "# gateway admission\n";
    std::snprintf(line, sizeof(line),
                  "gateway_admitted %llu\ngateway_shed_capacity %llu\n"
                  "gateway_shed_quota %llu\ngateway_served %llu\n"
                  "gateway_errors %llu\ngateway_in_flight %llu\n",
                  static_cast<unsigned long long>(stats_.admitted),
                  static_cast<unsigned long long>(stats_.shed_capacity),
                  static_cast<unsigned long long>(stats_.shed_quota),
                  static_cast<unsigned long long>(stats_.served),
                  static_cast<unsigned long long>(stats_.errors),
                  static_cast<unsigned long long>(in_flight_));
    out += line;
    out += "# result cache\n";
    std::snprintf(line, sizeof(line),
                  "cache_hits %llu\ncache_misses %llu\ncache_coalesced "
                  "%llu\ncache_evictions %llu\ncache_entries %llu\n",
                  static_cast<unsigned long long>(cache.hits),
                  static_cast<unsigned long long>(cache.misses),
                  static_cast<unsigned long long>(cache.coalesced),
                  static_cast<unsigned long long>(cache.evictions),
                  static_cast<unsigned long long>(entries));
    out += line;
    out += "# tenant latency (ms)\n";
    for (const auto& [tenant, hist] : tenant_hist_) {
      out += "tenant{id=\"" + tenant + "\"} " + hist.Summary() + "\n";
    }
  }
  if (link_source_ != nullptr) {
    out += "# link latency (ms)\n";
    for (const auto& [link, hist] : link_source_->link_histograms()) {
      out += "link{id=\"" + link + "\"} " + hist.Summary() + "\n";
    }
  }
  if (smpc_source_ != nullptr) {
    out += "# smpc\n";
    out += smpc_source_->MetricsText();
  }
  if (db_ != nullptr && db_->storage() != nullptr) {
    const engine::StorageCounters sc = db_->storage()->Counters();
    out += "# storage\n";
    std::snprintf(line, sizeof(line),
                  "storage_segments_scanned %llu\n"
                  "storage_segments_pruned %llu\n"
                  "storage_index_probes %llu\nstorage_index_hits %llu\n"
                  "storage_flushes %llu\nstorage_compactions %llu\n"
                  "storage_wal_replays %llu\n",
                  static_cast<unsigned long long>(sc.segments_scanned),
                  static_cast<unsigned long long>(sc.segments_pruned),
                  static_cast<unsigned long long>(sc.index_probes),
                  static_cast<unsigned long long>(sc.index_hits),
                  static_cast<unsigned long long>(sc.flushes),
                  static_cast<unsigned long long>(sc.compactions),
                  static_cast<unsigned long long>(sc.wal_replays));
    out += line;
  }
  if (db_ != nullptr) {
    const engine::JoinCounters* jc = db_->join_counters();
    out += "# joins\n";
    std::snprintf(
        line, sizeof(line),
        "joins_planned %llu\njoins_broadcast_chosen %llu\n"
        "joins_collect_chosen %llu\njoin_build_rows %llu\n"
        "join_probe_rows %llu\n",
        static_cast<unsigned long long>(
            jc->joins_planned.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            jc->broadcast_chosen.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            jc->collect_chosen.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            jc->build_rows.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            jc->probe_rows.load(std::memory_order_relaxed)));
    out += line;
  }
  return out;
}

}  // namespace mip::federation

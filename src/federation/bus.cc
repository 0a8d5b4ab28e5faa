#include "federation/bus.h"

#include "common/stopwatch.h"

namespace mip::federation {

Status MessageBus::RegisterEndpoint(const std::string& node_id,
                                    Handler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  if (endpoints_.count(node_id) > 0) {
    return Status::AlreadyExists("endpoint '" + node_id +
                                 "' already registered");
  }
  endpoints_.emplace(node_id, std::move(handler));
  return Status::OK();
}

void MessageBus::MeterCodec(const std::string& from, const std::string& to,
                            uint64_t raw_bytes, uint64_t wire_bytes) {
  const std::string link = from + "->" + to;
  std::lock_guard<std::mutex> lock(mu_);
  stats_.bytes_raw += raw_bytes;
  stats_.bytes_wire += wire_bytes;
  link_stats_[link].bytes_raw += raw_bytes;
  link_stats_[link].bytes_wire += wire_bytes;
}

Result<std::vector<uint8_t>> MessageBus::Send(Envelope envelope) {
  const Handler* handler = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = endpoints_.find(envelope.to);
    if (it == endpoints_.end()) {
      return Status::NotFound("no endpoint '" + envelope.to + "' on the bus");
    }
    // Map nodes are stable and registration happens before traffic, so the
    // handler pointer stays valid outside the lock.
    handler = &it->second;
  }

  const uint64_t request_bytes = envelope.payload.size();
  const std::string link = envelope.from + "->" + envelope.to;

  // Fault injection simulates the wire: the sleep/drop happens before the
  // destination handler runs, outside the bus lock so links overlap.
  if (injector_ != nullptr) {
    Status fault = injector_->BeforeDeliver(envelope);
    if (!fault.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.messages += 1;
      stats_.bytes += request_bytes;
      link_stats_[link].messages += 1;
      link_stats_[link].bytes += request_bytes;
      return fault;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.messages += 1;
    stats_.bytes += request_bytes;
    link_stats_[link].messages += 1;
    link_stats_[link].bytes += request_bytes;
  }

  Stopwatch rtt;
  Result<std::vector<uint8_t>> reply = (*handler)(envelope);
  if (!reply.ok()) return reply;

  const double wall = rtt.ElapsedMillis();
  const uint64_t reply_bytes = reply.ValueOrDie().size();
  const std::string reverse = envelope.to + "->" + envelope.from;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.messages += 1;
    stats_.bytes += reply_bytes;
    stats_.round_trips += 1;
    stats_.wall_ms += wall;
    // Measured wall time is charged to the forward link at completion,
    // mirroring the TCP transport's round-trip accounting.
    NetworkStats& fwd = link_stats_[link];
    fwd.round_trips += 1;
    fwd.wall_ms += wall;
    link_stats_[reverse].messages += 1;
    link_stats_[reverse].bytes += reply_bytes;
    if (keep_log_) {
      log_.push_back({envelope.from, envelope.to, envelope.type,
                      request_bytes, reply_bytes});
    }
  }
  return reply;
}

NetworkStats MessageBus::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::map<std::string, NetworkStats> MessageBus::link_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return link_stats_;
}

void MessageBus::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = NetworkStats();
  link_stats_.clear();
}

std::vector<MessageBus::LogEntry> MessageBus::log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

void MessageBus::ClearLog() {
  std::lock_guard<std::mutex> lock(mu_);
  log_.clear();
}

void MessageBus::set_keep_log(bool keep) {
  std::lock_guard<std::mutex> lock(mu_);
  keep_log_ = keep;
}

}  // namespace mip::federation

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

  // Fault injection simulates the wire: the sleep/drop happens before the
  // destination handler runs, outside the bus lock so links overlap.
  if (injector_ != nullptr) {
    Status fault = injector_->BeforeDeliver(envelope);
    if (!fault.ok()) {
      MeterRequest(envelope.from, envelope.to, request_bytes);
      return fault;
    }
  }

  Stopwatch rtt;
  Result<std::vector<uint8_t>> reply = (*handler)(envelope);
  if (!reply.ok()) {
    MeterRequest(envelope.from, envelope.to, request_bytes);
    return reply;
  }
  const uint64_t reply_bytes = reply.ValueOrDie().size();
  MeterRoundTrip(envelope.from, envelope.to, request_bytes, reply_bytes,
                 rtt.ElapsedMillis());
  std::lock_guard<std::mutex> lock(mu_);
  if (keep_log_) {
    log_.push_back({envelope.from, envelope.to, envelope.type, request_bytes,
                    reply_bytes});
  }
  return reply;
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

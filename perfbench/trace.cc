// Span recording and the pass-through decorators of the traced run.

#include <algorithm>
#include <chrono>

#include "bench.h"

namespace perfbench {

namespace {

thread_local uint64_t t_current_op = 0;

}  // namespace

double NowMs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out = std::move(spans_);
  spans_.clear();
  return out;
}

uint64_t Tracer::CurrentOp() const {
  return t_current_op != 0 ? t_current_op : fallback_op_.load();
}

void Tracer::BeginCall(uint64_t key, uint64_t op) {
  std::lock_guard<std::mutex> lock(mu_);
  calls_[key] = op;
}

void Tracer::EndCall(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  calls_.erase(key);
}

uint64_t Tracer::LookupCall(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = calls_.find(key);
  return it != calls_.end() ? it->second : 0;
}

ScopedOp::ScopedOp(uint64_t op) : previous_(t_current_op) {
  t_current_op = op;
}

ScopedOp::~ScopedOp() { t_current_op = previous_; }

uint64_t RequestKey(const mip::net::Envelope& envelope) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const uint8_t* data, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h ^= data[i];
      h *= 1099511628211ull;
    }
    h ^= 0xFF;  // field separator
    h *= 1099511628211ull;
  };
  for (const std::string* s : {&envelope.to, &envelope.type, &envelope.job_id}) {
    mix(reinterpret_cast<const uint8_t*>(s->data()), s->size());
  }
  mix(envelope.payload.data(), envelope.payload.size());
  return h;
}

Status TracingTransport::RegisterEndpoint(const std::string& node_id,
                                          Handler handler) {
  Tracer* tracer = tracer_;
  return inner_->RegisterEndpoint(
      node_id, [tracer, handler = std::move(handler)](
                   const mip::net::Envelope& envelope)
                   -> Result<std::vector<uint8_t>> {
        Span span;
        span.key = RequestKey(envelope);
        const uint64_t caller = tracer->LookupCall(span.key);
        span.op = caller != 0 ? caller : tracer->CurrentOp();
        span.name = "worker." + envelope.type;
        ScopedOp scope(span.op);
        span.start_ms = NowMs();
        Result<std::vector<uint8_t>> reply = handler(envelope);
        span.end_ms = NowMs();
        span.ok = reply.ok();
        tracer->Record(std::move(span));
        return reply;
      });
}

Result<std::vector<uint8_t>> TracingTransport::Send(
    mip::net::Envelope envelope) {
  Span span;
  span.key = RequestKey(envelope);
  span.op = tracer_->CurrentOp();
  span.name = "remote." + envelope.type;
  tracer_->BeginCall(span.key, span.op);
  span.start_ms = NowMs();
  Result<std::vector<uint8_t>> reply = inner_->Send(std::move(envelope));
  span.end_ms = NowMs();
  tracer_->EndCall(span.key);
  span.ok = reply.ok();
  tracer_->Record(std::move(span));
  return reply;
}

Result<Table> TracingStorage::TimedScan(const char* span_name, bool use_index,
                                        const std::string& name,
                                        const mip::engine::Expr* prune_filter,
                                        mip::engine::ScanStats* stats) const {
  Span span;
  span.op = tracer_->CurrentOp();
  span.name = span_name;
  span.start_ms = NowMs();
  Result<Table> table =
      use_index ? inner_->IndexScanTable(name, prune_filter, &span.scan)
                : inner_->ScanTable(name, prune_filter, &span.scan);
  span.end_ms = NowMs();
  span.ok = table.ok();
  if (table.ok()) span.rows_out = static_cast<int64_t>(table->num_rows());
  if (stats != nullptr) *stats = span.scan;
  tracer_->Record(std::move(span));
  return table;
}

Result<Table> TracingStorage::ScanTable(const std::string& name,
                                        const mip::engine::Expr* prune_filter,
                                        mip::engine::ScanStats* stats) const {
  return TimedScan("storage.scan", false, name, prune_filter, stats);
}

Result<Table> TracingStorage::IndexScanTable(
    const std::string& name, const mip::engine::Expr* prune_filter,
    mip::engine::ScanStats* stats) const {
  return TimedScan("storage.index_scan", true, name, prune_filter, stats);
}

Status TracingStorage::AppendRows(const std::string& name, const Table& rows) {
  Span span;
  span.op = tracer_->CurrentOp();
  span.name = "storage.append";
  span.start_ms = NowMs();
  Status st = inner_->AppendRows(name, rows);
  span.end_ms = NowMs();
  span.ok = st.ok();
  tracer_->Record(std::move(span));
  return st;
}

}  // namespace perfbench

#include "net/transport.h"

namespace mip::net {

double SimulatedLinkSeconds(uint64_t messages, uint64_t bytes,
                            double latency_ms_per_message,
                            double bandwidth_mbps) {
  const double latency =
      static_cast<double>(messages) * latency_ms_per_message / 1e3;
  const double transfer =
      static_cast<double>(bytes) * 8.0 / (bandwidth_mbps * 1e6);
  return latency + transfer;
}

NetworkStats Transport::stats() const {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  return stats_;
}

std::map<std::string, NetworkStats> Transport::link_stats() const {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  return link_stats_;
}

std::map<std::string, LatencyHistogram> Transport::link_histograms() const {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  return link_hist_;
}

void Transport::ResetStats() {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  stats_ = NetworkStats();
  link_stats_.clear();
  link_hist_.clear();
}

void Transport::MeterCodec(const std::string& from, const std::string& to,
                           uint64_t raw_bytes, uint64_t wire_bytes) {
  const std::string link = from + "->" + to;
  std::lock_guard<std::mutex> lock(ledger_mu_);
  stats_.bytes_raw += raw_bytes;
  stats_.bytes_wire += wire_bytes;
  NetworkStats& s = link_stats_[link];
  s.bytes_raw += raw_bytes;
  s.bytes_wire += wire_bytes;
}

void Transport::MeterRequest(const std::string& from, const std::string& to,
                             uint64_t bytes) {
  const std::string link = from + "->" + to;
  std::lock_guard<std::mutex> lock(ledger_mu_);
  stats_.messages += 1;
  stats_.bytes += bytes;
  NetworkStats& s = link_stats_[link];
  s.messages += 1;
  s.bytes += bytes;
}

void Transport::MeterRoundTrip(const std::string& from, const std::string& to,
                               uint64_t request_bytes, uint64_t reply_bytes,
                               double wall_ms) {
  const std::string link = from + "->" + to;
  const std::string reverse = to + "->" + from;
  std::lock_guard<std::mutex> lock(ledger_mu_);
  stats_.messages += 2;
  stats_.bytes += request_bytes + reply_bytes;
  stats_.round_trips += 1;
  stats_.wall_ms += wall_ms;
  NetworkStats& fwd = link_stats_[link];
  fwd.messages += 1;
  fwd.bytes += request_bytes;
  fwd.round_trips += 1;
  fwd.wall_ms += wall_ms;
  link_hist_[link].Record(wall_ms);
  NetworkStats& rev = link_stats_[reverse];
  rev.messages += 1;
  rev.bytes += reply_bytes;
}

}  // namespace mip::net

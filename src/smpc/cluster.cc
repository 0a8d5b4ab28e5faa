#include "smpc/cluster.h"

#include <algorithm>
#include <sstream>

#include "common/stopwatch.h"
#include "net/transport.h"
#include "smpc/field.h"
#include "smpc/wire.h"

namespace mip::smpc {

namespace {
/// Columnar wire blocks one node's share column of `n` elements ships in.
size_t WireBlocks(size_t n) {
  return (n + wire::kDefaultBlockElems - 1) / wire::kDefaultBlockElems;
}
}  // namespace

double SmpcCostStats::SimulatedNetworkSeconds(const SmpcConfig& config) const {
  // One protocol round = one latency-bound message exchange; the formula
  // itself lives in net (shared with the federation link model).
  return net::SimulatedLinkSeconds(rounds, bytes_transferred,
                                   config.round_latency_ms,
                                   config.bandwidth_mbps);
}

SmpcCluster::SmpcCluster(SmpcConfig config)
    : config_(config),
      rng_(config.seed),
      codec_(config.frac_bits),
      dealer_(config.num_nodes, config.seed ^ 0xD15EA5E0FF1CE000ull),
      shamir_(config.threshold, config.num_nodes) {}

void SmpcCluster::PrecomputeTriples(size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  Stopwatch sw;
  dealer_.PrecomputeTriples(count);
  const double ms = sw.ElapsedMillis();
  stats_.offline_seconds += ms / 1e3;
  stats_.triple_ms.Record(ms);
}

void SmpcCluster::AccountTransfer(uint64_t bytes, uint64_t rounds) {
  stats_.bytes_transferred += bytes;
  stats_.rounds += rounds;
}

uint64_t SmpcCluster::MeasureFtWire(const SpdzMatrix& m) {
  uint64_t bytes = 0;
  for (const SpdzVec& node : m) {
    bytes += wire::MeasureLimbBlocks(node.values.data(), node.size());
    bytes += wire::MeasureLimbBlocks(node.macs.data(), node.size());
    stats_.wire_blocks += 2 * WireBlocks(node.size());
  }
  return bytes;
}

uint64_t SmpcCluster::MeasureShamirWire(
    const std::vector<std::vector<uint64_t>>& m) {
  uint64_t bytes = 0;
  for (const std::vector<uint64_t>& node : m) {
    bytes += wire::MeasureLimbBlocks(node.data(), node.size());
    stats_.wire_blocks += WireBlocks(node.size());
  }
  return bytes;
}

Status SmpcCluster::ImportShares(const std::string& job_id,
                                 const std::vector<double>& values) {
  std::lock_guard<std::mutex> lock(mu_);
  Stopwatch sw;
  MIP_ASSIGN_OR_RETURN(std::vector<uint64_t> encoded,
                       codec_.EncodeVector(values));
  if (config_.scheme == SmpcScheme::kFullThreshold) {
    // Authenticated sharing per the active-security import mechanism:
    // every node receives a value-limb column plus a MAC-limb column,
    // shipped as columnar wire blocks.
    SpdzMatrix m = dealer_.ShareVectorBatch(encoded, Exec());
    AccountTransfer(MeasureFtWire(m), 1);
    ft_jobs_[job_id].contributions.push_back(std::move(m));
  } else {
    auto shares = shamir_.ShareVectorBatch(encoded, &rng_, Exec());
    AccountTransfer(MeasureShamirWire(shares), 1);
    shamir_jobs_[job_id].contributions.push_back(std::move(shares));
  }
  const double ms = sw.ElapsedMillis();
  stats_.online_seconds += ms / 1e3;
  stats_.share_ms.Record(ms);
  return Status::OK();
}

std::vector<size_t> SmpcCluster::ContributionLengths(
    const std::string& job_id) const {
  std::vector<size_t> lengths;
  if (config_.scheme == SmpcScheme::kFullThreshold) {
    auto it = ft_jobs_.find(job_id);
    if (it == ft_jobs_.end()) return lengths;
    for (const SpdzMatrix& c : it->second.contributions) {
      lengths.push_back(c[0].size());
    }
  } else {
    auto it = shamir_jobs_.find(job_id);
    if (it == shamir_jobs_.end()) return lengths;
    for (const auto& c : it->second.contributions) {
      lengths.push_back(c[0].size());
    }
  }
  return lengths;
}

size_t SmpcCluster::NumContributions(const std::string& job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ContributionLengths(job_id).size();
}

Status SmpcCluster::Compute(const std::string& job_id, SmpcOp op,
                            const NoiseSpec& noise) {
  std::lock_guard<std::mutex> lock(mu_);
  Stopwatch sw;
  // Both schemes' kernels read every contribution over the first one's
  // length, so the shape is checked once here, before either runs.
  const std::vector<size_t> lengths = ContributionLengths(job_id);
  Status st;
  if (lengths.empty()) {
    st = Status::NotFound("no imported shares for job '" + job_id + "'");
  } else if (op != SmpcOp::kUnion &&
             std::any_of(lengths.begin(), lengths.end(),
                         [&](size_t n) { return n != lengths[0]; })) {
    st = Status::InvalidArgument(
        "contribution vector lengths differ for elementwise op");
  } else if (config_.scheme == SmpcScheme::kFullThreshold) {
    st = ComputeFt(job_id, op, noise);
  } else {
    st = ComputeShamir(job_id, op, noise);
  }
  const double ms = sw.ElapsedMillis();
  stats_.online_seconds += ms / 1e3;
  stats_.online_ms.Record(ms);
  return st;
}

Result<std::vector<double>> SmpcCluster::GetResult(
    const std::string& job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = results_.find(job_id);
  if (it == results_.end()) {
    return Status::NotFound("no finished SMPC computation for job '" +
                            job_id + "'");
  }
  return it->second;
}

Status SmpcCluster::TamperWithShare(int node, const std::string& job_id,
                                    size_t contribution, size_t index,
                                    uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  if (node < 0 || node >= config_.num_nodes) {
    return Status::InvalidArgument("bad node index");
  }
  if (config_.scheme == SmpcScheme::kFullThreshold) {
    auto it = ft_jobs_.find(job_id);
    if (it == ft_jobs_.end() ||
        contribution >= it->second.contributions.size()) {
      return Status::NotFound("no such contribution");
    }
    SpdzVec& share =
        it->second.contributions[contribution][static_cast<size_t>(node)];
    if (index >= share.size()) return Status::OutOfRange("bad element index");
    share.values[index] = Field::Add(share.values[index], delta);
    return Status::OK();
  }
  auto it = shamir_jobs_.find(job_id);
  if (it == shamir_jobs_.end() ||
      contribution >= it->second.contributions.size()) {
    return Status::NotFound("no such contribution");
  }
  auto& share =
      it->second.contributions[contribution][static_cast<size_t>(node)];
  if (index >= share.size()) return Status::OutOfRange("bad element index");
  share[index] = Field::Add(share[index], delta);
  return Status::OK();
}

Result<SpdzMatrix> SmpcCluster::MinMaxFtVec(const SpdzMatrix& x,
                                            const SpdzMatrix& y,
                                            bool want_min) {
  const size_t nodes = x.size();
  const size_t n = x[0].size();
  const VecExec exec = Exec();
  SpdzMatrix d(nodes);
  for (size_t p = 0; p < nodes; ++p) {
    d[p].resize(n);
    field_vec::SubVec(x[p].values.data(), y[p].values.data(), n,
                      d[p].values.data());
    field_vec::SubVec(x[p].macs.data(), y[p].macs.data(), n,
                      d[p].macs.data());
  }
  SpdzMatrix r = dealer_.SharePositiveRandomVec(18, n, exec);
  SpdzTripleBlock triples = dealer_.TakeTriples(n);
  stats_.triples_consumed += n;
  SpdzMatrix z;
  MIP_RETURN_NOT_OK(
      Spdz::MultiplyVec(d, r, triples, dealer_.alpha_shares(), exec, &z));
  stats_.field_mults += 4 * nodes * n;
  std::vector<uint64_t> opened;
  MIP_RETURN_NOT_OK(Spdz::OpenVec(z, dealer_.alpha_shares(), exec, &opened));
  // All blinded differences open in one exchange: two rounds per
  // contribution instead of two per element — the pipelining win.
  AccountTransfer(nodes * 8 * 3 * n, 2);
  SpdzMatrix out(nodes);
  for (auto& v : out) v.resize(n);
  ParallelSpan(n, exec, [&](size_t b, size_t end) {
    for (size_t e = b; e < end; ++e) {
      const bool x_less = opened[e] > Field::kPrime / 2;  // d < 0
      const bool pick_x = want_min ? x_less : !x_less;
      const SpdzMatrix& chosen = pick_x ? x : y;
      for (size_t p = 0; p < nodes; ++p) {
        out[p].values[e] = chosen[p].values[e];
        out[p].macs[e] = chosen[p].macs[e];
      }
    }
  });
  return out;
}

Status SmpcCluster::ComputeFt(const std::string& job_id, SmpcOp op,
                              const NoiseSpec& noise) {
  const auto& contributions = ft_jobs_.at(job_id).contributions;
  const size_t nodes = static_cast<size_t>(config_.num_nodes);
  const size_t n = contributions[0][0].size();
  const VecExec exec = Exec();

  SpdzMatrix acc;
  int scale_power = 1;

  switch (op) {
    case SmpcOp::kSum: {
      acc.assign(nodes, SpdzVec{});
      for (auto& v : acc) v.resize(n);
      for (const SpdzMatrix& contrib : contributions) {
        ParallelSpan(n, exec, [&](size_t b, size_t end) {
          const size_t len = end - b;
          for (size_t p = 0; p < nodes; ++p) {
            field_vec::AddVec(acc[p].values.data() + b,
                              contrib[p].values.data() + b, len,
                              acc[p].values.data() + b);
            field_vec::AddVec(acc[p].macs.data() + b,
                              contrib[p].macs.data() + b, len,
                              acc[p].macs.data() + b);
          }
        });
      }
      break;
    }
    case SmpcOp::kProduct: {
      acc = contributions[0];
      for (size_t c = 1; c < contributions.size(); ++c) {
        SpdzTripleBlock triples = dealer_.TakeTriples(n);
        stats_.triples_consumed += n;
        SpdzMatrix z;
        MIP_RETURN_NOT_OK(Spdz::MultiplyVec(acc, contributions[c], triples,
                                            dealer_.alpha_shares(), exec, &z));
        stats_.field_mults += 4 * nodes * n;
        acc = std::move(z);
        AccountTransfer(nodes * 8 * 2 * n, 1);
        ++scale_power;
      }
      break;
    }
    case SmpcOp::kMin:
    case SmpcOp::kMax: {
      acc = contributions[0];
      for (size_t c = 1; c < contributions.size(); ++c) {
        MIP_ASSIGN_OR_RETURN(
            acc, MinMaxFtVec(acc, contributions[c], op == SmpcOp::kMin));
      }
      break;
    }
    case SmpcOp::kUnion: {
      size_t total = 0;
      for (const auto& contrib : contributions) total += contrib[0].size();
      acc.assign(nodes, SpdzVec{});
      for (size_t p = 0; p < nodes; ++p) {
        acc[p].values.reserve(total);
        acc[p].macs.reserve(total);
        for (const auto& contrib : contributions) {
          acc[p].values.insert(acc[p].values.end(),
                               contrib[p].values.begin(),
                               contrib[p].values.end());
          acc[p].macs.insert(acc[p].macs.end(), contrib[p].macs.begin(),
                             contrib[p].macs.end());
        }
      }
      break;
    }
  }

  // In-protocol DP noise: each node samples its partial noise, gets it
  // authenticated-shared, and the sharings are added before opening. Only
  // meaningful for the (linear) sum aggregate.
  if (noise.kind != NoiseSpec::Kind::kNone && op == SmpcOp::kSum) {
    const size_t n_out = acc[0].size();
    for (int k = 0; k < config_.num_nodes; ++k) {
      std::vector<double> partial(n_out);
      for (double& v : partial) {
        v = SamplePartialNoise(noise, config_.num_nodes, &rng_);
      }
      MIP_ASSIGN_OR_RETURN(std::vector<uint64_t> enc,
                           codec_.EncodeVector(partial));
      SpdzMatrix noise_shares = dealer_.ShareVectorBatch(enc, exec);
      for (size_t p = 0; p < nodes; ++p) {
        field_vec::AddVec(acc[p].values.data(), noise_shares[p].values.data(),
                          n_out, acc[p].values.data());
        field_vec::AddVec(acc[p].macs.data(), noise_shares[p].macs.data(),
                          n_out, acc[p].macs.data());
      }
    }
    AccountTransfer(static_cast<uint64_t>(nodes) * nodes * acc[0].size() * 16,
                    1);
  }

  // Open towards the Master with the MAC check (abort on tamper). Each node
  // broadcasts its value+MAC columns, measured on the columnar wire.
  Stopwatch rec_sw;
  const size_t n_out = acc[0].size();
  std::vector<uint64_t> opened;
  MIP_RETURN_NOT_OK(Spdz::OpenVec(acc, dealer_.alpha_shares(), exec, &opened));
  std::vector<double> result(n_out);
  for (size_t e = 0; e < n_out; ++e) {
    result[e] = codec_.Decode(opened[e], scale_power);
  }
  // One round to reveal + one commit/open round for the MAC check.
  AccountTransfer(MeasureFtWire(acc), 2);
  stats_.field_mults += nodes * n_out;  // sigma computations
  stats_.reconstruct_ms.Record(rec_sw.ElapsedMillis());

  results_[job_id] = std::move(result);
  return Status::OK();
}

Status SmpcCluster::ComputeShamir(const std::string& job_id, SmpcOp op,
                                  const NoiseSpec& noise) {
  const auto& contributions = shamir_jobs_.at(job_id).contributions;
  const size_t nodes = static_cast<size_t>(config_.num_nodes);
  const size_t n = contributions[0][0].size();
  const VecExec exec = Exec();

  std::vector<std::vector<uint64_t>> acc;
  int scale_power = 1;

  switch (op) {
    case SmpcOp::kSum: {
      acc.assign(nodes, std::vector<uint64_t>(n, 0));
      for (const auto& contrib : contributions) {
        ParallelSpan(n, exec, [&](size_t b, size_t end) {
          const size_t len = end - b;
          for (size_t p = 0; p < nodes; ++p) {
            field_vec::AddVec(acc[p].data() + b, contrib[p].data() + b, len,
                              acc[p].data() + b);
          }
        });
      }
      break;
    }
    case SmpcOp::kProduct: {
      acc = contributions[0];
      for (size_t c = 1; c < contributions.size(); ++c) {
        MIP_ASSIGN_OR_RETURN(acc, shamir_.MultiplyReshareBatch(
                                      acc, contributions[c], &rng_, exec));
        stats_.field_mults += nodes * nodes * n;
        AccountTransfer(static_cast<uint64_t>(nodes) * nodes * n * 8, 1);
        ++scale_power;
      }
      break;
    }
    case SmpcOp::kMin:
    case SmpcOp::kMax: {
      acc = contributions[0];
      for (size_t c = 1; c < contributions.size(); ++c) {
        const auto& other = contributions[c];
        // Blinded-sign comparison: all elements' differences are blinded
        // and opened in one exchange (2 rounds per contribution).
        std::vector<std::vector<uint64_t>> d(nodes, std::vector<uint64_t>(n));
        for (size_t p = 0; p < nodes; ++p) {
          field_vec::SubVec(acc[p].data(), other[p].data(), n, d[p].data());
        }
        std::vector<uint64_t> rs(n);
        for (uint64_t& r : rs) r = 1 + rng_.NextBounded((1ull << 18) - 1);
        auto r_shares = shamir_.ShareVectorBatch(rs, &rng_, exec);
        MIP_ASSIGN_OR_RETURN(
            auto z, shamir_.MultiplyReshareBatch(d, r_shares, &rng_, exec));
        MIP_ASSIGN_OR_RETURN(std::vector<uint64_t> opened,
                             shamir_.ReconstructVectorBatch(z, exec));
        AccountTransfer(nodes * 8 * 2 * n, 2);
        std::vector<std::vector<uint64_t>> next(nodes,
                                                std::vector<uint64_t>(n));
        for (size_t e = 0; e < n; ++e) {
          const bool x_less = opened[e] > Field::kPrime / 2;
          const bool pick_x = (op == SmpcOp::kMin) ? x_less : !x_less;
          for (size_t p = 0; p < nodes; ++p) {
            next[p][e] = pick_x ? acc[p][e] : other[p][e];
          }
        }
        acc = std::move(next);
      }
      break;
    }
    case SmpcOp::kUnion: {
      size_t total = 0;
      for (const auto& contrib : contributions) total += contrib[0].size();
      acc.assign(nodes, std::vector<uint64_t>());
      for (size_t p = 0; p < nodes; ++p) {
        acc[p].reserve(total);
        for (const auto& contrib : contributions) {
          acc[p].insert(acc[p].end(), contrib[p].begin(), contrib[p].end());
        }
      }
      break;
    }
  }

  if (noise.kind != NoiseSpec::Kind::kNone && op == SmpcOp::kSum) {
    const size_t n_out = acc[0].size();
    for (int k = 0; k < config_.num_nodes; ++k) {
      std::vector<double> partial(n_out);
      for (double& v : partial) {
        v = SamplePartialNoise(noise, config_.num_nodes, &rng_);
      }
      MIP_ASSIGN_OR_RETURN(std::vector<uint64_t> enc,
                           codec_.EncodeVector(partial));
      auto noise_shares = shamir_.ShareVectorBatch(enc, &rng_, exec);
      for (size_t p = 0; p < nodes; ++p) {
        field_vec::AddVec(acc[p].data(), noise_shares[p].data(), n_out,
                          acc[p].data());
      }
    }
    AccountTransfer(static_cast<uint64_t>(nodes) * nodes * acc[0].size() * 8,
                    1);
  }

  Stopwatch rec_sw;
  MIP_ASSIGN_OR_RETURN(std::vector<uint64_t> opened,
                       shamir_.ReconstructVectorBatch(acc, exec));
  stats_.field_mults += nodes * acc[0].size();  // Lagrange recombination
  AccountTransfer(MeasureShamirWire(acc), 1);
  stats_.reconstruct_ms.Record(rec_sw.ElapsedMillis());

  std::vector<double> result(opened.size());
  for (size_t e = 0; e < opened.size(); ++e) {
    result[e] = codec_.Decode(opened[e], scale_power);
  }
  results_[job_id] = std::move(result);
  return Status::OK();
}

std::string SmpcCluster::MetricsText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "smpc_scheme "
     << (config_.scheme == SmpcScheme::kFullThreshold ? "full_threshold"
                                                      : "shamir")
     << "\n";
  os << "smpc_nodes " << config_.num_nodes << "\n";
  os << "smpc_bytes_transferred " << stats_.bytes_transferred << "\n";
  os << "smpc_rounds " << stats_.rounds << "\n";
  os << "smpc_field_mults " << stats_.field_mults << "\n";
  os << "smpc_triples_consumed " << stats_.triples_consumed << "\n";
  os << "smpc_wire_blocks " << stats_.wire_blocks << "\n";
  os << "smpc_share_ms " << stats_.share_ms.Summary() << "\n";
  os << "smpc_triple_ms " << stats_.triple_ms.Summary() << "\n";
  os << "smpc_online_ms " << stats_.online_ms.Summary() << "\n";
  os << "smpc_reconstruct_ms " << stats_.reconstruct_ms.Summary() << "\n";
  return os.str();
}

}  // namespace mip::smpc

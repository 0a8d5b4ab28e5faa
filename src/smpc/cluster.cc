#include "smpc/cluster.h"

#include <cmath>
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
  if (config_.use_batched_kernels) {
    dealer_.PrecomputeTriples(count);
  } else {
    dealer_.PrecomputeTriplesScalar(count);
  }
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
    SpdzMatrix m = config_.use_batched_kernels
                       ? dealer_.ShareVectorBatch(encoded, Exec())
                       : ToMatrix(dealer_.ShareVector(encoded));
    AccountTransfer(MeasureFtWire(m), 1);
    ft_jobs_[job_id].contributions.push_back(std::move(m));
  } else {
    auto shares = config_.use_batched_kernels
                      ? shamir_.ShareVectorBatch(encoded, &rng_, Exec())
                      : shamir_.ShareVector(encoded, &rng_);
    AccountTransfer(MeasureShamirWire(shares), 1);
    shamir_jobs_[job_id].contributions.push_back(std::move(shares));
  }
  const double ms = sw.ElapsedMillis();
  stats_.online_seconds += ms / 1e3;
  stats_.share_ms.Record(ms);
  return Status::OK();
}

size_t SmpcCluster::NumContributions(const std::string& job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (config_.scheme == SmpcScheme::kFullThreshold) {
    auto it = ft_jobs_.find(job_id);
    return it == ft_jobs_.end() ? 0 : it->second.contributions.size();
  }
  auto it = shamir_jobs_.find(job_id);
  return it == shamir_jobs_.end() ? 0 : it->second.contributions.size();
}

Status SmpcCluster::Compute(const std::string& job_id, SmpcOp op,
                            const NoiseSpec& noise) {
  std::lock_guard<std::mutex> lock(mu_);
  Stopwatch sw;
  Status st = config_.scheme == SmpcScheme::kFullThreshold
                  ? ComputeFt(job_id, op, noise)
                  : ComputeShamir(job_id, op, noise);
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

namespace {

double DecodeWithScalePower(uint64_t v, double scale, int power) {
  double mag;
  double sign = 1.0;
  if (v > Field::kPrime / 2) {
    mag = static_cast<double>(Field::kPrime - v);
    sign = -1.0;
  } else {
    mag = static_cast<double>(v);
  }
  return sign * mag / std::pow(scale, power);
}

// Scalar-path accessors into the SoA share storage.
std::vector<SpdzShare> ElemShares(const SpdzMatrix& m, size_t e) {
  std::vector<SpdzShare> out(m.size());
  for (size_t p = 0; p < m.size(); ++p) {
    out[p] = {m[p].values[e], m[p].macs[e]};
  }
  return out;
}

void SetElem(SpdzMatrix* m, size_t e, const std::vector<SpdzShare>& s) {
  for (size_t p = 0; p < m->size(); ++p) {
    (*m)[p].values[e] = s[p].value;
    (*m)[p].macs[e] = s[p].mac;
  }
}

}  // namespace

Result<SpdzMatrix> SmpcCluster::MinMaxFt(const SpdzMatrix& x,
                                         const SpdzMatrix& y, bool want_min) {
  const size_t nodes = x.size();
  const size_t n = x[0].size();
  SpdzMatrix out(nodes);
  for (auto& v : out) v.resize(n);
  for (size_t e = 0; e < n; ++e) {
    // d = x - y, blinded with a shared positive random r; only sign(d) is
    // revealed, which IS the protocol output for a min/max query.
    std::vector<SpdzShare> xe = ElemShares(x, e);
    std::vector<SpdzShare> ye = ElemShares(y, e);
    std::vector<SpdzShare> d(nodes);
    for (size_t p = 0; p < nodes; ++p) d[p] = Spdz::Sub(xe[p], ye[p]);
    std::vector<SpdzShare> r = dealer_.SharePositiveRandom(18);
    std::vector<SpdzTriple> triple = dealer_.TakeTriple();
    ++stats_.triples_consumed;
    MIP_ASSIGN_OR_RETURN(
        std::vector<SpdzShare> z,
        Spdz::Multiply(d, r, triple, dealer_.alpha_shares()));
    stats_.field_mults += 4 * nodes;
    MIP_ASSIGN_OR_RETURN(uint64_t opened,
                         Spdz::Open(z, dealer_.alpha_shares()));
    AccountTransfer(nodes * 8 * 3, 2);  // eps, delta, z openings
    const bool x_less = opened > Field::kPrime / 2;  // d < 0
    const bool pick_x = want_min ? x_less : !x_less;
    const std::vector<SpdzShare>& chosen = pick_x ? xe : ye;
    SetElem(&out, e, chosen);
  }
  return out;
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
  auto it = ft_jobs_.find(job_id);
  if (it == ft_jobs_.end() || it->second.contributions.empty()) {
    return Status::NotFound("no imported shares for job '" + job_id + "'");
  }
  const auto& contributions = it->second.contributions;
  const size_t nodes = static_cast<size_t>(config_.num_nodes);
  const size_t n = contributions[0][0].size();
  for (const auto& c : contributions) {
    if (c[0].size() != n && op != SmpcOp::kUnion) {
      return Status::InvalidArgument(
          "contribution vector lengths differ for elementwise op");
    }
  }
  const bool batched = config_.use_batched_kernels;
  const VecExec exec = Exec();

  SpdzMatrix acc;
  int scale_power = 1;

  switch (op) {
    case SmpcOp::kSum: {
      acc.assign(nodes, SpdzVec{});
      for (auto& v : acc) v.resize(n);
      for (const SpdzMatrix& contrib : contributions) {
        if (batched) {
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
        } else {
          for (size_t p = 0; p < nodes; ++p) {
            for (size_t e = 0; e < n; ++e) {
              acc[p].values[e] =
                  Field::Add(acc[p].values[e], contrib[p].values[e]);
              acc[p].macs[e] = Field::Add(acc[p].macs[e], contrib[p].macs[e]);
            }
          }
        }
      }
      break;
    }
    case SmpcOp::kProduct: {
      acc = contributions[0];
      for (size_t c = 1; c < contributions.size(); ++c) {
        if (batched) {
          SpdzTripleBlock triples = dealer_.TakeTriples(n);
          stats_.triples_consumed += n;
          SpdzMatrix z;
          MIP_RETURN_NOT_OK(Spdz::MultiplyVec(acc, contributions[c], triples,
                                              dealer_.alpha_shares(), exec,
                                              &z));
          stats_.field_mults += 4 * nodes * n;
          acc = std::move(z);
        } else {
          for (size_t e = 0; e < n; ++e) {
            std::vector<SpdzShare> xe = ElemShares(acc, e);
            std::vector<SpdzShare> ye = ElemShares(contributions[c], e);
            std::vector<SpdzTriple> triple = dealer_.TakeTriple();
            ++stats_.triples_consumed;
            MIP_ASSIGN_OR_RETURN(
                std::vector<SpdzShare> z,
                Spdz::Multiply(xe, ye, triple, dealer_.alpha_shares()));
            stats_.field_mults += 4 * nodes;
            SetElem(&acc, e, z);
          }
        }
        AccountTransfer(nodes * 8 * 2 * n, 1);
        ++scale_power;
      }
      break;
    }
    case SmpcOp::kMin:
    case SmpcOp::kMax: {
      acc = contributions[0];
      for (size_t c = 1; c < contributions.size(); ++c) {
        if (batched) {
          MIP_ASSIGN_OR_RETURN(
              acc, MinMaxFtVec(acc, contributions[c], op == SmpcOp::kMin));
        } else {
          MIP_ASSIGN_OR_RETURN(
              acc, MinMaxFt(acc, contributions[c], op == SmpcOp::kMin));
        }
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
      SpdzMatrix noise_shares = batched
                                    ? dealer_.ShareVectorBatch(enc, exec)
                                    : ToMatrix(dealer_.ShareVector(enc));
      for (size_t p = 0; p < nodes; ++p) {
        if (batched) {
          field_vec::AddVec(acc[p].values.data(),
                            noise_shares[p].values.data(), n_out,
                            acc[p].values.data());
          field_vec::AddVec(acc[p].macs.data(), noise_shares[p].macs.data(),
                            n_out, acc[p].macs.data());
        } else {
          for (size_t e = 0; e < n_out; ++e) {
            acc[p].values[e] =
                Field::Add(acc[p].values[e], noise_shares[p].values[e]);
            acc[p].macs[e] =
                Field::Add(acc[p].macs[e], noise_shares[p].macs[e]);
          }
        }
      }
    }
    AccountTransfer(static_cast<uint64_t>(nodes) * nodes * acc[0].size() * 16,
                    1);
  }

  // Open towards the Master with the MAC check (abort on tamper). Each node
  // broadcasts its value+MAC columns, measured on the columnar wire.
  Stopwatch rec_sw;
  const size_t n_out = acc[0].size();
  std::vector<double> result(n_out);
  if (batched) {
    std::vector<uint64_t> opened;
    MIP_RETURN_NOT_OK(
        Spdz::OpenVec(acc, dealer_.alpha_shares(), exec, &opened));
    for (size_t e = 0; e < n_out; ++e) {
      result[e] = DecodeWithScalePower(opened[e], codec_.scale(), scale_power);
    }
  } else {
    for (size_t e = 0; e < n_out; ++e) {
      MIP_ASSIGN_OR_RETURN(
          uint64_t opened,
          Spdz::Open(ElemShares(acc, e), dealer_.alpha_shares()));
      result[e] = DecodeWithScalePower(opened, codec_.scale(), scale_power);
    }
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
  auto it = shamir_jobs_.find(job_id);
  if (it == shamir_jobs_.end() || it->second.contributions.empty()) {
    return Status::NotFound("no imported shares for job '" + job_id + "'");
  }
  const auto& contributions = it->second.contributions;
  const size_t nodes = static_cast<size_t>(config_.num_nodes);
  const size_t n = contributions[0][0].size();
  const bool batched = config_.use_batched_kernels;
  const VecExec exec = Exec();

  std::vector<std::vector<uint64_t>> acc;
  int scale_power = 1;

  switch (op) {
    case SmpcOp::kSum: {
      acc.assign(nodes, std::vector<uint64_t>(n, 0));
      for (const auto& contrib : contributions) {
        if (batched) {
          ParallelSpan(n, exec, [&](size_t b, size_t end) {
            const size_t len = end - b;
            for (size_t p = 0; p < nodes; ++p) {
              field_vec::AddVec(acc[p].data() + b, contrib[p].data() + b, len,
                                acc[p].data() + b);
            }
          });
        } else {
          for (size_t p = 0; p < nodes; ++p) {
            for (size_t e = 0; e < n; ++e) {
              acc[p][e] = Field::Add(acc[p][e], contrib[p][e]);
            }
          }
        }
      }
      break;
    }
    case SmpcOp::kProduct: {
      acc = contributions[0];
      for (size_t c = 1; c < contributions.size(); ++c) {
        if (batched) {
          MIP_ASSIGN_OR_RETURN(acc, shamir_.MultiplyReshareBatch(
                                        acc, contributions[c], &rng_, exec));
        } else {
          MIP_ASSIGN_OR_RETURN(
              acc, shamir_.MultiplyReshare(acc, contributions[c], &rng_));
        }
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
        if (batched) {
          // Batched blinded-sign comparison: all elements' differences are
          // blinded and opened in one exchange (2 rounds per contribution).
          std::vector<std::vector<uint64_t>> d(nodes,
                                               std::vector<uint64_t>(n));
          for (size_t p = 0; p < nodes; ++p) {
            field_vec::SubVec(acc[p].data(), other[p].data(), n, d[p].data());
          }
          std::vector<uint64_t> rs(n);
          for (uint64_t& r : rs) r = 1 + rng_.NextBounded((1ull << 18) - 1);
          auto r_shares = shamir_.ShareVectorBatch(rs, &rng_, exec);
          MIP_ASSIGN_OR_RETURN(auto z, shamir_.MultiplyReshareBatch(
                                           d, r_shares, &rng_, exec));
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
        } else {
          std::vector<std::vector<uint64_t>> next(nodes,
                                                  std::vector<uint64_t>(n));
          for (size_t e = 0; e < n; ++e) {
            // Blinded-sign comparison, honest-but-curious variant.
            std::vector<std::vector<uint64_t>> d(nodes,
                                                 std::vector<uint64_t>(1));
            for (size_t p = 0; p < nodes; ++p) {
              d[p][0] = Field::Sub(acc[p][e], other[p][e]);
            }
            const uint64_t r = 1 + rng_.NextBounded((1ull << 18) - 1);
            std::vector<uint64_t> r_shares = shamir_.Share(r, &rng_);
            std::vector<std::vector<uint64_t>> rs(nodes,
                                                  std::vector<uint64_t>(1));
            for (size_t p = 0; p < nodes; ++p) rs[p][0] = r_shares[p];
            MIP_ASSIGN_OR_RETURN(auto z,
                                 shamir_.MultiplyReshare(d, rs, &rng_));
            MIP_ASSIGN_OR_RETURN(std::vector<uint64_t> opened,
                                 shamir_.ReconstructVector(z));
            AccountTransfer(nodes * 8 * 2, 2);
            const bool x_less = opened[0] > Field::kPrime / 2;
            const bool pick_x = (op == SmpcOp::kMin) ? x_less : !x_less;
            for (size_t p = 0; p < nodes; ++p) {
              next[p][e] = pick_x ? acc[p][e] : other[p][e];
            }
          }
          acc = std::move(next);
        }
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
      auto noise_shares = batched ? shamir_.ShareVectorBatch(enc, &rng_, exec)
                                  : shamir_.ShareVector(enc, &rng_);
      for (size_t p = 0; p < nodes; ++p) {
        if (batched) {
          field_vec::AddVec(acc[p].data(), noise_shares[p].data(), n_out,
                            acc[p].data());
        } else {
          for (size_t e = 0; e < n_out; ++e) {
            acc[p][e] = Field::Add(acc[p][e], noise_shares[p][e]);
          }
        }
      }
    }
    AccountTransfer(static_cast<uint64_t>(nodes) * nodes * acc[0].size() * 8,
                    1);
  }

  Stopwatch rec_sw;
  std::vector<uint64_t> opened;
  if (batched) {
    MIP_ASSIGN_OR_RETURN(opened, shamir_.ReconstructVectorBatch(acc, exec));
  } else {
    MIP_ASSIGN_OR_RETURN(opened, shamir_.ReconstructVector(acc));
  }
  stats_.field_mults += nodes * acc[0].size();  // Lagrange recombination
  AccountTransfer(MeasureShamirWire(acc), 1);
  stats_.reconstruct_ms.Record(rec_sw.ElapsedMillis());

  std::vector<double> result(opened.size());
  for (size_t e = 0; e < opened.size(); ++e) {
    result[e] = DecodeWithScalePower(opened[e], codec_.scale(), scale_power);
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
  os << "smpc_batched_kernels " << (config_.use_batched_kernels ? 1 : 0)
     << "\n";
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

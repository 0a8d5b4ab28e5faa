#include "smpc/spdz.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "smpc/field.h"

namespace mip::smpc {

SpdzMatrix ToMatrix(const SpdzSharedVector& shares) {
  SpdzMatrix m(shares.size());
  for (size_t p = 0; p < shares.size(); ++p) {
    m[p].resize(shares[p].size());
    for (size_t e = 0; e < shares[p].size(); ++e) {
      m[p].values[e] = shares[p][e].value;
      m[p].macs[e] = shares[p][e].mac;
    }
  }
  return m;
}

namespace {

/// Fused triple-generation kernel: one pass over the morsel's random words
/// computes a, b, c = a*b and every party's (value, mac) share for all three
/// sharings, writing straight into the 6*np output column tails. Templating
/// on the party count makes np, the word stride and every column index a
/// compile-time constant, so the inner loops fully unroll and the column
/// pointers live in registers — measured ~2x over the runtime-np version.
/// The formulas and accumulation order are the scalar MakeTriple/ShareValue
/// ones verbatim (bit-parity pinned in smpc_property_test).
template <int NP>
void FuseTriples(const uint64_t* rand, uint64_t* const* col_in, size_t len,
                 uint64_t alpha) {
  constexpr size_t kPerShare = 2 * (static_cast<size_t>(NP) - 1);
  constexpr size_t kStride = 2 + 3 * kPerShare;
  uint64_t* c[6 * NP];
  for (size_t j = 0; j < 6 * static_cast<size_t>(NP); ++j) c[j] = col_in[j];
  for (size_t t = 0; t < len; ++t) {
    const uint64_t* r = rand + t * kStride;
    const uint64_t a = r[0];
    const uint64_t b = r[1];
    const uint64_t cc = Field::Mul(a, b);
    const uint64_t plains[3] = {a, b, cc};
    for (int s = 0; s < 3; ++s) {
      const size_t off = 2 + static_cast<size_t>(s) * kPerShare;
      uint64_t* const* share_cols = c + s * NP * 2;
      uint64_t vsum = 0;
      uint64_t msum = 0;
      for (int p = 0; p + 1 < NP; ++p) {
        const uint64_t v = r[off + 2 * static_cast<size_t>(p)];
        const uint64_t m = r[off + 2 * static_cast<size_t>(p) + 1];
        share_cols[2 * p][t] = v;
        share_cols[2 * p + 1][t] = m;
        vsum = Field::Add(vsum, v);
        msum = Field::Add(msum, m);
      }
      share_cols[2 * (NP - 1)][t] = Field::Sub(plains[s], vsum);
      share_cols[2 * (NP - 1) + 1][t] =
          Field::Sub(Field::Mul(alpha, plains[s]), msum);
    }
  }
}

/// Runtime-np fallback for party counts without a specialized instantiation.
void FuseTriplesGeneric(const uint64_t* rand, uint64_t* const* col, size_t len,
                        uint64_t alpha, int np, size_t stride,
                        size_t per_share) {
  for (size_t t = 0; t < len; ++t) {
    const uint64_t* r = rand + t * stride;
    const uint64_t a = r[0];
    const uint64_t b = r[1];
    const uint64_t cc = Field::Mul(a, b);
    const uint64_t plains[3] = {a, b, cc};
    for (int s = 0; s < 3; ++s) {
      const size_t off = 2 + static_cast<size_t>(s) * per_share;
      uint64_t* const* share_cols =
          col + static_cast<size_t>(s) * static_cast<size_t>(np) * 2;
      uint64_t vsum = 0;
      uint64_t msum = 0;
      for (int p = 0; p + 1 < np; ++p) {
        const uint64_t v = r[off + 2 * static_cast<size_t>(p)];
        const uint64_t m = r[off + 2 * static_cast<size_t>(p) + 1];
        share_cols[2 * p][t] = v;
        share_cols[2 * p + 1][t] = m;
        vsum = Field::Add(vsum, v);
        msum = Field::Add(msum, m);
      }
      share_cols[2 * (np - 1)][t] = Field::Sub(plains[s], vsum);
      share_cols[2 * (np - 1) + 1][t] =
          Field::Sub(Field::Mul(alpha, plains[s]), msum);
    }
  }
}

using FuseFn = void (*)(const uint64_t*, uint64_t* const*, size_t, uint64_t);

FuseFn FuseForParties(int np) {
  switch (np) {
    case 1: return &FuseTriples<1>;
    case 2: return &FuseTriples<2>;
    case 3: return &FuseTriples<3>;
    case 4: return &FuseTriples<4>;
    case 5: return &FuseTriples<5>;
    case 6: return &FuseTriples<6>;
    case 7: return &FuseTriples<7>;
    case 8: return &FuseTriples<8>;
    default: return nullptr;
  }
}

/// Computes the party-major SoA authenticated sharing of plain[0..n), where
/// party p's (value, mac) random words for element e sit at
/// rand[e * stride + offset + 2p (+ 1)]. The word layout is exactly the draw
/// order of the scalar ShareValue loop, which is what makes every batched
/// sharing bit-identical to its scalar counterpart.
void ShareBatchFromRandom(const uint64_t* plain, size_t n, int np,
                          uint64_t alpha, const uint64_t* rand, size_t stride,
                          size_t offset, const VecExec& exec,
                          SpdzMatrix* out) {
  out->assign(static_cast<size_t>(np), SpdzVec{});
  for (auto& v : *out) v.resize(n);
  ParallelSpan(n, exec, [&](size_t b, size_t end) {
    const size_t len = end - b;
    for (int p = 0; p + 1 < np; ++p) {
      uint64_t* vals = (*out)[static_cast<size_t>(p)].values.data();
      uint64_t* macs = (*out)[static_cast<size_t>(p)].macs.data();
      const size_t base = offset + 2 * static_cast<size_t>(p);
      for (size_t e = b; e < end; ++e) {
        vals[e] = rand[e * stride + base];
        macs[e] = rand[e * stride + base + 1];
      }
    }
    // Closing party: value = x - sum(other values), mac = alpha*x - sum.
    // Serial SubVec folds: Sub(Sub(x, v0), v1) == Sub(x, Add(v0, v1)) in
    // exact modular arithmetic, so no temporary sum buffers are needed and
    // the result is still bit-identical to the scalar loop.
    SpdzVec& last = (*out)[static_cast<size_t>(np) - 1];
    std::copy(plain + b, plain + end, last.values.data() + b);
    field_vec::MulScalarVec(alpha, plain + b, len, last.macs.data() + b);
    for (int p = 0; p + 1 < np; ++p) {
      field_vec::SubVec(last.values.data() + b,
                        (*out)[static_cast<size_t>(p)].values.data() + b, len,
                        last.values.data() + b);
      field_vec::SubVec(last.macs.data() + b,
                        (*out)[static_cast<size_t>(p)].macs.data() + b, len,
                        last.macs.data() + b);
    }
  });
}

}  // namespace

SpdzDealer::SpdzDealer(int num_parties, uint64_t seed)
    : num_parties_(num_parties), rng_(seed) {
  alpha_ = Field::Random(&rng_);
  alpha_shares_.resize(static_cast<size_t>(num_parties_));
  uint64_t sum = 0;
  for (int i = 0; i < num_parties_ - 1; ++i) {
    alpha_shares_[static_cast<size_t>(i)] = Field::Random(&rng_);
    sum = Field::Add(sum, alpha_shares_[static_cast<size_t>(i)]);
  }
  alpha_shares_[static_cast<size_t>(num_parties_ - 1)] =
      Field::Sub(alpha_, sum);
}

std::vector<SpdzShare> SpdzDealer::ShareValue(uint64_t x) {
  std::vector<SpdzShare> shares(static_cast<size_t>(num_parties_));
  const uint64_t mac = Field::Mul(alpha_, x);
  uint64_t vsum = 0;
  uint64_t msum = 0;
  for (int i = 0; i < num_parties_ - 1; ++i) {
    shares[static_cast<size_t>(i)].value = Field::Random(&rng_);
    shares[static_cast<size_t>(i)].mac = Field::Random(&rng_);
    vsum = Field::Add(vsum, shares[static_cast<size_t>(i)].value);
    msum = Field::Add(msum, shares[static_cast<size_t>(i)].mac);
  }
  shares[static_cast<size_t>(num_parties_ - 1)].value = Field::Sub(x, vsum);
  shares[static_cast<size_t>(num_parties_ - 1)].mac = Field::Sub(mac, msum);
  return shares;
}

SpdzSharedVector SpdzDealer::ShareVector(const std::vector<uint64_t>& xs) {
  SpdzSharedVector out(static_cast<size_t>(num_parties_),
                       std::vector<SpdzShare>(xs.size()));
  for (size_t e = 0; e < xs.size(); ++e) {
    std::vector<SpdzShare> shares = ShareValue(xs[e]);
    for (int p = 0; p < num_parties_; ++p) {
      out[static_cast<size_t>(p)][e] = shares[static_cast<size_t>(p)];
    }
  }
  return out;
}

SpdzMatrix SpdzDealer::ShareVectorBatch(const std::vector<uint64_t>& xs,
                                        const VecExec& exec) {
  const size_t n = xs.size();
  const size_t per_elem = 2 * static_cast<size_t>(num_parties_ - 1);
  std::vector<uint64_t> rand(n * per_elem);
  Field::RandomVec(rand.data(), rand.size(), &rng_);
  SpdzMatrix out;
  ShareBatchFromRandom(xs.data(), n, num_parties_, alpha_, rand.data(),
                       per_elem, 0, exec, &out);
  return out;
}

std::vector<SpdzTriple> SpdzDealer::MakeTriple() {
  const uint64_t a = Field::Random(&rng_);
  const uint64_t b = Field::Random(&rng_);
  const uint64_t c = Field::Mul(a, b);
  std::vector<SpdzShare> as = ShareValue(a);
  std::vector<SpdzShare> bs = ShareValue(b);
  std::vector<SpdzShare> cs = ShareValue(c);
  std::vector<SpdzTriple> out(static_cast<size_t>(num_parties_));
  for (int p = 0; p < num_parties_; ++p) {
    out[static_cast<size_t>(p)] = {as[static_cast<size_t>(p)],
                                   bs[static_cast<size_t>(p)],
                                   cs[static_cast<size_t>(p)]};
  }
  return out;
}

void SpdzDealer::GenerateTriplesInto(SpdzTripleBlock* blk, size_t count) {
  // Draw order per triple (matching count scalar MakeTriple calls):
  // a, b, shares(a), shares(b), shares(c) — 2 + 6(np-1) words, flat.
  // Appends to `blk` in place: a long-lived dealer's pool keeps its array
  // capacity across drains, so steady-state refills write into warm,
  // already-faulted memory instead of paying a fresh 4 KiB page fault per
  // ~500 triples (profiling showed first-touch faults rivaling the field
  // arithmetic itself).
  const size_t per_share = 2 * static_cast<size_t>(num_parties_ - 1);
  const size_t stride = 2 + 3 * per_share;
  const int np = num_parties_;
  const size_t ncols = 6 * static_cast<size_t>(np);  // {a,b,c} x p x {v,m}
  // Flat view of the 6*np output columns, ordered (sharing, party, val|mac).
  std::vector<std::vector<uint64_t>*> arrs(ncols);
  {
    SpdzMatrix* mats[3] = {&blk->a, &blk->b, &blk->c};
    for (int s = 0; s < 3; ++s) {
      if (mats[s]->empty()) mats[s]->assign(static_cast<size_t>(np), SpdzVec{});
      for (int p = 0; p < np; ++p) {
        SpdzVec& v = (*mats[s])[static_cast<size_t>(p)];
        v.values.reserve(v.values.size() + count);
        v.macs.reserve(v.macs.size() + count);
        const size_t j = (static_cast<size_t>(s) * static_cast<size_t>(np) +
                          static_cast<size_t>(p)) *
                         2;
        arrs[j] = &v.values;
        arrs[j + 1] = &v.macs;
      }
    }
  }
  const uint64_t alpha = alpha_;
  // Generation streams over cache-resident morsels: draw the morsel's
  // random words, grow each output column by `len` zeros (the fresh tail
  // stays in cache, so the immediate overwrite below never pays the
  // read-for-ownership that writing cold full-size columns would), then one
  // fused pass computes value/mac/closing-party arithmetic while each
  // triple's stride block of words is still in registers. Profiling showed
  // the alternatives — full-size resize() + strided kernel passes — were
  // bound on DRAM round trips, not on the field arithmetic. The formulas
  // and accumulation order are the scalar MakeTriple/ShareValue ones
  // verbatim (bit-parity pinned in smpc_property_test).
  // Fuse granularity: small enough that a morsel's random words plus the 18
  // column tails stay cache-resident. RandomVec draws the stream in order
  // whatever the chunk size, so per-morsel draws keep scalar parity.
  constexpr size_t kMorsel = 1024;
  const FuseFn fixed_fuse = FuseForParties(np);
  std::vector<uint64_t> rand(std::min(count, kMorsel) * stride);
  std::vector<uint64_t*> cols(ncols);
  static const uint64_t kZeros[kMorsel] = {};
  for (size_t m = 0; m < count; m += kMorsel) {
    const size_t len = std::min(kMorsel, count - m);
    Field::RandomVec(rand.data(), len * stride, &rng_);
    for (size_t j = 0; j < ncols; ++j) {
      arrs[j]->insert(arrs[j]->end(), kZeros, kZeros + len);
      cols[j] = arrs[j]->data() + (arrs[j]->size() - len);
    }
    if (fixed_fuse != nullptr) {
      fixed_fuse(rand.data(), cols.data(), len, alpha);
    } else {
      FuseTriplesGeneric(rand.data(), cols.data(), len, alpha, np, stride,
                         per_share);
    }
  }
}

SpdzTripleBlock SpdzDealer::MakeTriples(size_t count) {
  SpdzTripleBlock blk;
  GenerateTriplesInto(&blk, count);
  return blk;
}

namespace {

void EnsureParties(SpdzMatrix* m, int np) {
  if (m->empty()) m->assign(static_cast<size_t>(np), SpdzVec{});
}

}  // namespace

void SpdzDealer::PrecomputeTriples(size_t count) {
  // Generates straight into the pool arrays: no block-adoption copy, and a
  // drained pool's retained capacity makes steady-state refills run in warm
  // memory.
  GenerateTriplesInto(&pool_, count);
  triples_precomputed_ += count;
}

void SpdzDealer::PrecomputeTriplesScalar(size_t count) {
  EnsureParties(&pool_.a, num_parties_);
  EnsureParties(&pool_.b, num_parties_);
  EnsureParties(&pool_.c, num_parties_);
  for (size_t i = 0; i < count; ++i) {
    std::vector<SpdzTriple> t = MakeTriple();
    for (size_t p = 0; p < t.size(); ++p) {
      pool_.a[p].values.push_back(t[p].a.value);
      pool_.a[p].macs.push_back(t[p].a.mac);
      pool_.b[p].values.push_back(t[p].b.value);
      pool_.b[p].macs.push_back(t[p].b.mac);
      pool_.c[p].values.push_back(t[p].c.value);
      pool_.c[p].macs.push_back(t[p].c.mac);
    }
  }
  triples_precomputed_ += count;
}

std::vector<SpdzTriple> SpdzDealer::TakeTriple() {
  const size_t avail = pool_.size();
  if (avail > 0) {
    const size_t e = avail - 1;
    std::vector<SpdzTriple> t(static_cast<size_t>(num_parties_));
    for (size_t p = 0; p < t.size(); ++p) {
      t[p].a = {pool_.a[p].values[e], pool_.a[p].macs[e]};
      t[p].b = {pool_.b[p].values[e], pool_.b[p].macs[e]};
      t[p].c = {pool_.c[p].values[e], pool_.c[p].macs[e]};
      pool_.a[p].resize(e);
      pool_.b[p].resize(e);
      pool_.c[p].resize(e);
    }
    return t;
  }
  ++triples_online_;
  return MakeTriple();
}

SpdzTripleBlock SpdzDealer::TakeTriples(size_t count) {
  SpdzTripleBlock out;
  out.a.assign(static_cast<size_t>(num_parties_), SpdzVec{});
  out.b.assign(static_cast<size_t>(num_parties_), SpdzVec{});
  out.c.assign(static_cast<size_t>(num_parties_), SpdzVec{});
  for (int p = 0; p < num_parties_; ++p) {
    out.a[static_cast<size_t>(p)].resize(count);
    out.b[static_cast<size_t>(p)].resize(count);
    out.c[static_cast<size_t>(p)].resize(count);
  }
  const size_t avail = pool_.size();
  const size_t from_pool = std::min(count, avail);
  // LIFO parity: element e must be the triple the e-th TakeTriple call
  // would pop, i.e. pool element (avail - 1 - e).
  for (size_t p = 0; p < out.a.size(); ++p) {
    for (size_t e = 0; e < from_pool; ++e) {
      const size_t src = avail - 1 - e;
      out.a[p].values[e] = pool_.a[p].values[src];
      out.a[p].macs[e] = pool_.a[p].macs[src];
      out.b[p].values[e] = pool_.b[p].values[src];
      out.b[p].macs[e] = pool_.b[p].macs[src];
      out.c[p].values[e] = pool_.c[p].values[src];
      out.c[p].macs[e] = pool_.c[p].macs[src];
    }
    if (from_pool > 0) {
      pool_.a[p].resize(avail - from_pool);
      pool_.b[p].resize(avail - from_pool);
      pool_.c[p].resize(avail - from_pool);
    }
  }
  if (count > from_pool) {
    const size_t fresh = count - from_pool;
    SpdzTripleBlock gen = MakeTriples(fresh);
    triples_online_ += fresh;
    for (size_t p = 0; p < out.a.size(); ++p) {
      std::copy(gen.a[p].values.begin(), gen.a[p].values.end(),
                out.a[p].values.begin() + static_cast<long>(from_pool));
      std::copy(gen.a[p].macs.begin(), gen.a[p].macs.end(),
                out.a[p].macs.begin() + static_cast<long>(from_pool));
      std::copy(gen.b[p].values.begin(), gen.b[p].values.end(),
                out.b[p].values.begin() + static_cast<long>(from_pool));
      std::copy(gen.b[p].macs.begin(), gen.b[p].macs.end(),
                out.b[p].macs.begin() + static_cast<long>(from_pool));
      std::copy(gen.c[p].values.begin(), gen.c[p].values.end(),
                out.c[p].values.begin() + static_cast<long>(from_pool));
      std::copy(gen.c[p].macs.begin(), gen.c[p].macs.end(),
                out.c[p].macs.begin() + static_cast<long>(from_pool));
    }
  }
  return out;
}

SpdzMatrix SpdzDealer::SharePositiveRandomVec(int bits, size_t n,
                                              const VecExec& exec) {
  std::vector<uint64_t> rs(n);
  for (uint64_t& r : rs) r = 1 + rng_.NextBounded((1ull << bits) - 1);
  return ShareVectorBatch(rs, exec);
}

uint64_t Spdz::AddF(uint64_t a, uint64_t b) { return Field::Add(a, b); }

SpdzShare Spdz::Sub(const SpdzShare& x, const SpdzShare& y) {
  return {Field::Sub(x.value, y.value), Field::Sub(x.mac, y.mac)};
}

SpdzShare Spdz::AddPublic(const SpdzShare& x, uint64_t c, int party,
                          uint64_t alpha_share) {
  SpdzShare out = x;
  if (party == 0) out.value = Field::Add(out.value, c);
  out.mac = Field::Add(out.mac, Field::Mul(alpha_share, c));
  return out;
}

SpdzShare Spdz::MulPublic(const SpdzShare& x, uint64_t c) {
  return {Field::Mul(x.value, c), Field::Mul(x.mac, c)};
}

Result<uint64_t> Spdz::Open(const std::vector<SpdzShare>& shares,
                            const std::vector<uint64_t>& alpha_shares) {
  uint64_t x = 0;
  for (const SpdzShare& s : shares) x = Field::Add(x, s.value);
  // MAC check: each party i computes sigma_i = mac_i - alpha_i * x and the
  // parties verify that the sigmas sum to zero (in the real protocol via a
  // commit-and-open round).
  uint64_t sigma_sum = 0;
  for (size_t i = 0; i < shares.size(); ++i) {
    const uint64_t sigma =
        Field::Sub(shares[i].mac, Field::Mul(alpha_shares[i], x));
    sigma_sum = Field::Add(sigma_sum, sigma);
  }
  if (sigma_sum != 0) {
    return Status::SecurityError(
        "SPDZ MAC check failed: a share was tampered with; aborting");
  }
  return x;
}

Status Spdz::OpenVec(const SpdzMatrix& shares,
                     const std::vector<uint64_t>& alpha_shares,
                     const VecExec& exec, std::vector<uint64_t>* out) {
  if (shares.empty() || shares.size() != alpha_shares.size()) {
    return Status::InvalidArgument("party count mismatch in OpenVec");
  }
  const size_t np = shares.size();
  const size_t n = shares[0].size();
  out->assign(n, 0);
  std::atomic<bool> tampered{false};
  ParallelSpan(n, exec, [&](size_t b, size_t end) {
    const size_t len = end - b;
    uint64_t* x = out->data() + b;
    std::copy(shares[0].values.begin() + static_cast<long>(b),
              shares[0].values.begin() + static_cast<long>(end), x);
    for (size_t p = 1; p < np; ++p) {
      field_vec::AddVec(x, shares[p].values.data() + b, len, x);
    }
    std::vector<uint64_t> sigma(len, 0);
    std::vector<uint64_t> tmp(len);
    for (size_t p = 0; p < np; ++p) {
      field_vec::MulScalarVec(alpha_shares[p], x, len, tmp.data());
      field_vec::SubVec(shares[p].macs.data() + b, tmp.data(), len,
                        tmp.data());
      field_vec::AddVec(sigma.data(), tmp.data(), len, sigma.data());
    }
    for (size_t i = 0; i < len; ++i) {
      if (sigma[i] != 0) tampered.store(true, std::memory_order_relaxed);
    }
  });
  if (tampered.load(std::memory_order_relaxed)) {
    return Status::SecurityError(
        "SPDZ MAC check failed: a share was tampered with; aborting");
  }
  return Status::OK();
}

Result<std::vector<SpdzShare>> Spdz::Multiply(
    const std::vector<SpdzShare>& x, const std::vector<SpdzShare>& y,
    const std::vector<SpdzTriple>& triple,
    const std::vector<uint64_t>& alpha_shares) {
  const size_t n = x.size();
  if (y.size() != n || triple.size() != n || alpha_shares.size() != n) {
    return Status::InvalidArgument("party count mismatch in Multiply");
  }
  // Open epsilon = x - a and delta = y - b.
  std::vector<SpdzShare> eps_shares(n);
  std::vector<SpdzShare> delta_shares(n);
  for (size_t i = 0; i < n; ++i) {
    eps_shares[i] = Sub(x[i], triple[i].a);
    delta_shares[i] = Sub(y[i], triple[i].b);
  }
  MIP_ASSIGN_OR_RETURN(uint64_t eps, Open(eps_shares, alpha_shares));
  MIP_ASSIGN_OR_RETURN(uint64_t delta, Open(delta_shares, alpha_shares));

  // z = c + eps*b + delta*a + eps*delta.
  std::vector<SpdzShare> z(n);
  const uint64_t eps_delta = Field::Mul(eps, delta);
  for (size_t i = 0; i < n; ++i) {
    SpdzShare s = triple[i].c;
    s = Add(s, MulPublic(triple[i].b, eps));
    s = Add(s, MulPublic(triple[i].a, delta));
    s = AddPublic(s, eps_delta, static_cast<int>(i), alpha_shares[i]);
    z[i] = s;
  }
  return z;
}

Status Spdz::MultiplyVec(const SpdzMatrix& x, const SpdzMatrix& y,
                         const SpdzTripleBlock& triples,
                         const std::vector<uint64_t>& alpha_shares,
                         const VecExec& exec, SpdzMatrix* out) {
  const size_t np = x.size();
  if (np == 0 || y.size() != np || triples.a.size() != np ||
      alpha_shares.size() != np) {
    return Status::InvalidArgument("party count mismatch in MultiplyVec");
  }
  const size_t n = x[0].size();
  if (triples.size() != n) {
    return Status::InvalidArgument("triple block size mismatch");
  }
  // Elementwise epsilon = x - a, delta = y - b, opened with the MAC check.
  SpdzMatrix eps_m(np);
  SpdzMatrix delta_m(np);
  for (size_t p = 0; p < np; ++p) {
    eps_m[p].resize(n);
    delta_m[p].resize(n);
  }
  ParallelSpan(n, exec, [&](size_t b, size_t end) {
    const size_t len = end - b;
    for (size_t p = 0; p < np; ++p) {
      field_vec::SubVec(x[p].values.data() + b, triples.a[p].values.data() + b,
                        len, eps_m[p].values.data() + b);
      field_vec::SubVec(x[p].macs.data() + b, triples.a[p].macs.data() + b,
                        len, eps_m[p].macs.data() + b);
      field_vec::SubVec(y[p].values.data() + b, triples.b[p].values.data() + b,
                        len, delta_m[p].values.data() + b);
      field_vec::SubVec(y[p].macs.data() + b, triples.b[p].macs.data() + b,
                        len, delta_m[p].macs.data() + b);
    }
  });
  std::vector<uint64_t> eps;
  std::vector<uint64_t> delta;
  MIP_RETURN_NOT_OK(OpenVec(eps_m, alpha_shares, exec, &eps));
  MIP_RETURN_NOT_OK(OpenVec(delta_m, alpha_shares, exec, &delta));

  // z = c + eps*b + delta*a + eps*delta, same chain order as the scalar
  // Multiply so every limb matches bit for bit.
  out->assign(np, SpdzVec{});
  for (size_t p = 0; p < np; ++p) (*out)[p].resize(n);
  ParallelSpan(n, exec, [&](size_t b, size_t end) {
    const size_t len = end - b;
    std::vector<uint64_t> eps_delta(len);
    field_vec::MulVec(eps.data() + b, delta.data() + b, len, eps_delta.data());
    for (size_t p = 0; p < np; ++p) {
      uint64_t* zv = (*out)[p].values.data() + b;
      uint64_t* zm = (*out)[p].macs.data() + b;
      std::copy(triples.c[p].values.begin() + static_cast<long>(b),
                triples.c[p].values.begin() + static_cast<long>(end), zv);
      std::copy(triples.c[p].macs.begin() + static_cast<long>(b),
                triples.c[p].macs.begin() + static_cast<long>(end), zm);
      field_vec::MulAccumVec(triples.b[p].values.data() + b, eps.data() + b,
                             len, zv);
      field_vec::MulAccumVec(triples.b[p].macs.data() + b, eps.data() + b,
                             len, zm);
      field_vec::MulAccumVec(triples.a[p].values.data() + b, delta.data() + b,
                             len, zv);
      field_vec::MulAccumVec(triples.a[p].macs.data() + b, delta.data() + b,
                             len, zm);
      if (p == 0) field_vec::AddVec(zv, eps_delta.data(), len, zv);
      field_vec::MulScalarAccumVec(alpha_shares[p], eps_delta.data(), len, zm);
    }
  });
  return Status::OK();
}

}  // namespace mip::smpc

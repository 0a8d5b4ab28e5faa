#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace mip {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad thing");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterViaMacro(int x) {
  MIP_ASSIGN_OR_RETURN(int half, Half(x));
  return Half(half);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = Half(10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = Half(3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_TRUE(QuarterViaMacro(8).ok());
  EXPECT_EQ(*QuarterViaMacro(8), 2);
  EXPECT_FALSE(QuarterViaMacro(6).ok());  // 3 is odd
  EXPECT_FALSE(QuarterViaMacro(5).ok());
}

TEST(BytesTest, ScalarRoundTrip) {
  BufferWriter w;
  w.WriteU8(7);
  w.WriteU32(123456);
  w.WriteU64(0xDEADBEEFCAFEull);
  w.WriteI64(-42);
  w.WriteDouble(3.25);
  w.WriteBool(true);
  w.WriteString("hello");

  BufferReader r(w.bytes());
  EXPECT_EQ(*r.ReadU8(), 7);
  EXPECT_EQ(*r.ReadU32(), 123456u);
  EXPECT_EQ(*r.ReadU64(), 0xDEADBEEFCAFEull);
  EXPECT_EQ(*r.ReadI64(), -42);
  EXPECT_EQ(*r.ReadDouble(), 3.25);
  EXPECT_EQ(*r.ReadBool(), true);
  EXPECT_EQ(*r.ReadString(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, VectorRoundTrip) {
  BufferWriter w;
  w.WriteVector(std::vector<double>{1.5, -2.5, 0.0});
  w.WriteVector(std::vector<uint64_t>{1, 2, 3, 4});
  w.WriteVector(std::vector<int64_t>{-1, 0, 1});
  w.WriteVector(std::vector<uint8_t>{});
  BufferReader r(w.bytes());
  EXPECT_EQ(*r.ReadVector<double>(), (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(*r.ReadVector<uint64_t>(), (std::vector<uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(*r.ReadVector<int64_t>(), (std::vector<int64_t>{-1, 0, 1}));
  EXPECT_TRUE(r.ReadVector<uint8_t>()->empty());
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, CounterMeasuresWithoutStoring) {
  BufferWriter counter = BufferWriter::Counter();
  BufferWriter real;
  for (BufferWriter* w : {&counter, &real}) {
    w->Reserve(1024);
    w->WriteU8(1);
    w->WriteU64(2);
    w->WriteString("abc");
    w->WriteVector(std::vector<double>{1.0, 2.0});
  }
  EXPECT_EQ(counter.size(), real.size());
  EXPECT_EQ(counter.size(), 1u + 8 + 7 + 20);
  EXPECT_TRUE(counter.bytes().empty());
  EXPECT_EQ(counter.bytes().capacity(), 0u);
}

TEST(BytesTest, TruncatedReadFails) {
  BufferWriter w;
  w.WriteU32(10);
  BufferReader r(w.bytes());
  EXPECT_TRUE(r.ReadU32().ok());
  EXPECT_FALSE(r.ReadU32().ok());
  EXPECT_FALSE(r.ReadDouble().ok());
}

TEST(BytesTest, MaliciousLengthPrefixIsRejected) {
  // A string claiming 2^31 bytes with only 4 available must error, not
  // crash.
  BufferWriter w;
  w.WriteU32(0x7FFFFFFF);
  w.AppendRaw("abcd", 4);
  BufferReader r(w.bytes());
  EXPECT_FALSE(r.ReadString().ok());
  BufferReader r2(w.bytes());
  EXPECT_FALSE(r2.ReadVector<double>().ok());
}

/// The classic one-table bytewise CRC-32 (IEEE, reflected, 0xEDB88320),
/// with Crc32's seed rule — the reference both the dispatched Crc32 and
/// the portable slice-by-8 path must match bit for bit.
uint32_t ReferenceCrc32(const uint8_t* data, size_t n, uint32_t seed = 0) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  uint32_t c = 0xFFFFFFFFu ^ seed;
  for (size_t i = 0; i < n; ++i) {
    c = kTable[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownVectorAndEmptyInput) {
  const std::string check = "123456789";
  const auto* p = reinterpret_cast<const uint8_t*>(check.data());
  EXPECT_EQ(Crc32(p, check.size()), 0xCBF43926u);
  EXPECT_EQ(internal::Crc32Portable(p, check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(internal::Crc32Portable(nullptr, 0), 0u);
  EXPECT_EQ(Crc32(std::vector<uint8_t>{}), 0u);
}

// Offsets 0-15 put the 16-byte folds at every alignment; lengths 0-4096
// cover inputs below the 64-byte fold minimum, every tail length 0-15 and
// many fold steps; the golden-ratio seed checks the seed enters the folded
// register the way it enters slice-by-8's.
TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(20261017);
  std::vector<uint8_t> buf(4096 + 16);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextUint64());
  size_t mismatches = 0;
  for (uint32_t seed : {0u, 0x9E3779B9u}) {
    for (size_t offset = 0; offset < 16; ++offset) {
      for (size_t len = 0; len <= 4096; ++len) {
        const uint8_t* p = buf.data() + offset;
        const uint32_t want = ReferenceCrc32(p, len, seed);
        const uint32_t fast = Crc32(p, len, seed);
        const uint32_t portable = internal::Crc32Portable(p, len, seed);
        if (fast != want || portable != want) {
          ADD_FAILURE() << "seed " << seed << " offset " << offset
                        << " length " << len << ": dispatched " << fast
                        << " portable " << portable << " reference " << want;
          if (++mismatches >= 10) return;
        }
      }
    }
  }
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BoundedIsUnbiasedEnough) {
  Rng rng(99);
  std::vector<int> counts(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, trials / 10, trials / 10 * 0.1);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(2024);
  double sum = 0, sumsq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sumsq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.03);
}

TEST(RngTest, LaplaceMoments) {
  Rng rng(555);
  const double b = 2.0;
  double sum = 0, sumsq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextLaplace(b);
    sum += v;
    sumsq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 2 * b * b, 0.3);  // Var(Laplace) = 2b^2
}

TEST(RngTest, GammaMean) {
  Rng rng(31337);
  const double shape = 2.5, scale = 1.5;
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextGamma(shape, scale);
  EXPECT_NEAR(sum / n, shape * scale, 0.1);
}

TEST(RngTest, GammaSmallShape) {
  Rng rng(31338);
  const double shape = 0.25, scale = 2.0;
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGamma(shape, scale);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, shape * scale, 0.05);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(17);
  std::vector<size_t> p = rng.Permutation(100);
  std::vector<bool> seen(100, false);
  for (size_t v : p) {
    ASSERT_LT(v, 100u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(4242);
  std::vector<double> weights = {1.0, 3.0};
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextCategorical(weights) == 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.01);
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, JoinTrimCase) {
  EXPECT_EQ(Join({"x", "y"}, ", "), "x, y");
  EXPECT_EQ(Trim("  a b \t\n"), "a b");
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("abc"), "ABC");
  EXPECT_TRUE(StartsWith("federated", "fed"));
  EXPECT_FALSE(StartsWith("fed", "federated"));
  EXPECT_TRUE(EqualsIgnoreCase("GROUP", "group"));
  EXPECT_FALSE(EqualsIgnoreCase("group", "groups"));
}

}  // namespace
}  // namespace mip

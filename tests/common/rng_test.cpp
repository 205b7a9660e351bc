#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>

namespace tmemo {
namespace {

TEST(MixSeed, PinnedOutputs) {
  // The device, compute units, stream cores, campaign jobs and fault
  // injectors all derive their seeds through mix_seed; these values pin its
  // arithmetic so every seeded stream stays where it is.
  struct Case {
    std::uint64_t seed;
    std::uint64_t salt;
    std::uint64_t expected;
  };
  constexpr Case kCases[] = {
      {0x0ull, 0u, 0xe220a8397b1dcdafull},
      {0x5eedull, 0u, 0x09f1fd9d03f0a9b4ull},
      {0x5eedull, 19u, 0xbbea42bd69484adcull},
      {0x1ull, 260u, 0xbcc4c0e8566975deull},
      {0xffffffffffffffffull, 7u, 0x405da438a39e8064ull},
  };
  for (const Case& c : kCases) {
    EXPECT_EQ(mix_seed(c.seed, c.salt), c.expected)
        << "seed " << c.seed << " salt " << c.salt;
  }
  static_assert(mix_seed(0x5eed, 19) == 0xbbea42bd69484adcull);
}

TEST(Xorshift128, DeterministicForSameSeed) {
  Xorshift128 a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Xorshift128, DifferentSeedsDiverge) {
  Xorshift128 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Xorshift128, ZeroSeedIsRemapped) {
  Xorshift128 a(0);
  // Must not be stuck at zero.
  EXPECT_NE(a.next_u64(), 0u);
  std::set<std::uint64_t> values;
  for (int i = 0; i < 64; ++i) values.insert(a.next_u64());
  EXPECT_GT(values.size(), 60u);
}

TEST(Xorshift128, ReseedRestartsStream) {
  Xorshift128 a(7);
  const auto first = a.next_u64();
  a.next_u64();
  a.reseed(7);
  EXPECT_EQ(a.next_u64(), first);
}

TEST(Xorshift128, DoubleInUnitInterval) {
  Xorshift128 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Xorshift128, FloatInUnitInterval) {
  Xorshift128 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const float f = rng.next_float();
    ASSERT_GE(f, 0.0f);
    ASSERT_LT(f, 1.0f);
  }
}

TEST(Xorshift128, DoubleMeanNearHalf) {
  Xorshift128 rng(5);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.next_double();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Xorshift128, NextBelowRespectsBound) {
  Xorshift128 rng(9);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 64ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Xorshift128, NextBelowOneAlwaysZero) {
  Xorshift128 rng(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Xorshift128, NextBelowCoversRange) {
  Xorshift128 rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Xorshift128, BernoulliExtremes) {
  Xorshift128 rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Xorshift128, BernoulliRateIsCalibrated) {
  Xorshift128 rng(19);
  const int n = 200000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.03) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.03, 0.003);
}

TEST(Xorshift128, GaussianMoments) {
  Xorshift128 rng(23);
  const int n = 100000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

class BernoulliRateTest : public ::testing::TestWithParam<double> {};

TEST_P(BernoulliRateTest, ObservedRateMatches) {
  const double p = GetParam();
  Xorshift128 rng(0x1234 + static_cast<std::uint64_t>(p * 1e6));
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(p) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, p, 5.0 * std::sqrt(p / n) + 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Rates, BernoulliRateTest,
                         ::testing::Values(0.001, 0.01, 0.02, 0.04, 0.1, 0.25,
                                           0.5, 0.9));

} // namespace
} // namespace tmemo

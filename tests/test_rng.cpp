// Tests for the deterministic splittable RNG.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "compress/kernels_dispatch.hpp"
#include "support/simd_tiers.hpp"

namespace dlcomp {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  const Rng parent(777);
  Rng child1 = parent.fork({1, 2});
  Rng child2 = parent.fork({1, 2});
  Rng child3 = parent.fork({1, 3});
  EXPECT_EQ(child1.next_u64(), child2.next_u64());
  // Distinct tags must give distinct streams.
  Rng c1 = parent.fork({1, 2});
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1.next_u64() == child3.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng a(9);
  Rng b(9);
  (void)a.fork({42});
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, NextBelowInRangeAndCoversDomain) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform(-2.0, 2.0);
  EXPECT_NEAR(sum / n, 0.0, 0.05);
}

TEST(Rng, NormalMoments) {
  Rng rng(8);
  const int n = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParams) {
  Rng rng(9);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

// ------------------------------------------------------------ fill_normal

/// fill_normal against the scalar loop it replaces, from the same seed:
/// identical float bits, then an identical next normal() (the cached
/// second value) and next_u64() (the generator state).
void expect_fill_matches_scalar(std::uint64_t seed, std::size_t n,
                                bool cached_on_entry, double mean,
                                double stddev) {
  SCOPED_TRACE(::testing::Message() << "n=" << n << " cached="
                                    << cached_on_entry << " mean=" << mean
                                    << " stddev=" << stddev);
  Rng scalar(seed);
  Rng bulk(seed);
  if (cached_on_entry) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(scalar.normal()),
              std::bit_cast<std::uint64_t>(bulk.normal()));
  }
  std::vector<float> want(n);
  for (auto& v : want) v = static_cast<float>(scalar.normal(mean, stddev));
  std::vector<float> got(n, std::nanf(""));
  bulk.fill_normal(got, mean, stddev);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(want[i]),
              std::bit_cast<std::uint32_t>(got[i]))
        << "element " << i << ": " << want[i] << " vs " << got[i];
  }
  ASSERT_EQ(std::bit_cast<std::uint64_t>(scalar.normal()),
            std::bit_cast<std::uint64_t>(bulk.normal()));
  ASSERT_EQ(scalar.next_u64(), bulk.next_u64());
}

TEST(RngFillNormal, MatchesScalarLoopOnEveryTier) {
  const double stddevs[] = {3e-4f, 0.05f, 0.1f, 0.25f, 1.0, 1e6};
  for_each_available_isa([&](simd::Isa) {
    std::uint64_t seed = 100;
    for (std::size_t n = 0; n <= 67; ++n) {
      for (const bool cached : {false, true}) {
        expect_fill_matches_scalar(++seed, n, cached, 0.0, 0.1f);
      }
    }
    for (const double stddev : stddevs) {
      for (const bool cached : {false, true}) {
        expect_fill_matches_scalar(++seed, 1000, cached, 0.0, stddev);
        expect_fill_matches_scalar(++seed, 1001, cached, -2.5, stddev);
      }
    }
    expect_fill_matches_scalar(++seed, 1000000, false, 0.0, 0.05f);
    expect_fill_matches_scalar(++seed, 1000000, true, 0.75, 0.25f);
  });
}

/// The kernel's error radii against libm over 2^20 seeded pairs: each
/// candidate must sit within E/16 of the libm value (a radius too tight
/// to be safe fails here long before it could flip a float), and the
/// exact fallback must run, but rarely.
TEST(RngFillNormal, CandidateRadiiBoundLibmWithMargin) {
  constexpr std::size_t kPairs = std::size_t{1} << 20;
  constexpr std::size_t kBlock = 4096;
  struct Params {
    double mean;
    double stddev;
  };
  for (const Params params : {Params{0.0, 1.0}, Params{0.5, 0.05f}}) {
    SCOPED_TRACE(::testing::Message() << "mean=" << params.mean
                                      << " stddev=" << params.stddev);
    for_each_available_isa([&](simd::Isa isa) {
      const kernels::detail::KernelOps* ops = kernels::detail::ops_for(isa);
      ASSERT_NE(ops, nullptr);
      // `uniforms` replays normal()'s draws; `libm` is normal() itself.
      Rng uniforms(2024);
      Rng libm(2024);
      std::vector<double> u1(kBlock), u2(kBlock);
      std::vector<double> value(2 * kBlock), radius(2 * kBlock);
      std::size_t fallbacks = 0;
      for (std::size_t done = 0; done < kPairs; done += kBlock) {
        for (std::size_t p = 0; p < kBlock; ++p) {
          do {
            u1[p] = uniforms.next_double();
          } while (u1[p] <= 0.0);
          u2[p] = uniforms.next_double();
        }
        ops->normal_candidates(u1.data(), u2.data(), kBlock, params.mean,
                               params.stddev, value.data(), radius.data());
        for (std::size_t p = 0; p < kBlock; ++p) {
          // normal() returns the cos value, then the cached sin value.
          for (const std::size_t j : {p, kBlock + p}) {
            const double exact = libm.normal(params.mean, params.stddev);
            const double v = value[j];
            const double e = radius[j];
            ASSERT_LE(std::fabs(v - exact), e / 16)
                << "pair " << done + p << " v'=" << v << " libm=" << exact
                << " E=" << e;
            if (static_cast<float>(v - e) != static_cast<float>(v + e)) {
              ++fallbacks;
            }
          }
        }
      }
      EXPECT_GE(fallbacks, 1u);
      EXPECT_LT(static_cast<double>(fallbacks) / (2.0 * kPairs), 1e-3);
    });
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(10);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  rng.shuffle(std::span<int>(v));
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, SplitMix64KnownProperties) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_NE(s1, 42u);  // state advanced
}

}  // namespace
}  // namespace dlcomp

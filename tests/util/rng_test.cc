#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace spineless {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 5);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a.next());
  a.reseed(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(3);
  for (int bound : {1, 2, 3, 10, 1000}) {
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(rng.uniform(static_cast<std::uint64_t>(bound)),
                static_cast<std::uint64_t>(bound));
    }
  }
}

TEST(Rng, UniformCoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform_real();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, ParetoRespectsScaleFloor) {
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) EXPECT_GE(rng.pareto(1.5, 10.0), 10.0);
}

TEST(Rng, ParetoWithMeanHasApproximatelyThatMean) {
  // Use a tamer alpha so the sample mean converges at this sample size.
  Rng rng(19);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.pareto_with_mean(3.0, 100.0);
  EXPECT_NEAR(sum / n, 100.0, 3.0);
}

TEST(Rng, ExponentialMean) {
  Rng rng(23);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(29);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.shuffle(v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(31);
  for (std::size_t k : {0u, 1u, 5u, 50u, 100u}) {
    const auto sample = rng.sample_without_replacement(100, k);
    std::set<std::size_t> s(sample.begin(), sample.end());
    EXPECT_EQ(s.size(), k);
    for (auto v : sample) EXPECT_LT(v, 100u);
  }
}

TEST(Rng, SampleWithoutReplacementFullRange) {
  Rng rng(37);
  const auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> s(sample.begin(), sample.end());
  EXPECT_EQ(s.size(), 10u);
}

TEST(Rng, SampleRejectsOversizedRequest) {
  Rng rng(41);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), Error);
}

TEST(Splitmix, IsDeterministicAndMixing) {
  EXPECT_EQ(splitmix64(1), splitmix64(1));
  EXPECT_NE(splitmix64(1), splitmix64(2));
  // Avalanche smoke check: flipping one input bit flips many output bits.
  const auto diff = splitmix64(0) ^ splitmix64(1);
  EXPECT_GT(__builtin_popcountll(diff), 10);
}

TEST(ZipfSampler, ProbabilitiesSumToOneAndDecrease) {
  ZipfSampler zipf(50, 1.2);
  double sum = 0;
  for (std::size_t i = 0; i < zipf.size(); ++i) {
    sum += zipf.probability(i);
    if (i > 0) {
      EXPECT_LE(zipf.probability(i), zipf.probability(i - 1));
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfSampler, EmpiricalMatchesProbabilities) {
  ZipfSampler zipf(10, 1.0);
  Rng rng(43);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[zipf(rng)];
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, zipf.probability(i),
                0.01);
  }
}

TEST(ZipfSampler, SingleElement) {
  ZipfSampler zipf(1, 2.0);
  Rng rng(47);
  EXPECT_EQ(zipf(rng), 0u);
  EXPECT_DOUBLE_EQ(zipf.probability(0), 1.0);
}

}  // namespace
}  // namespace spineless

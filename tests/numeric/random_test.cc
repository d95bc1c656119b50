#include "numeric/random.h"

#include <cmath>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "numeric/special_functions.h"
#include "numeric/statistics.h"

namespace zonestream::numeric {
namespace {

constexpr int kSamples = 200000;

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform01(), b.Uniform01());
  }
}

TEST(RngTest, SaveStateLoadStateResumesBitIdentically) {
  // Advance through every distribution family (each constructs its
  // std:: distribution per call, so the engine is the complete state,
  // including any multi-draw rejection loops) and snapshot mid-sequence.
  Rng original(987);
  for (int i = 0; i < 123; ++i) {
    original.Uniform01();
    original.Gamma(0.7, 2.0);
    original.LognormalByMoments(10.0, 4.0);
    original.TruncatedPareto(1.0, 1.5, 100.0);
    original.Exponential(3.0);
    original.UniformIndex(17);
  }
  const std::string saved = original.SaveState();
  Rng restored(1);  // different seed: LoadState must fully overwrite it
  ASSERT_TRUE(restored.LoadState(saved).ok());
  // A save/load pair round-trips to the same bytes before any draw.
  EXPECT_EQ(restored.SaveState(), saved);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(original.Uniform01(), restored.Uniform01()) << i;
    EXPECT_EQ(original.Gamma(0.7, 2.0), restored.Gamma(0.7, 2.0)) << i;
    EXPECT_EQ(original.UniformIndex(1000), restored.UniformIndex(1000)) << i;
  }
}

TEST(RngTest, SaveStateMatchesStdEngineText) {
  // SaveState formats the engine itself; its bytes must stay those of
  // std::mt19937_64's operator<< so snapshots interchange with it. Cover
  // a fresh engine, mid-block positions and the exact block boundaries.
  for (const int draws : {0, 1, 100, 311, 312, 313, 624, 1000}) {
    Rng rng(4242);
    std::mt19937_64 reference(4242);
    for (int i = 0; i < draws; ++i) {
      rng.engine()();
      reference();
    }
    std::ostringstream expected;
    expected << reference;
    EXPECT_EQ(rng.SaveState(), expected.str()) << "after " << draws;
  }
}

TEST(RngTest, LoadStateRejectsMalformedInput) {
  Rng rng(5);
  const double before_garbage = [&] {
    Rng probe(5);
    return probe.Uniform01();
  }();
  EXPECT_FALSE(rng.LoadState("").ok());
  EXPECT_FALSE(rng.LoadState("not an engine state").ok());
  EXPECT_FALSE(rng.LoadState("123 456").ok());  // far too short
  // A failed load must leave the RNG in its previous state.
  EXPECT_EQ(rng.Uniform01(), before_garbage);
}

TEST(RngTest, SubstreamSeedsAreDistinct) {
  // Substream derivation is pure (seed, id) -> seed; collisions between
  // neighboring ids would correlate per-disk fault streams.
  EXPECT_EQ(SubstreamSeed(42, 7), SubstreamSeed(42, 7));
  EXPECT_NE(SubstreamSeed(42, 7), SubstreamSeed(42, 8));
  EXPECT_NE(SubstreamSeed(42, 7), SubstreamSeed(43, 7));
  EXPECT_NE(SubstreamSeed(0, 0), SubstreamSeed(0, 1));
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform01() == b.Uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, Uniform01MomentsAndRange) {
  Rng rng(7);
  RunningStats stats;
  for (int i = 0; i < kSamples; ++i) {
    const double u = rng.Uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    stats.Add(u);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.005);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.002);
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  RunningStats stats;
  for (int i = 0; i < kSamples; ++i) {
    const double u = rng.Uniform(2.0, 6.0);
    ASSERT_GE(u, 2.0);
    ASSERT_LT(u, 6.0);
    stats.Add(u);
  }
  EXPECT_NEAR(stats.mean(), 4.0, 0.02);
  EXPECT_NEAR(stats.variance(), 16.0 / 12.0, 0.03);
}

TEST(RngTest, UniformIndexCoversAllValues) {
  Rng rng(11);
  int counts[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < 5000; ++i) ++counts[rng.UniformIndex(5)];
  for (int count : counts) EXPECT_GT(count, 800);
}

TEST(RngTest, GammaMoments) {
  Rng rng(13);
  const double shape = 4.0;
  const double scale = 50e3;
  RunningStats stats;
  for (int i = 0; i < kSamples; ++i) stats.Add(rng.Gamma(shape, scale));
  EXPECT_NEAR(stats.mean(), shape * scale, 0.01 * shape * scale);
  EXPECT_NEAR(stats.variance(), shape * scale * scale,
              0.05 * shape * scale * scale);
}

TEST(RngTest, GammaByMomentsMatchesRequestedMoments) {
  Rng rng(17);
  const double mean = 200e3;
  const double variance = 100e3 * 100e3;
  RunningStats stats;
  for (int i = 0; i < kSamples; ++i) stats.Add(rng.GammaByMoments(mean, variance));
  EXPECT_NEAR(stats.mean(), mean, 0.01 * mean);
  EXPECT_NEAR(stats.variance(), variance, 0.05 * variance);
}

TEST(RngTest, LognormalByMomentsMatchesRequestedMoments) {
  Rng rng(19);
  const double mean = 200e3;
  const double variance = 100e3 * 100e3;
  RunningStats stats;
  for (int i = 0; i < kSamples; ++i) {
    stats.Add(rng.LognormalByMoments(mean, variance));
  }
  EXPECT_NEAR(stats.mean(), mean, 0.01 * mean);
  EXPECT_NEAR(stats.variance(), variance, 0.08 * variance);
}

TEST(RngTest, TruncatedParetoSupportAndMean) {
  Rng rng(23);
  const double x_min = 100e3;
  const double alpha = 2.5;
  const double cap = 1000e3;
  // Analytic mean of the truncated Pareto.
  const double norm = 1.0 - std::pow(x_min / cap, alpha);
  const double mean = alpha * std::pow(x_min, alpha) / norm *
                      (std::pow(cap, 1.0 - alpha) - std::pow(x_min, 1.0 - alpha)) /
                      (1.0 - alpha);
  RunningStats stats;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.TruncatedPareto(x_min, alpha, cap);
    ASSERT_GE(x, x_min);
    ASSERT_LE(x, cap);
    stats.Add(x);
  }
  EXPECT_NEAR(stats.mean(), mean, 0.01 * mean);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(29);
  RunningStats stats;
  for (int i = 0; i < kSamples; ++i) stats.Add(rng.Exponential(3.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.03);
}

// --------------------------------------------------------------------------
// Batched draws (the simulation kernel's primitives).

// FillUniform01 is a loop over Uniform01 on the same engine: a batch of n
// must equal n scalar draws bit for bit (the batched kernel's determinism
// rests on this).
TEST(BatchedDrawTest, FillUniform01MatchesScalarDraws) {
  Rng batched(31);
  Rng scalar(31);
  double out[257];
  batched.FillUniform01(out, 257);
  for (int i = 0; i < 257; ++i) {
    EXPECT_DOUBLE_EQ(out[i], scalar.Uniform01()) << "index " << i;
  }
}

TEST(BatchedDrawTest, FillUniformMatchesScalarDraws) {
  Rng batched(37);
  Rng scalar(37);
  double out[64];
  batched.FillUniform(-2.5, 7.5, out, 64);
  for (int i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(out[i], scalar.Uniform(-2.5, 7.5)) << "index " << i;
    EXPECT_GE(out[i], -2.5);
    EXPECT_LT(out[i], 7.5);
  }
}

// The ziggurat normal source keeps no state across draws, so a length-n
// Fill consumes the engine exactly like n repeated Sample calls — and a
// batch is a pure function of the engine state at entry.
TEST(BatchedDrawTest, GammaBatchSamplerFillMatchesRepeatedSample) {
  const GammaBatchSampler sampler(4.0, 50e3);
  Rng a(41);
  Rng b(41);
  double out_a[100];
  double out_b[100];
  sampler.Fill(&a, out_a, 100);
  sampler.Fill(&b, out_b, 100);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(out_a[i], out_b[i]) << "index " << i;
  }

  Rng c(43);
  Rng d(43);
  for (int i = 0; i < 100; ++i) {
    double one;
    sampler.Fill(&c, &one, 1);
    EXPECT_DOUBLE_EQ(one, sampler.Sample(&d)) << "draw " << i;
  }
}

TEST(BatchedDrawTest, GammaBatchSamplerMomentsMatchDistribution) {
  // Table 1's fragment-size distribution: shape 4, scale 50e3
  // (mean 200e3, variance 1e10), plus a shape < 1 case through the
  // boost path.
  for (const double shape : {0.5, 4.0}) {
    const double scale = 50e3;
    const GammaBatchSampler sampler(shape, scale);
    Rng rng(43);
    std::vector<double> draws(kSamples);
    sampler.Fill(&rng, draws.data(), draws.size());
    RunningStats stats;
    for (double x : draws) {
      ASSERT_GT(x, 0.0);
      stats.Add(x);
    }
    const double mean = shape * scale;
    const double variance = shape * scale * scale;
    EXPECT_NEAR(stats.mean(), mean, 0.02 * mean) << "shape " << shape;
    EXPECT_NEAR(stats.variance(), variance, 0.05 * variance)
        << "shape " << shape;
  }
}

TEST(BatchedDrawTest, GammaBatchSamplerPassesKolmogorovSmirnov) {
  const double shape = 4.0;
  const double scale = 50e3;
  const GammaBatchSampler sampler(shape, scale);
  Rng rng(47);
  std::vector<double> draws(20000);
  sampler.Fill(&rng, draws.data(), draws.size());
  const double statistic = KolmogorovSmirnovStatistic(
      std::move(draws),
      [&](double x) { return RegularizedGammaP(shape, x / scale); });
  EXPECT_LT(statistic, KolmogorovSmirnovCriticalValue(20000, 0.001));
}

TEST(BatchedDrawTest, GammaBatchSamplerAgreesWithRngGamma) {
  // Same distribution as Rng::Gamma (different consumption pattern):
  // compare first two moments across the two samplers.
  const GammaBatchSampler sampler(4.0, 50e3);
  Rng a(53);
  Rng b(59);
  RunningStats batch_stats;
  RunningStats scalar_stats;
  std::vector<double> draws(kSamples);
  sampler.Fill(&a, draws.data(), draws.size());
  for (double x : draws) batch_stats.Add(x);
  for (int i = 0; i < kSamples; ++i) scalar_stats.Add(b.Gamma(4.0, 50e3));
  EXPECT_NEAR(batch_stats.mean(), scalar_stats.mean(),
              0.02 * scalar_stats.mean());
  EXPECT_NEAR(std::sqrt(batch_stats.variance()),
              std::sqrt(scalar_stats.variance()),
              0.05 * std::sqrt(scalar_stats.variance()));
}

}  // namespace
}  // namespace zonestream::numeric

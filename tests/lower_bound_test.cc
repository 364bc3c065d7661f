#include "src/envelope/lower_bound.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/distance/dtw.h"
#include "src/distance/euclidean.h"

namespace rotind {
namespace {

Series RandomSeries(Rng* rng, std::size_t n) {
  Series s(n);
  for (double& v : s) v = rng->Gaussian(0.0, 1.0);
  return s;
}

TEST(LbKeoghTest, ZeroInsideTheWedge) {
  Envelope env = Envelope::FromSeries({0.0, 0.0, 0.0});
  env.MergeSeries(Series{2.0, 2.0, 2.0}.data(), 3);
  const Series q = {1.0, 0.5, 1.5};  // entirely inside [0, 2]
  EXPECT_DOUBLE_EQ(LbKeogh(q.data(), env), 0.0);
}

TEST(LbKeoghTest, DegenerateWedgeEqualsEuclidean) {
  Rng rng(1);
  const Series c = RandomSeries(&rng, 40);
  const Series q = RandomSeries(&rng, 40);
  const Envelope env = Envelope::FromSeries(c);
  EXPECT_NEAR(LbKeogh(q.data(), env), EuclideanDistance(q, c), 1e-12);
}

TEST(LbKeoghTest, KnownValue) {
  Envelope env;
  env.upper = {1.0, 1.0, 1.0};
  env.lower = {-1.0, -1.0, -1.0};
  const Series q = {3.0, 0.0, -2.0};  // exceed by 2, inside, below by 1
  EXPECT_NEAR(LbKeogh(q.data(), env), std::sqrt(4.0 + 0.0 + 1.0), 1e-12);
}

/// The paper's Proposition 1, tested on randomized wedges: the bound must
/// never exceed the true distance to ANY member.
class Proposition1Test : public ::testing::TestWithParam<int> {};

TEST_P(Proposition1Test, LowerBoundsEveryMember) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 8 + rng.NextBounded(60);
    const std::size_t members = 1 + rng.NextBounded(10);
    std::vector<Series> cs;
    Envelope env;
    for (std::size_t m = 0; m < members; ++m) {
      cs.push_back(RandomSeries(&rng, n));
      if (m == 0) {
        env = Envelope::FromSeries(cs.back());
      } else {
        env.MergeSeries(cs.back().data(), n);
      }
    }
    const Series q = RandomSeries(&rng, n);
    const double lb = LbKeogh(q.data(), env);
    for (const Series& c : cs) {
      EXPECT_LE(lb, EuclideanDistance(q, c) + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Proposition1Test, ::testing::Range(1, 9));

/// The paper's Proposition 2: the band-expanded wedge lower-bounds the
/// banded DTW distance to every member.
class Proposition2Test : public ::testing::TestWithParam<int> {};

TEST_P(Proposition2Test, LowerBoundsBandedDtwToEveryMember) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 3);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 10 + rng.NextBounded(40);
    const int band = 1 + static_cast<int>(rng.NextBounded(6));
    const std::size_t members = 1 + rng.NextBounded(6);
    std::vector<Series> cs;
    Envelope env;
    for (std::size_t m = 0; m < members; ++m) {
      cs.push_back(RandomSeries(&rng, n));
      if (m == 0) {
        env = Envelope::FromSeries(cs.back());
      } else {
        env.MergeSeries(cs.back().data(), n);
      }
    }
    const Envelope dtw_env = env.ExpandedForDtw(band);
    const Series q = RandomSeries(&rng, n);
    const double lb = LbKeogh(q.data(), dtw_env);
    for (const Series& c : cs) {
      EXPECT_LE(lb, DtwDistance(q.data(), c.data(), n, band) + 1e-9)
          << "n=" << n << " band=" << band;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Proposition2Test, ::testing::Range(1, 7));

TEST(EarlyAbandonLbKeoghTest, MatchesFullWhenNotAbandoned) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 16 + rng.NextBounded(30);
    Envelope env = Envelope::FromSeries(RandomSeries(&rng, n));
    env.MergeSeries(RandomSeries(&rng, n).data(), n);
    const Series q = RandomSeries(&rng, n);
    const double full = LbKeogh(q.data(), env);
    const double ea = EarlyAbandonLbKeogh(
        q.data(), env, std::numeric_limits<double>::infinity());
    EXPECT_NEAR(ea, full, 1e-12);
  }
}

TEST(EarlyAbandonLbKeoghTest, AbandonsCorrectly) {
  Rng rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 16 + rng.NextBounded(30);
    Envelope env = Envelope::FromSeries(RandomSeries(&rng, n));
    const Series q = RandomSeries(&rng, n);
    const double full = LbKeogh(q.data(), env);
    const double limit = rng.Uniform(0.0, 2.0 * full + 0.01);
    const double ea = EarlyAbandonLbKeogh(q.data(), env, limit);
    if (full > limit) {
      EXPECT_TRUE(std::isinf(ea));
    } else {
      EXPECT_NEAR(ea, full, 1e-9);
    }
  }
}

TEST(EarlyAbandonLbKeoghTest, CountsPartialSteps) {
  Envelope env;
  env.upper = Series(100, 0.0);
  env.lower = Series(100, 0.0);
  Series q(100, 5.0);  // each point contributes 25
  StepCounter counter;
  EarlyAbandonLbKeoghSquared(q.data(), env.upper.data(), env.lower.data(),
                             100, 100.0, &counter);
  // 25 + 25 + 25 + 25 = 100 is not > 100; the 5th point pushes past.
  EXPECT_EQ(counter.steps, 5u);
  EXPECT_EQ(counter.early_abandons, 1u);
}

/// Pins the abandonment sentinel contract documented in lower_bound.h:
/// kAbandoned IS +infinity (one value, not two sentinels), every
/// early-abandoning entry point returns exactly it, and std::isinf is a
/// valid abandonment test for both squared and unsquared variants.
TEST(AbandonSentinelTest, KAbandonedIsPositiveInfinityEverywhere) {
  EXPECT_EQ(kAbandoned, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(kAbandoned));
  EXPECT_GT(kAbandoned, 0.0);

  // An impossible limit forces abandonment in every variant.
  Envelope env;
  env.upper = Series(8, 0.0);
  env.lower = Series(8, 0.0);
  const Series q(8, 5.0);
  const double sq = EarlyAbandonLbKeoghSquared(q.data(), env.upper.data(),
                                               env.lower.data(), 8, 1.0);
  EXPECT_EQ(sq, kAbandoned);
  const double lb = EarlyAbandonLbKeogh(q.data(), env, 1.0);
  EXPECT_EQ(lb, kAbandoned);
}

TEST(LbKeoghTest, TighterWedgeGivesTighterBound) {
  // Paper Figure 8: merging more sequences (larger area) can only lower
  // the bound.
  Rng rng(7);
  const std::size_t n = 30;
  Envelope narrow = Envelope::FromSeries(RandomSeries(&rng, n));
  Envelope wide = narrow;
  for (int i = 0; i < 5; ++i) wide.MergeSeries(RandomSeries(&rng, n).data(), n);
  for (int trial = 0; trial < 20; ++trial) {
    const Series q = RandomSeries(&rng, n);
    EXPECT_GE(LbKeogh(q.data(), narrow) + 1e-12, LbKeogh(q.data(), wide));
  }
}

}  // namespace
}  // namespace rotind

#include "src/search/lcss_search.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/search/engine.h"
#include "tests/testing/flat_engine.h"

namespace rotind {
namespace {

using testing::FlatEngine;
using testing::WithStages;

Series RandomSeries(Rng* rng, std::size_t n) {
  Series s(n);
  for (double& v : s) v = rng->Gaussian(0.0, 1.0);
  return s;
}

TEST(LcssMatchUpperBoundTest, FullMatchInsideEnvelope) {
  const std::size_t n = 20;
  Series upper(n, 1.0);
  Series lower(n, -1.0);
  Series q(n, 0.0);
  EXPECT_EQ(LcssMatchUpperBound(q.data(), upper.data(), lower.data(), n, 0.1,
                                /*required_matches=*/1),
            n);
}

TEST(LcssMatchUpperBoundTest, EpsilonWidensTheBand) {
  const std::size_t n = 10;
  Series upper(n, 0.0);
  Series lower(n, 0.0);
  Series q(n, 0.5);
  EXPECT_EQ(LcssMatchUpperBound(q.data(), upper.data(), lower.data(), n,
                                /*epsilon=*/0.4, 1),
            0u);
  EXPECT_EQ(LcssMatchUpperBound(q.data(), upper.data(), lower.data(), n,
                                /*epsilon=*/0.6, 1),
            n);
}

TEST(LcssMatchUpperBoundTest, AbandonsWhenRequirementUnreachable) {
  const std::size_t n = 100;
  Series upper(n, 0.0);
  Series lower(n, 0.0);
  Series q(n, 5.0);  // nothing matches
  StepCounter counter;
  const std::size_t bound = LcssMatchUpperBound(
      q.data(), upper.data(), lower.data(), n, 0.1, n, &counter);
  EXPECT_EQ(bound, 0u);
  EXPECT_EQ(counter.steps, 1u);  // first miss already disqualifies
  EXPECT_EQ(counter.early_abandons, 1u);
}

/// Exactness property: the wedge LCSS search returns exactly the
/// brute-force rotation-invariant LCSS result.
class LcssWedgeExactnessTest : public ::testing::TestWithParam<int> {};

TEST_P(LcssWedgeExactnessTest, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 17);
  const std::size_t n = 24 + rng.NextBounded(16);
  LcssOptions options;
  options.epsilon = rng.Uniform(0.2, 0.8);
  options.delta = 1 + static_cast<int>(rng.NextBounded(5));

  const Series q = RandomSeries(&rng, n);
  StepCounter counter;
  LcssWedgeSearcher searcher(q, options, {}, &counter);
  RotationSet rots(q, {});

  for (int trial = 0; trial < 8; ++trial) {
    const Series c = RandomSeries(&rng, n);
    std::size_t expected = 0;
    for (std::size_t r = 0; r < rots.count(); ++r) {
      expected = std::max(
          expected, LcssLength(rots.rotation(r), c.data(), n, options));
    }
    const LcssMatchResult m = searcher.Match(c.data(), 0, &counter);
    if (expected == 0) {
      EXPECT_TRUE(m.pruned);  // nothing beats best_so_far = 0 strictly
    } else {
      ASSERT_FALSE(m.pruned);
      EXPECT_EQ(m.length, expected);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LcssWedgeExactnessTest,
                         ::testing::Range(1, 7));

TEST(LcssWedgeSearcherTest, PrunesAgainstBestSoFar) {
  Rng rng(5);
  const std::size_t n = 30;
  LcssOptions options;
  options.epsilon = 0.3;
  options.delta = 3;
  const Series q = RandomSeries(&rng, n);
  StepCounter counter;
  LcssWedgeSearcher searcher(q, options, {}, &counter);
  const Series c = RandomSeries(&rng, n);
  // With best_so_far = n (perfect), nothing can strictly beat it.
  const LcssMatchResult m = searcher.Match(c.data(), n, &counter);
  EXPECT_TRUE(m.pruned);
}

/// Whole-database LCSS 1-NN runs through QueryEngine with kind = kLcss
/// and one terminal: the wedge ({kWedge}) or the full rotation scan
/// ({kFullScan}). The engine reports the LCSS distance 1 - length/n.
EngineOptions LcssEngineOptions(const LcssOptions& lcss, StageKind terminal) {
  EngineOptions options;
  options.kind = DistanceKind::kLcss;
  options.lcss = lcss;
  return WithStages(options, {terminal});
}

/// The LCSS length behind an engine result's distance.
std::size_t LcssLengthOf(const ScanResult& r, std::size_t n) {
  return static_cast<std::size_t>(
      std::llround((1.0 - r.best_distance) * static_cast<double>(n)));
}

TEST(LcssSearchDatabaseTest, WedgeAndBruteForceAgree) {
  Rng rng(6);
  const std::size_t n = 28;
  std::vector<Series> db;
  for (int i = 0; i < 15; ++i) db.push_back(RandomSeries(&rng, n));
  const Series q = RandomSeries(&rng, n);
  LcssOptions options;
  options.epsilon = 0.5;
  options.delta = 4;

  const ScanResult wedge =
      FlatEngine(db, LcssEngineOptions(options, StageKind::kWedge))->Search(q);
  const ScanResult brute =
      FlatEngine(db, LcssEngineOptions(options, StageKind::kFullScan))
          ->Search(q);
  EXPECT_EQ(LcssLengthOf(wedge, n), LcssLengthOf(brute, n));
  // Ties between objects are broken by scan order in both paths.
  EXPECT_EQ(wedge.best_index, brute.best_index);
}

TEST(LcssSearchDatabaseTest, WedgeSavesStepsWhenAGoodMatchExists) {
  // Pruning needs a tight best-so-far: once a near-perfect match is found,
  // the upper bound kills the remaining objects cheaply. (On pure noise
  // with a generous epsilon nothing can prune — that is a property of
  // LCSS, not of the wedge machinery.)
  Rng rng(9);
  const std::size_t n = 48;
  const Series q = RandomSeries(&rng, n);
  std::vector<Series> db;
  db.push_back(RotateLeft(q, 11));  // near-perfect match seen FIRST
  for (int i = 0; i < 30; ++i) db.push_back(RandomSeries(&rng, n));

  LcssOptions options;
  options.epsilon = 0.2;
  options.delta = 2;
  const ScanResult wedge =
      FlatEngine(db, LcssEngineOptions(options, StageKind::kWedge))->Search(q);
  const ScanResult brute =
      FlatEngine(db, LcssEngineOptions(options, StageKind::kFullScan))
          ->Search(q);
  EXPECT_EQ(wedge.best_index, 0);
  EXPECT_EQ(LcssLengthOf(wedge, n), LcssLengthOf(brute, n));
  EXPECT_LT(wedge.counter.total_steps(), brute.counter.total_steps() / 2);
}

TEST(LcssSearchDatabaseTest, FindsPlantedRotatedOccludedMatch) {
  // The LCSS use case (paper Figures 14/15): the query matches a rotated
  // object even when a chunk of the object is "missing" (occluded).
  Rng rng(7);
  const std::size_t n = 60;
  std::vector<Series> db;
  for (int i = 0; i < 10; ++i) db.push_back(RandomSeries(&rng, n));
  Series q = RandomSeries(&rng, n);
  Series planted = RotateLeft(q, 23);
  for (std::size_t i = 10; i < 18; ++i) planted[i] = 40.0;  // occlusion
  db[6] = planted;

  LcssOptions options;
  options.epsilon = 0.15;
  options.delta = 2;
  const ScanResult r =
      FlatEngine(db, LcssEngineOptions(options, StageKind::kWedge))->Search(q);
  EXPECT_EQ(r.best_index, 6);
  EXPECT_GE(1.0 - r.best_distance, 0.8);  // 52 of 60 points still match
  EXPECT_EQ(r.best_shift, 23);
}

TEST(LcssSearchDatabaseTest, MirrorOptionWorks) {
  Rng rng(8);
  const std::size_t n = 32;
  std::vector<Series> db;
  for (int i = 0; i < 8; ++i) db.push_back(RandomSeries(&rng, n));
  const Series q = RandomSeries(&rng, n);
  db[3] = RotateLeft(Reversed(q), 7);

  LcssOptions options;
  options.epsilon = 1e-9;
  options.delta = 0;
  EngineOptions mirror = LcssEngineOptions(options, StageKind::kWedge);
  mirror.rotation.mirror = true;
  const ScanResult r = FlatEngine(db, mirror)->Search(q);
  EXPECT_EQ(r.best_index, 3);
  EXPECT_EQ(LcssLengthOf(r, n), n);
  EXPECT_TRUE(r.best_mirrored);
}

}  // namespace
}  // namespace rotind

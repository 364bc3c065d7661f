/// Whole-database scans through QueryEngine over a FlatDataset: the
/// paper's rival cascades (full scan, early abandon, FFT filter + early
/// abandon, wedge) must return the brute-force answer for 1-NN, k-NN and
/// range queries.

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/datasets/synthetic.h"
#include "src/distance/rotation.h"
#include "src/search/engine.h"
#include "tests/testing/flat_engine.h"

namespace rotind {
namespace {

using testing::FlatEngine;
using testing::WithStages;

std::vector<Series> RandomDatabase(Rng* rng, std::size_t m, std::size_t n) {
  std::vector<Series> db(m);
  for (Series& s : db) {
    s.resize(n);
    for (double& v : s) v = rng->Gaussian(0.0, 1.0);
    ZNormalize(&s);
  }
  return db;
}

Series RandomQuery(Rng* rng, std::size_t n) {
  Series q(n);
  for (double& v : q) v = rng->Gaussian(0.0, 1.0);
  ZNormalize(&q);
  return q;
}

/// The paper's FFT rival: the vec-signature filter, run at n/2 dims where
/// it is the FFT-magnitude bound, in front of the early-abandoning scan.
const std::vector<StageKind> kFftRival = {StageKind::kVecSignature,
                                              StageKind::kExactScan};

EngineOptions HalfSpectrum(std::size_t n) {
  EngineOptions options;
  options.vec_sig_dims = n / 2;
  return options;
}

TEST(ScanTest, AllEuclideanRivalsAgree) {
  Rng rng(1);
  const std::size_t n = 32;
  const std::vector<Series> db = RandomDatabase(&rng, 40, n);
  const EngineOptions options = HalfSpectrum(n);  // Euclidean
  const FlatEngine brute(db, WithStages(options, {StageKind::kFullScan}));

  for (int trial = 0; trial < 5; ++trial) {
    const Series q = RandomQuery(&rng, n);
    const ScanResult ref = brute->Search(q);
    for (const std::vector<StageKind>& stages :
         {std::vector<StageKind>{StageKind::kExactScan}, kFftRival,
          std::vector<StageKind>{StageKind::kWedge}}) {
      const ScanResult r =
          FlatEngine(db, WithStages(options, stages))->Search(q);
      EXPECT_NEAR(r.best_distance, ref.best_distance, 1e-9)
          << "first stage " << static_cast<int>(stages[0]);
      EXPECT_EQ(r.best_index, ref.best_index);
    }
  }
}

TEST(ScanTest, AllDtwRivalsAgree) {
  Rng rng(2);
  const std::size_t n = 24;
  const std::vector<Series> db = RandomDatabase(&rng, 25, n);
  EngineOptions options;
  options.kind = DistanceKind::kDtw;
  options.band = 3;
  const FlatEngine banded(db,
                          WithStages(options, {StageKind::kFullScanBanded}));

  for (int trial = 0; trial < 3; ++trial) {
    const Series q = RandomQuery(&rng, n);
    const ScanResult ref = banded->Search(q);
    for (StageKind terminal : {StageKind::kExactScan, StageKind::kWedge}) {
      const ScanResult r =
          FlatEngine(db, WithStages(options, {terminal}))->Search(q);
      EXPECT_NEAR(r.best_distance, ref.best_distance, 1e-9);
      EXPECT_EQ(r.best_index, ref.best_index);
    }
  }
}

TEST(ScanTest, FindsPlantedRotatedMatch) {
  Rng rng(3);
  const std::size_t n = 40;
  std::vector<Series> db = RandomDatabase(&rng, 30, n);
  const Series q = RandomQuery(&rng, n);
  db[17] = RotateLeft(q, 9);
  for (const std::vector<StageKind>& stages :
       {std::vector<StageKind>{StageKind::kFullScan},
        std::vector<StageKind>{StageKind::kExactScan}, kFftRival,
        std::vector<StageKind>{StageKind::kWedge}}) {
    const ScanResult r =
        FlatEngine(db, WithStages(HalfSpectrum(n), stages))->Search(q);
    EXPECT_EQ(r.best_index, 17)
        << "first stage " << static_cast<int>(stages[0]);
    EXPECT_NEAR(r.best_distance, 0.0, 1e-9);
  }
}

TEST(ScanTest, WedgeReportsWinningShift) {
  Rng rng(4);
  const std::size_t n = 36;
  std::vector<Series> db = RandomDatabase(&rng, 10, n);
  const Series q = RandomQuery(&rng, n);
  db[3] = RotateLeft(q, 11);
  const ScanResult r = FlatEngine(db)->Search(q);  // default: wedge
  EXPECT_EQ(r.best_index, 3);
  EXPECT_EQ(r.best_shift, 11);
  EXPECT_FALSE(r.best_mirrored);
}

TEST(ScanTest, MirrorQueryFindsReversedObject) {
  Rng rng(5);
  const std::size_t n = 30;
  std::vector<Series> db = RandomDatabase(&rng, 12, n);
  const Series q = RandomQuery(&rng, n);
  db[7] = RotateLeft(Reversed(q), 4);
  EngineOptions options;
  options.rotation.mirror = true;
  for (StageKind terminal : {StageKind::kExactScan, StageKind::kWedge}) {
    const ScanResult r =
        FlatEngine(db, WithStages(options, {terminal}))->Search(q);
    EXPECT_EQ(r.best_index, 7);
    EXPECT_NEAR(r.best_distance, 0.0, 1e-9);
    EXPECT_TRUE(r.best_mirrored);
  }
}

TEST(ScanTest, WedgeIsCheaperThanBruteForceOnRealisticData) {
  // The headline claim, in miniature: on a shape database, wedge search
  // needs far fewer steps than the brute-force scan.
  const std::size_t n = 64;
  const std::vector<Series> db = MakeProjectilePointsDatabase(200, n, 77);
  Rng rng(6);
  const Series q = db[rng.NextBounded(200)];
  std::vector<Series> rest = db;
  rest.erase(rest.begin() + 50);

  const ScanResult brute =
      FlatEngine(rest, WithStages({}, {StageKind::kFullScan}))->Search(q);
  const ScanResult wedge =
      FlatEngine(rest, WithStages({}, {StageKind::kWedge}))->Search(q);
  EXPECT_NEAR(wedge.best_distance, brute.best_distance, 1e-9);
  EXPECT_LT(wedge.counter.total_steps(), brute.counter.total_steps() / 5);
}

TEST(ScanTest, AnalyticBruteForceStepsMatchActualCounter) {
  Rng rng(7);
  const std::size_t n = 20;
  const std::size_t m = 15;
  const std::vector<Series> db = RandomDatabase(&rng, m, n);
  const Series q = RandomQuery(&rng, n);

  const ScanResult ed =
      FlatEngine(db, WithStages({}, {StageKind::kFullScan}))->Search(q);
  EXPECT_EQ(ed.counter.total_steps(),
            AnalyticBruteForceSteps(m, n, n, DistanceKind::kEuclidean, 0));

  EngineOptions options;
  options.kind = DistanceKind::kDtw;
  options.band = 3;
  const ScanResult dtw =
      FlatEngine(db, WithStages(options, {StageKind::kFullScanBanded}))
          ->Search(q);
  EXPECT_EQ(dtw.counter.total_steps(),
            AnalyticBruteForceSteps(m, n, n, DistanceKind::kDtw, 3));

  const ScanResult dtw_full =
      FlatEngine(db, WithStages(options, {StageKind::kFullScan}))->Search(q);
  EXPECT_EQ(dtw_full.counter.total_steps(),
            AnalyticBruteForceSteps(m, n, n, DistanceKind::kDtw, -1));
}

TEST(KnnSearchTest, MatchesBruteForceOrdering) {
  Rng rng(8);
  const std::size_t n = 28;
  const std::vector<Series> db = RandomDatabase(&rng, 30, n);
  const Series q = RandomQuery(&rng, n);

  // Reference: compute all rotation-invariant distances directly.
  std::vector<std::pair<double, int>> ref;
  for (std::size_t i = 0; i < db.size(); ++i) {
    ref.emplace_back(RotationInvariantEuclidean(q, db[i]),
                     static_cast<int>(i));
  }
  std::sort(ref.begin(), ref.end());

  for (StageKind terminal :
       {StageKind::kFullScan, StageKind::kExactScan, StageKind::kWedge}) {
    const std::vector<Neighbor> knn =
        FlatEngine(db, WithStages({}, {terminal}))->Knn(q, 5);
    ASSERT_EQ(knn.size(), 5u);
    for (int i = 0; i < 5; ++i) {
      EXPECT_NEAR(knn[static_cast<std::size_t>(i)].distance,
                  ref[static_cast<std::size_t>(i)].first, 1e-9)
          << "terminal=" << static_cast<int>(terminal) << " i=" << i;
    }
  }
}

TEST(KnnSearchTest, KLargerThanDatabase) {
  Rng rng(9);
  const std::vector<Series> db = RandomDatabase(&rng, 4, 16);
  const Series q = RandomQuery(&rng, 16);
  EXPECT_EQ(FlatEngine(db)->Knn(q, 10).size(), 4u);
}

TEST(RangeSearchTest, MatchesBruteForceSet) {
  Rng rng(10);
  const std::size_t n = 24;
  const std::vector<Series> db = RandomDatabase(&rng, 40, n);
  const Series q = RandomQuery(&rng, n);

  std::vector<double> dists;
  for (const Series& c : db) {
    dists.push_back(RotationInvariantEuclidean(q, c));
  }
  std::vector<double> sorted = dists;
  std::sort(sorted.begin(), sorted.end());
  const double radius = sorted[10];  // include exactly 11 objects (ties rare)

  for (StageKind terminal :
       {StageKind::kFullScan, StageKind::kExactScan, StageKind::kWedge}) {
    const std::vector<Neighbor> in_range =
        FlatEngine(db, WithStages({}, {terminal}))->Range(q, radius);
    std::size_t expected = 0;
    for (double d : dists) {
      if (d <= radius) ++expected;
    }
    EXPECT_EQ(in_range.size(), expected)
        << "terminal=" << static_cast<int>(terminal);
    for (const Neighbor& nb : in_range) {
      EXPECT_LE(nb.distance, radius + 1e-12);
      EXPECT_NEAR(nb.distance, dists[static_cast<std::size_t>(nb.index)],
                  1e-9);
    }
  }
}

TEST(ScanTest, EmptyDatabase) {
  const Series q = {1.0, 2.0, 3.0};
  const ScanResult r = FlatEngine(std::vector<Series>{})->Search(q);
  EXPECT_EQ(r.best_index, -1);
  EXPECT_TRUE(std::isinf(r.best_distance));
}

}  // namespace
}  // namespace rotind

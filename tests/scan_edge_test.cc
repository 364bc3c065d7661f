/// Edge-case and option-combination coverage for QueryEngine scans over a
/// FlatDataset, beyond the rival-agreement suites in scan_test.cc.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/core/step_counter.h"
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

TEST(ScanEdgeTest, FftAlgorithmUnderDtwIsStillExact) {
  // FFT magnitudes do not bound DTW; the scan must degrade gracefully to
  // an exact scan rather than silently using the Euclidean bound. The FFT
  // rival is the vec-signature filter at n/2 dims.
  Rng rng(1);
  const std::size_t n = 24;
  const auto db = RandomDatabase(&rng, 20, n);
  EngineOptions options;
  options.kind = DistanceKind::kDtw;
  options.band = 3;
  options.vec_sig_dims = n / 2;
  const FlatEngine banded(db,
                          WithStages(options, {StageKind::kFullScanBanded}));
  const FlatEngine fft_scan(
      db, WithStages(options,
                     {StageKind::kVecSignature, StageKind::kExactScan}));
  for (int trial = 0; trial < 3; ++trial) {
    Series q = RandomDatabase(&rng, 1, n)[0];
    const ScanResult reference = banded->Search(q);
    const ScanResult fft = fft_scan->Search(q);
    EXPECT_EQ(fft.best_index, reference.best_index);
    EXPECT_NEAR(fft.best_distance, reference.best_distance, 1e-9);
  }
}

TEST(ScanEdgeTest, SingleObjectDatabase) {
  Rng rng(2);
  const auto db = RandomDatabase(&rng, 1, 16);
  const Series q = RandomDatabase(&rng, 1, 16)[0];
  EngineOptions options;
  options.vec_sig_dims = 8;  // n/2: the FFT-magnitude bound
  for (const std::vector<StageKind>& stages :
       {std::vector<StageKind>{StageKind::kFullScan},
        std::vector<StageKind>{StageKind::kExactScan},
        std::vector<StageKind>{StageKind::kVecSignature,
                               StageKind::kExactScan},
        std::vector<StageKind>{StageKind::kWedge}}) {
    const ScanResult r =
        FlatEngine(db, WithStages(options, stages))->Search(q);
    EXPECT_EQ(r.best_index, 0);
    EXPECT_TRUE(std::isfinite(r.best_distance));
  }
}

TEST(ScanEdgeTest, KnnWithKOneMatchesSearch) {
  Rng rng(3);
  const auto db = RandomDatabase(&rng, 25, 20);
  const Series q = RandomDatabase(&rng, 1, 20)[0];
  const FlatEngine engine(db);  // wedge cascade
  const ScanResult nn = engine->Search(q);
  const auto knn = engine->Knn(q, 1);
  ASSERT_EQ(knn.size(), 1u);
  EXPECT_EQ(knn[0].index, nn.best_index);
  EXPECT_NEAR(knn[0].distance, nn.best_distance, 1e-9);
}

TEST(ScanEdgeTest, RangeSearchRadiusZeroFindsExactDuplicates) {
  Rng rng(4);
  auto db = RandomDatabase(&rng, 10, 24);
  const Series q = RandomDatabase(&rng, 1, 24)[0];
  db[6] = RotateLeft(q, 5);  // exact rotated duplicate
  const auto hits = FlatEngine(db)->Range(q, 0.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].index, 6);
  EXPECT_NEAR(hits[0].distance, 0.0, 1e-12);
}

TEST(ScanEdgeTest, RangeSearchHugeRadiusReturnsEverything) {
  Rng rng(5);
  const auto db = RandomDatabase(&rng, 12, 16);
  const Series q = RandomDatabase(&rng, 1, 16)[0];
  const auto hits = FlatEngine(db)->Range(q, 1e6);
  EXPECT_EQ(hits.size(), db.size());
  // Sorted ascending.
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i - 1].distance, hits[i].distance);
  }
}

TEST(ScanEdgeTest, MirrorPlusRotationLimitedCombination) {
  Rng rng(6);
  const std::size_t n = 36;
  auto db = RandomDatabase(&rng, 15, n);
  const Series q = RandomDatabase(&rng, 1, n)[0];
  // A mirrored copy at a small shift: findable only with BOTH options.
  db[8] = RotateLeft(Reversed(q), 2);

  EngineOptions options;
  options.rotation.mirror = true;
  options.rotation.max_shift = 3;
  for (StageKind terminal :
       {StageKind::kFullScan, StageKind::kExactScan, StageKind::kWedge}) {
    const ScanResult r =
        FlatEngine(db, WithStages(options, {terminal}))->Search(q);
    EXPECT_EQ(r.best_index, 8) << static_cast<int>(terminal);
    EXPECT_NEAR(r.best_distance, 0.0, 1e-9);
    EXPECT_TRUE(r.best_mirrored);
  }
}

TEST(ScanEdgeTest, AllAlgorithmsAgreeUnderRotationLimit) {
  Rng rng(7);
  const std::size_t n = 30;
  const auto db = RandomDatabase(&rng, 20, n);
  EngineOptions options;
  options.rotation.max_shift = 4;
  options.vec_sig_dims = n / 2;
  const Series q = RandomDatabase(&rng, 1, n)[0];
  const ScanResult brute =
      FlatEngine(db, WithStages(options, {StageKind::kFullScan}))->Search(q);
  for (const std::vector<StageKind>& stages :
       {std::vector<StageKind>{StageKind::kExactScan},
        std::vector<StageKind>{StageKind::kVecSignature,
                               StageKind::kExactScan},
        std::vector<StageKind>{StageKind::kWedge}}) {
    const ScanResult r = FlatEngine(db, WithStages(options, stages))->Search(q);
    EXPECT_EQ(r.best_index, brute.best_index);
    EXPECT_NEAR(r.best_distance, brute.best_distance, 1e-9);
  }
}

TEST(StepCounterTest, AggregationAndReset) {
  StepCounter a;
  a.steps = 10;
  a.setup_steps = 5;
  a.lower_bound_evals = 2;
  a.full_evals = 1;
  a.early_abandons = 3;
  StepCounter b;
  b.steps = 1;
  b.setup_steps = 2;
  b += a;
  EXPECT_EQ(b.steps, 11u);
  EXPECT_EQ(b.setup_steps, 7u);
  EXPECT_EQ(b.total_steps(), 18u);
  EXPECT_EQ(b.lower_bound_evals, 2u);
  b.Reset();
  EXPECT_EQ(b.total_steps(), 0u);

  AddSteps(nullptr, 5);       // null-safe
  AddSetupSteps(nullptr, 5);  // null-safe
}

TEST(ScanEdgeTest, DeterministicAcrossRuns) {
  Rng rng(8);
  const auto db = RandomDatabase(&rng, 30, 24);
  const Series q = RandomDatabase(&rng, 1, 24)[0];
  const ScanResult a = FlatEngine(db)->Search(q);
  const ScanResult b = FlatEngine(db)->Search(q);
  EXPECT_EQ(a.best_index, b.best_index);
  EXPECT_EQ(a.counter.total_steps(), b.counter.total_steps());
}

}  // namespace
}  // namespace rotind

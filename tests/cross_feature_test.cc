/// Cross-feature exactness matrix: the wedge scan must agree with brute
/// force for EVERY combination of distance kind, mirror invariance,
/// rotation limit, and hierarchy construction — the full option space a
/// downstream user can reach through EngineOptions.

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/distance/dtw.h"
#include "src/distance/euclidean.h"
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

/// (kind 0=ED 1=DTW, mirror, max_shift, hierarchy 0=clustered 1=contiguous)
using Config = std::tuple<int, bool, int, int>;

class CrossFeatureTest : public ::testing::TestWithParam<Config> {};

TEST_P(CrossFeatureTest, WedgeScanMatchesBruteForce) {
  const auto [kind, mirror, max_shift, hierarchy] = GetParam();
  Rng rng(static_cast<std::uint64_t>(kind) * 1000 + mirror * 100 +
          static_cast<std::uint64_t>(max_shift + 1) * 10 +
          static_cast<std::uint64_t>(hierarchy));
  const std::size_t n = 26;
  const std::vector<Series> db = RandomDatabase(&rng, 18, n);

  EngineOptions options;
  options.kind = kind == 0 ? DistanceKind::kEuclidean : DistanceKind::kDtw;
  options.band = 3;
  options.rotation.mirror = mirror;
  options.rotation.max_shift = max_shift;
  options.wedge.hierarchy = hierarchy == 0 ? WedgeHierarchy::kClustered
                                           : WedgeHierarchy::kContiguous;

  const FlatEngine reference(
      db, WithStages(options, {kind == 0 ? StageKind::kFullScan
                                         : StageKind::kFullScanBanded}));
  const FlatEngine wedge_engine(db, WithStages(options, {StageKind::kWedge}));
  for (int trial = 0; trial < 3; ++trial) {
    const Series q = RandomDatabase(&rng, 1, n)[0];
    const ScanResult brute = reference->Search(q);
    const ScanResult wedge = wedge_engine->Search(q);
    EXPECT_EQ(wedge.best_index, brute.best_index);
    EXPECT_NEAR(wedge.best_distance, brute.best_distance, 1e-9);
    // The reported alignment must reproduce the reported distance.
    Series aligned = wedge.best_mirrored ? Reversed(q) : q;
    aligned = RotateLeft(aligned, wedge.best_shift);
    const Series& c = db[static_cast<std::size_t>(wedge.best_index)];
    const double direct =
        kind == 0
            ? EuclideanDistance(aligned, c)
            : DtwDistance(aligned.data(), c.data(), n, options.band);
    EXPECT_NEAR(direct, wedge.best_distance, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CrossFeatureTest,
    ::testing::Combine(::testing::Values(0, 1),          // ED / DTW
                       ::testing::Bool(),                // mirror
                       ::testing::Values(-1, 0, 4),      // rotation limit
                       ::testing::Values(0, 1)));        // hierarchy

TEST(CrossFeatureTest, AlignmentReportedByBruteForceAlsoReconstructs) {
  Rng rng(77);
  const std::size_t n = 30;
  const std::vector<Series> db = RandomDatabase(&rng, 10, n);
  const Series q = RandomDatabase(&rng, 1, n)[0];
  EngineOptions options;
  options.rotation.mirror = true;
  const ScanResult r =
      FlatEngine(db, WithStages(options, {StageKind::kFullScan}))->Search(q);
  Series aligned = r.best_mirrored ? Reversed(q) : q;
  aligned = RotateLeft(aligned, r.best_shift);
  EXPECT_NEAR(
      EuclideanDistance(aligned, db[static_cast<std::size_t>(r.best_index)]),
      r.best_distance, 1e-9);
}

}  // namespace
}  // namespace rotind

/// QueryEngine basics: cascade normalization, leave-one-out scans,
/// validation, and the single-sourced options (a wedge policy cannot carry
/// its own kind/band/rotation — WedgePolicy simply has no such fields).

#include "src/search/engine.h"

#include <gtest/gtest.h>

#include <limits>

#include "src/core/flat_dataset.h"
#include "src/datasets/synthetic.h"
#include "tests/testing/flat_engine.h"

namespace rotind {
namespace {

using testing::FlatEngine;
using testing::WithStages;

FlatDataset MakeDb(std::size_t m, std::size_t n, std::uint64_t seed) {
  return FlatDataset::FromItems(MakeProjectilePointsDatabase(m, n, seed));
}

// --- Cascade normalization -------------------------------------------------

TEST(CascadeSpecTest, DefaultIsWedge) {
  CascadeSpec spec;
  ASSERT_EQ(spec.stages.size(), 1u);
  EXPECT_EQ(spec.stages[0], StageKind::kWedge);
}

TEST(CascadeSpecTest, StagesAfterFirstTerminalAreDropped) {
  CascadeSpec spec;
  spec.stages = {StageKind::kWedge, StageKind::kExactScan,
                 StageKind::kFullScan};
  const CascadeSpec norm = spec.Normalized(DistanceKind::kEuclidean);
  ASSERT_EQ(norm.stages.size(), 1u);
  EXPECT_EQ(norm.stages[0], StageKind::kWedge);
}

TEST(CascadeSpecTest, FilterOnlyCascadeGetsExactScanAppended) {
  CascadeSpec spec;
  spec.stages = {StageKind::kVecSignature};
  const CascadeSpec norm = spec.Normalized(DistanceKind::kEuclidean);
  ASSERT_EQ(norm.stages.size(), 2u);
  EXPECT_EQ(norm.stages[1], StageKind::kExactScan);
}

TEST(CascadeSpecTest, EmptyCascadeGetsExactScan) {
  CascadeSpec spec;
  spec.stages = {};
  const CascadeSpec norm = spec.Normalized(DistanceKind::kDtw);
  ASSERT_EQ(norm.stages.size(), 1u);
  EXPECT_EQ(norm.stages[0], StageKind::kExactScan);
}

TEST(CascadeSpecTest, VecSignatureIsEuclideanOnly) {
  CascadeSpec spec;
  spec.stages = {StageKind::kVecSignature, StageKind::kExactScan};
  const CascadeSpec ed = spec.Normalized(DistanceKind::kEuclidean);
  ASSERT_EQ(ed.stages.size(), 2u);
  EXPECT_EQ(ed.stages[0], StageKind::kVecSignature);
  // The pooled-spectrum bound only holds for RED: dropped for DTW/LCSS.
  for (const DistanceKind kind : {DistanceKind::kDtw, DistanceKind::kLcss}) {
    const CascadeSpec other = spec.Normalized(kind);
    ASSERT_EQ(other.stages.size(), 1u);
    EXPECT_EQ(other.stages[0], StageKind::kExactScan);
  }
}

/// One filter kind, kept once: a second copy would recompute the same
/// bound for every candidate it sees.
TEST(CascadeSpecTest, DuplicateVecSignatureNormalizesToOne) {
  CascadeSpec spec;
  spec.stages = {StageKind::kVecSignature, StageKind::kVecSignature,
                 StageKind::kSignatureIndex, StageKind::kVecSignature,
                 StageKind::kWedge};
  const CascadeSpec ed = spec.Normalized(DistanceKind::kEuclidean);
  ASSERT_EQ(ed.stages.size(), 3u);
  EXPECT_EQ(ed.stages[0], StageKind::kSignatureIndex);
  EXPECT_EQ(ed.stages[1], StageKind::kVecSignature);
  EXPECT_EQ(ed.stages[2], StageKind::kWedge);
  CascadeSpec alone;
  alone.stages = {StageKind::kVecSignature, StageKind::kVecSignature};
  const CascadeSpec filled = alone.Normalized(DistanceKind::kEuclidean);
  ASSERT_EQ(filled.stages.size(), 2u);
  EXPECT_EQ(filled.stages[0], StageKind::kVecSignature);
  EXPECT_EQ(filled.stages[1], StageKind::kExactScan);
}

/// kSignatureIndex orders the visit instead of filtering: normalization
/// keeps one copy in front, and drops it under LCSS and ahead of
/// unconstrained DTW. The Euclidean-only filter behind it stays under ED.
TEST(CascadeSpecTest, SignatureIndexMovesToTheFront) {
  CascadeSpec spec;
  spec.stages = {StageKind::kVecSignature, StageKind::kSignatureIndex,
                 StageKind::kSignatureIndex, StageKind::kWedge};
  const CascadeSpec ed = spec.Normalized(DistanceKind::kEuclidean);
  ASSERT_EQ(ed.stages.size(), 3u);
  EXPECT_EQ(ed.stages[0], StageKind::kSignatureIndex);
  EXPECT_EQ(ed.stages[1], StageKind::kVecSignature);
  EXPECT_EQ(ed.stages[2], StageKind::kWedge);
  const CascadeSpec dtw = spec.Normalized(DistanceKind::kDtw);
  ASSERT_EQ(dtw.stages.size(), 2u);
  EXPECT_EQ(dtw.stages[0], StageKind::kSignatureIndex);
  EXPECT_EQ(dtw.stages[1], StageKind::kWedge);
  const CascadeSpec lcss = spec.Normalized(DistanceKind::kLcss);
  ASSERT_EQ(lcss.stages.size(), 1u);
  EXPECT_EQ(lcss.stages[0], StageKind::kWedge);

  CascadeSpec full;
  full.stages = {StageKind::kSignatureIndex, StageKind::kFullScan};
  const CascadeSpec dtw_full = full.Normalized(DistanceKind::kDtw);
  ASSERT_EQ(dtw_full.stages.size(), 1u);
  EXPECT_EQ(dtw_full.stages[0], StageKind::kFullScan);
  EXPECT_EQ(full.Normalized(DistanceKind::kEuclidean).stages.size(), 2u);

  // Alone, it still gets the default exact terminal; after the terminal
  // it is ignored like any other stage.
  CascadeSpec alone;
  alone.stages = {StageKind::kSignatureIndex};
  const CascadeSpec filled = alone.Normalized(DistanceKind::kEuclidean);
  ASSERT_EQ(filled.stages.size(), 2u);
  EXPECT_EQ(filled.stages[1], StageKind::kExactScan);
  CascadeSpec late;
  late.stages = {StageKind::kWedge, StageKind::kSignatureIndex};
  EXPECT_EQ(late.Normalized(DistanceKind::kEuclidean).stages.size(), 1u);
}

// --- Search and leave-one-out ---------------------------------------------

TEST(QueryEngineTest, SearchFindsRotatedSelf) {
  const std::size_t n = 32;
  FlatDataset db = MakeDb(10, n, 9);
  const Series item = db.Materialize(4);
  // Query = item 4 rotated by 11 positions; exact match at that shift.
  Series query(n);
  for (std::size_t j = 0; j < n; ++j) query[j] = item[(j + 11) % n];
  const QueryEngine engine(db);
  const ScanResult hit = engine.Search(query);
  EXPECT_EQ(hit.best_index, 4);
  EXPECT_NEAR(hit.best_distance, 0.0, 1e-9);
}

TEST(QueryEngineTest, LeaveOneOutSkipsTheHoldout) {
  FlatDataset db = MakeDb(12, 48, 10);
  const QueryEngine engine(db);
  const Series query = db.Materialize(3);
  // Unrestricted search finds the query itself at distance 0...
  EXPECT_EQ(engine.Search(query).best_index, 3);
  // ...leave-one-out must find someone else.
  EXPECT_NE(engine.SearchLeaveOneOut(query, 3).best_index, 3);
}

TEST(QueryEngineTest, KnnLeaveOneOutMatchesRestrictedLegacyKnn) {
  const std::size_t n = 48;
  const std::vector<Series> items = MakeProjectilePointsDatabase(25, n, 13);
  const std::size_t holdout = 6;
  std::vector<Series> rest;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != holdout) rest.push_back(items[i]);
  }
  const auto restricted = FlatEngine(rest)->Knn(items[holdout], 5);
  const FlatDataset flat = FlatDataset::FromItems(items);
  const QueryEngine engine(flat);
  const auto engine_knn = engine.KnnLeaveOneOut(items[holdout], 5, holdout);
  ASSERT_EQ(restricted.size(), engine_knn.size());
  for (std::size_t i = 0; i < restricted.size(); ++i) {
    // Leave-one-out indexes are in full-database space; the restricted
    // engine's skip the holdout. Distances must agree exactly.
    EXPECT_EQ(restricted[i].distance, engine_knn[i].distance) << "rank " << i;
    const int mapped = restricted[i].index >= static_cast<int>(holdout)
                           ? restricted[i].index + 1
                           : restricted[i].index;
    EXPECT_EQ(mapped, engine_knn[i].index) << "rank " << i;
  }
}

// --- Validation ------------------------------------------------------------

TEST(QueryEngineTest, ValidatesQueryLengthAgainstFlatStorage) {
  FlatDataset db = MakeDb(5, 16, 20);
  const QueryEngine engine(db);
  EXPECT_TRUE(engine.ValidateQuery(Series(16, 0.5)).ok());
  EXPECT_FALSE(engine.ValidateQuery(Series(15, 0.5)).ok());
  EXPECT_FALSE(engine.ValidateQuery({}).ok());
  Series nan_query(16, 0.5);
  nan_query[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(engine.ValidateQuery(nan_query).ok());
}

TEST(QueryEngineTest, CheckedKnnRejectsBadK) {
  FlatDataset db = MakeDb(5, 16, 21);
  const QueryEngine engine(db);
  EXPECT_FALSE(engine.KnnChecked(Series(16, 0.5), 0).ok());
  EXPECT_TRUE(engine.KnnChecked(Series(16, 0.5), 2).ok());
}

/// Regression: the unchecked k-NN entry points read the top of an empty
/// heap for k < 1 (undefined behaviour the sanitizer job reports). They
/// now return an empty result without scanning.
TEST(QueryEngineTest, UncheckedKnnWithKBelowOneIsEmpty) {
  FlatDataset db = MakeDb(5, 16, 23);
  const QueryEngine engine(db);
  const Series query(16, 0.5);
  for (const int k : {0, -1}) {
    StepCounter counter;
    EXPECT_TRUE(engine.Knn(query, k, &counter).empty()) << "k=" << k;
    EXPECT_EQ(counter.total_steps(), 0u) << "k=" << k;
    EXPECT_TRUE(engine.KnnLeaveOneOut(query, k, 2).empty()) << "k=" << k;
    const auto batch = engine.KnnSearchBatch({query, query}, k, 2);
    ASSERT_EQ(batch.size(), 2u) << "k=" << k;
    EXPECT_TRUE(batch[0].empty() && batch[1].empty()) << "k=" << k;
  }
}

TEST(QueryEngineTest, CheckedRangeRejectsBadRadius) {
  FlatDataset db = MakeDb(5, 16, 22);
  const QueryEngine engine(db);
  EXPECT_FALSE(engine.RangeChecked(Series(16, 0.5), -1.0).ok());
  EXPECT_FALSE(
      engine
          .RangeChecked(Series(16, 0.5),
                        std::numeric_limits<double>::quiet_NaN())
          .ok());
  EXPECT_TRUE(engine.RangeChecked(Series(16, 0.5), 1.0).ok());
}

// --- Options single-sourcing (the old footgun) -----------------------------

/// The measure (kind, band, rotation) lives only in EngineOptions;
/// WedgePolicy carries genuine wedge knobs alone, so a contradiction cannot
/// be expressed. This test documents the seam by exercising a non-default
/// policy end to end.
TEST(QueryEngineTest, WedgePolicyRidesAlongWithoutDuplicatingMeasure) {
  const std::size_t n = 64;
  const std::vector<Series> items = MakeProjectilePointsDatabase(30, n, 23);
  EngineOptions options;
  options.kind = DistanceKind::kDtw;
  options.band = 3;
  options.wedge.dynamic_k = false;
  options.wedge.fixed_k = 4;

  // The composed search agrees with brute force.
  const FlatDataset flat = FlatDataset::FromItems(items);
  const QueryEngine engine(flat, options);
  const ScanResult wedge = engine.SearchLeaveOneOut(items[2], 2);
  std::vector<Series> rest;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 2) rest.push_back(items[i]);
  }
  const ScanResult ref =
      FlatEngine(rest, WithStages(options, {StageKind::kFullScanBanded}))
          ->Search(items[2]);
  EXPECT_DOUBLE_EQ(wedge.best_distance, ref.best_distance);
}

}  // namespace
}  // namespace rotind

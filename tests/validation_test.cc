#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/flat_dataset.h"
#include "src/distance/rotation.h"
#include "src/search/engine.h"
#include "src/search/hmerge.h"
#include "src/storage/simulated_disk.h"
#include "tests/testing/flat_engine.h"

namespace rotind {
namespace {

using testing::FlatEngine;
using testing::WithStages;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

std::vector<Series> SmallDb() {
  return {{0.0, 1.0, 2.0, 3.0}, {3.0, 2.0, 1.0, 0.0}, {1.0, 1.0, 1.0, 1.0}};
}

// --- Scan entry points -----------------------------------------------------

TEST(ScanValidationTest, AcceptsWellFormedInputs) {
  const FlatEngine engine(SmallDb());  // wedge cascade
  const Series query{0.5, 1.5, 2.5, 3.5};
  StatusOr<ScanResult> r = engine->SearchChecked(query);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Same answer as the unchecked entry point.
  const ScanResult direct = engine->Search(query);
  EXPECT_EQ(r->best_index, direct.best_index);
  EXPECT_DOUBLE_EQ(r->best_distance, direct.best_distance);
}

TEST(ScanValidationTest, RejectsEmptyQuery) {
  StatusOr<ScanResult> r =
      FlatEngine(SmallDb(), WithStages({}, {StageKind::kFullScan}))
          ->SearchChecked(Series{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScanValidationTest, RejectsNonFiniteQuery) {
  StatusOr<ScanResult> r =
      FlatEngine(SmallDb(), WithStages({}, {StageKind::kExactScan}))
          ->SearchChecked(Series{0.0, kNan, 2.0, 3.0});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

/// A ragged database never reaches an engine: the validated FlatDataset
/// builder rejects it, naming the offending item.
TEST(ScanValidationTest, RejectsMismatchedDbItem) {
  auto db = SmallDb();
  db.push_back({1.0, 2.0});  // wrong length
  StatusOr<FlatDataset> flat = FlatDataset::FromItemsChecked(db);
  ASSERT_FALSE(flat.ok());
  EXPECT_EQ(flat.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(flat.status().message().find("item 3"), std::string::npos)
      << flat.status().message();
}

TEST(ScanValidationTest, KnnRejectsNonPositiveK) {
  StatusOr<std::vector<Neighbor>> r =
      FlatEngine(SmallDb())->KnnChecked(Series{0.0, 1.0, 2.0, 3.0}, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScanValidationTest, RangeRejectsBadRadius) {
  const FlatEngine engine(SmallDb());
  for (double radius : {-1.0, kNan, std::numeric_limits<double>::infinity()}) {
    StatusOr<std::vector<Neighbor>> r =
        engine->RangeChecked(Series{0.0, 1.0, 2.0, 3.0}, radius);
    ASSERT_FALSE(r.ok()) << radius;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ScanValidationTest, KnnCheckedMatchesUnchecked) {
  const FlatEngine engine(SmallDb(), WithStages({}, {StageKind::kExactScan}));
  const Series query{0.1, 1.1, 2.1, 3.1};
  StatusOr<std::vector<Neighbor>> r = engine->KnnChecked(query, 2);
  ASSERT_TRUE(r.ok());
  const auto direct = engine->Knn(query, 2);
  ASSERT_EQ(r->size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ((*r)[i].index, direct[i].index);
  }
}

// --- Wedge searcher / H-Merge ---------------------------------------------

TEST(WedgeValidationTest, CreateRejectsEmptyAndNonFiniteQueries) {
  StepCounter counter;
  auto empty = WedgeSearcher::Create(Series{}, WedgeSearchOptions{}, &counter);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  auto nan = WedgeSearcher::Create(Series{1.0, kNan}, WedgeSearchOptions{},
                                   &counter);
  ASSERT_FALSE(nan.ok());
  EXPECT_EQ(nan.status().code(), StatusCode::kInvalidArgument);
}

TEST(WedgeValidationTest, CreateBuildsWorkingSearcher) {
  StepCounter counter;
  const Series query{0.0, 1.0, 2.0, 1.0};
  auto searcher =
      WedgeSearcher::Create(query, WedgeSearchOptions{}, &counter);
  ASSERT_TRUE(searcher.ok()) << searcher.status().ToString();
  const Series candidate{1.0, 2.0, 1.0, 0.0};  // a rotation of the query
  const HMergeResult r = (*searcher)->Distance(
      candidate.data(), std::numeric_limits<double>::infinity(), &counter);
  ASSERT_FALSE(r.abandoned);
  EXPECT_NEAR(r.distance, 0.0, 1e-12);
}

TEST(WedgeValidationTest, HMergeCheckedRejectsBadInputs) {
  StepCounter counter;
  const Series query{0.0, 1.0, 2.0, 1.0};
  WedgeTree tree(query, RotationOptions{}, /*dtw_band=*/0, &counter);
  const std::vector<int> wedges = tree.WedgeSetForK(2);
  const Series candidate{1.0, 2.0, 1.0, 0.0};

  auto null_c = HMergeChecked(nullptr, 4, tree, wedges, 10.0);
  ASSERT_FALSE(null_c.ok());
  EXPECT_EQ(null_c.status().code(), StatusCode::kInvalidArgument);

  auto short_c = HMergeChecked(candidate.data(), 3, tree, wedges, 10.0);
  ASSERT_FALSE(short_c.ok());
  EXPECT_EQ(short_c.status().code(), StatusCode::kInvalidArgument);

  auto bad_wedge =
      HMergeChecked(candidate.data(), 4, tree, {tree.num_nodes()}, 10.0);
  ASSERT_FALSE(bad_wedge.ok());
  EXPECT_EQ(bad_wedge.status().code(), StatusCode::kOutOfRange);

  auto ok = HMergeChecked(candidate.data(), 4, tree, wedges, 10.0);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_NEAR(ok->distance, 0.0, 1e-12);
}

// --- Rotation-invariant one-shot wrappers ---------------------------------

TEST(RotationValidationTest, RejectsMismatchedAndEmptyPairs) {
  auto mismatched = RotationInvariantEuclideanChecked(Series{1.0, 2.0},
                                                      Series{1.0, 2.0, 3.0});
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);

  auto empty = RotationInvariantDtwChecked(Series{}, Series{}, 2);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  LcssOptions lcss;
  auto lcss_empty = RotationInvariantLcssChecked(Series{}, Series{}, lcss);
  ASSERT_FALSE(lcss_empty.ok());
  EXPECT_EQ(lcss_empty.status().code(), StatusCode::kInvalidArgument);
}

TEST(RotationValidationTest, CheckedMatchesUnchecked) {
  const Series q{0.0, 1.0, 2.0, 3.0};
  const Series c{3.0, 2.0, 1.0, 0.0};
  auto ed = RotationInvariantEuclideanChecked(q, c);
  ASSERT_TRUE(ed.ok());
  EXPECT_DOUBLE_EQ(*ed, RotationInvariantEuclidean(q, c));

  auto dtw = RotationInvariantDtwChecked(q, c, /*band=*/1);
  ASSERT_TRUE(dtw.ok());
  EXPECT_DOUBLE_EQ(*dtw, RotationInvariantDtw(q, c, /*band=*/1));
}

// --- SimulatedDisk ---------------------------------------------------------

TEST(DiskValidationTest, TryFetchRejectsInvalidIds) {
  storage::SimulatedDisk disk;
  disk.Store(Series{1.0, 2.0, 3.0});
  for (int id : {-1, 1, 1000}) {
    auto fetched = disk.TryFetch(id);
    ASSERT_FALSE(fetched.ok()) << id;
    EXPECT_EQ(fetched.status().code(), StatusCode::kOutOfRange) << id;
    auto peeked = disk.TryPeek(id);
    ASSERT_FALSE(peeked.ok()) << id;
    EXPECT_EQ(peeked.status().code(), StatusCode::kOutOfRange) << id;
  }
  // Failed fetches count nothing.
  EXPECT_EQ(disk.object_fetches(), 0u);
  EXPECT_EQ(disk.page_reads(), 0u);

  auto ok = disk.TryFetch(0);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((**ok).size(), 3u);
  EXPECT_EQ(disk.object_fetches(), 1u);
}

}  // namespace
}  // namespace rotind

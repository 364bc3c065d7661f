/// FlatDataset: one contiguous row per item and the SoA tile copy.

#include "src/core/flat_dataset.h"

#include <gtest/gtest.h>

#include <limits>

#include "src/core/aligned.h"
#include "src/core/random.h"

namespace rotind {
namespace {

TEST(FlatDatasetTest, EmptyByDefault) {
  FlatDataset db;
  EXPECT_TRUE(db.empty());
  EXPECT_EQ(db.size(), 0u);
  EXPECT_EQ(db.length(), 0u);
}

TEST(FlatDatasetTest, AddFixesLengthAndStoresItems) {
  FlatDataset db;
  ASSERT_TRUE(db.Add({1.0, 2.0, 3.0}).ok());
  ASSERT_TRUE(db.Add({4.0, 5.0, 6.0}).ok());
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.length(), 3u);
  EXPECT_EQ(db.Materialize(0), (Series{1.0, 2.0, 3.0}));
  EXPECT_EQ(db.Materialize(1), (Series{4.0, 5.0, 6.0}));
}

/// A series shorter or longer than the dataset's length is refused in every
/// build, with both lengths named, and leaves the dataset as it was.
TEST(FlatDatasetTest, AddRejectsAShortSeries) {
  FlatDataset db;
  ASSERT_TRUE(db.Add({1.0, 2.0, 3.0}).ok());
  const Status short_add = db.Add({4.0, 5.0});
  EXPECT_EQ(short_add.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(short_add.message().find("length 2"), std::string::npos)
      << short_add.message();
  EXPECT_NE(short_add.message().find("length 3"), std::string::npos)
      << short_add.message();
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.length(), 3u);
  EXPECT_EQ(db.Materialize(0), (Series{1.0, 2.0, 3.0}));
  ASSERT_TRUE(db.Add({7.0, 8.0, 9.0}).ok());
  EXPECT_EQ(db.Materialize(1), (Series{7.0, 8.0, 9.0}));
}

TEST(FlatDatasetTest, AddRejectsALongSeries) {
  FlatDataset db;
  ASSERT_TRUE(db.Add({1.0, 2.0}).ok());
  const Status long_add = db.Add({3.0, 4.0, 5.0, 6.0});
  EXPECT_EQ(long_add.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(long_add.message().find("length 4"), std::string::npos)
      << long_add.message();
  EXPECT_NE(long_add.message().find("length 2"), std::string::npos)
      << long_add.message();
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.length(), 2u);
  EXPECT_EQ(db.Materialize(0), (Series{1.0, 2.0}));
}

TEST(FlatDatasetTest, ViewAliasesStorage) {
  FlatDataset db;
  ASSERT_TRUE(db.Add({1.0, 2.0, 3.0}).ok());
  const SeriesView v = db.view(0);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.data(), db.data(0));
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[2], 3.0);
}

/// One copy per item: item i's n doubles start right where item i-1's end.
TEST(FlatDatasetTest, ItemsAreContiguousAtStrideN) {
  FlatDataset db;
  ASSERT_TRUE(db.Add({1.0, 2.0, 3.0}).ok());
  ASSERT_TRUE(db.Add({4.0, 5.0, 6.0}).ok());
  ASSERT_TRUE(db.Add({7.0, 8.0, 9.0}).ok());
  EXPECT_EQ(db.data(1), db.data(0) + 3);
  EXPECT_EQ(db.data(2), db.data(0) + 6);
  for (std::size_t k = 0; k < 9; ++k) {
    EXPECT_EQ(db.data(0)[k], 1.0 + static_cast<double>(k)) << "element " << k;
  }
}

TEST(FlatDatasetTest, FromItemsRoundTrips) {
  std::vector<Series> items;
  Rng rng(11);
  for (int i = 0; i < 7; ++i) {
    Series s(16);
    for (double& v : s) v = rng.Gaussian(0.0, 1.0);
    items.push_back(s);
  }
  const FlatDataset db = FlatDataset::FromItems(items);
  ASSERT_EQ(db.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(db.Materialize(i), items[i]);
  }
}

TEST(FlatDatasetTest, FromDatasetCarriesLabelsAndNames) {
  Dataset ds;
  ds.items = {{1.0, 2.0}, {3.0, 4.0}};
  ds.labels = {0, 1};
  ds.names = {"a", "b"};
  const FlatDataset db = FlatDataset::FromDataset(ds);
  ASSERT_EQ(db.labels().size(), 2u);
  EXPECT_EQ(db.label(1), 1);
  EXPECT_EQ(db.names()[0], "a");
}

TEST(FlatDatasetTest, FromItemsCheckedRejectsRagged) {
  const auto bad =
      FlatDataset::FromItemsChecked({{1.0, 2.0}, {3.0, 4.0, 5.0}});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("item 1"), std::string::npos);
}

TEST(FlatDatasetTest, FromItemsCheckedRejectsEmptyItem) {
  const auto bad = FlatDataset::FromItemsChecked({{}});
  ASSERT_FALSE(bad.ok());
}

TEST(FlatDatasetTest, FromItemsCheckedAcceptsRectangular) {
  const auto ok = FlatDataset::FromItemsChecked({{1.0, 2.0}, {3.0, 4.0}});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->size(), 2u);
}

/// The rows live in one 64-byte-aligned buffer, as growth by Add keeps it.
TEST(FlatDatasetTest, BackingStorageIsSimdAligned) {
  FlatDataset db;
  for (int i = 0; i < 11; ++i) {
    ASSERT_TRUE(db.Add({1.0 * i, 2.0 * i, 3.0 * i}).ok());
    EXPECT_TRUE(IsSimdAligned(db.data(0))) << "after add " << i;
  }
}

/// Group g's tile as CopyTile writes it, into an aligned buffer prefilled
/// with NaN so a lane CopyTile skipped cannot pass for zero.
AlignedBuffer TileOf(const FlatDataset& db, std::size_t g) {
  AlignedBuffer tile;
  tile.resize(FlatDataset::kTileLanes * db.length());
  for (std::size_t k = 0; k < tile.size(); ++k) {
    tile[k] = std::numeric_limits<double>::quiet_NaN();
  }
  db.CopyTile(g, tile.data());
  return tile;
}

/// SoA layout: element t of candidate `base + l` lands at
/// tile[t * kTileLanes + l]. Built incrementally via Add, which is the
/// path FromItems also uses.
TEST(FlatDatasetTest, TilesTransposeCandidatesIntoLanes) {
  const std::size_t n = 5;
  std::vector<Series> items;
  Rng rng(29);
  for (int i = 0; i < 19; ++i) {  // 19 = 2 full groups + a 3-lane tail
    Series s(n);
    for (double& v : s) v = rng.Gaussian(0.0, 1.0);
    items.push_back(s);
  }
  FlatDataset db;
  for (const Series& s : items) ASSERT_TRUE(db.Add(s).ok());

  ASSERT_EQ(db.tile_groups(), 3u);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::size_t g = i / FlatDataset::kTileLanes;
    const std::size_t lane = i % FlatDataset::kTileLanes;
    const AlignedBuffer tile = TileOf(db, g);
    for (std::size_t t = 0; t < n; ++t) {
      EXPECT_EQ(tile[t * FlatDataset::kTileLanes + lane], items[i][t])
          << "item " << i << " element " << t;
    }
  }
}

/// Tail lanes past `size()` are zero-filled so blocked kernels can compute
/// them unconditionally and the caller can ignore the results.
TEST(FlatDatasetTest, TileTailLanesAreZero) {
  FlatDataset db;
  ASSERT_TRUE(db.Add({1.0, 2.0}).ok());
  ASSERT_TRUE(db.Add({3.0, 4.0}).ok());
  // 3 candidates: lanes 3..7 of the only group unused
  ASSERT_TRUE(db.Add({5.0, 6.0}).ok());
  ASSERT_EQ(db.tile_groups(), 1u);
  const AlignedBuffer tile = TileOf(db, 0);
  for (std::size_t t = 0; t < db.length(); ++t) {
    for (std::size_t lane = db.size(); lane < FlatDataset::kTileLanes;
         ++lane) {
      EXPECT_EQ(tile[t * FlatDataset::kTileLanes + lane], 0.0)
          << "element " << t << " lane " << lane;
    }
  }
}

/// Tiles stay consistent as Add crosses group boundaries: the SoA copy
/// must match the per-series view after every single insertion.
TEST(FlatDatasetTest, TilesStayConsistentAcrossIncrementalAdds) {
  const std::size_t n = 3;
  FlatDataset db;
  Rng rng(31);
  for (std::size_t i = 0; i < 2 * FlatDataset::kTileLanes + 1; ++i) {
    Series s(n);
    for (double& v : s) v = rng.Gaussian(0.0, 1.0);
    ASSERT_TRUE(db.Add(s).ok());
    for (std::size_t j = 0; j <= i; ++j) {
      const std::size_t g = j / FlatDataset::kTileLanes;
      const std::size_t lane = j % FlatDataset::kTileLanes;
      const AlignedBuffer tile = TileOf(db, g);
      for (std::size_t t = 0; t < n; ++t) {
        ASSERT_EQ(tile[t * FlatDataset::kTileLanes + lane], db.data(j)[t])
            << "after add " << i << ": item " << j << " element " << t;
      }
    }
  }
}

}  // namespace
}  // namespace rotind

/// ShardedIndex: manifest-driven shard sets with online updates. Covers
/// open-time cross-checks, global-id routing across uneven shards, the
/// delta segment (inserts + tombstones) visible to queries without a
/// rebuild, compaction publishing a new generation (including crash
/// injection at the swap point — the previous generation must survive),
/// the background compactor, concurrent queries during mutation, and the
/// serial scan's page hold across shard boundaries and delta rows.

#include "src/index/sharded_index.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/flat_dataset.h"
#include "src/core/random.h"
#include "src/core/series.h"
#include "src/core/status.h"
#include "src/index/delta.h"
#include "src/index/index_io.h"
#include "src/obs/metrics.h"
#include "src/storage/manifest.h"
#include "tests/testing/legacy_ridx.h"

namespace rotind {
namespace {

/// Each test gets its own directory so shard files never collide.
class ShardedIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/rotind_sharded_test." + std::to_string(::getpid()) + "." +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::string cmd = "rm -rf " + dir_ + " && mkdir -p " + dir_;
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }
  void TearDown() override {
    std::string cmd = "rm -rf " + dir_;
    (void)std::system(cmd.c_str());
  }

  std::string dir_;
};

Series MakeRow(std::size_t id, std::size_t length) {
  Series s(length);
  for (std::size_t j = 0; j < length; ++j) {
    s[j] = 0.5 * static_cast<double>(id) +
           1.25 * static_cast<double>((id + j) % 5) - 2.0;
  }
  return s;
}

Dataset MakeRows(std::size_t begin, std::size_t end, std::size_t length) {
  Dataset ds;
  for (std::size_t i = begin; i < end; ++i) {
    ds.items.push_back(MakeRow(i, length));
    ds.labels.push_back(static_cast<int>(i % 3));
  }
  return ds;
}

IndexBuildOptions SmallBuild() {
  IndexBuildOptions build;
  build.sig_dims = 4;
  build.paa_dims = 4;
  build.page_size_bytes = 512;
  return build;
}

/// Builds `counts` contiguous shards over rows [0, sum(counts)) plus a
/// generation-1 manifest, and returns the manifest path.
std::string BuildShardSet(const std::string& dir,
                          const std::vector<std::size_t>& counts,
                          std::size_t length) {
  storage::Manifest manifest;
  manifest.generation = 1;
  std::size_t row = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    const std::string file = "shard-" + std::to_string(s) + ".ridx";
    const Dataset part = MakeRows(row, row + counts[s], length);
    EXPECT_TRUE(BuildIndexFile(part, SmallBuild(), dir + "/" + file).ok());
    manifest.shards.push_back(storage::ManifestShard{
        file, static_cast<std::uint64_t>(counts[s]),
        static_cast<std::uint64_t>(length)});
    row += counts[s];
  }
  const std::string path = dir + "/db.rman";
  EXPECT_TRUE(storage::WriteManifest(manifest, path).ok());
  return path;
}

TEST_F(ShardedIndexTest, OpensUnevenShardSetAndRoutesGlobalIds) {
  const std::string path = BuildShardSet(dir_, {5, 2, 4}, 16);
  StatusOr<std::unique_ptr<ShardedIndex>> opened = ShardedIndex::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ShardedIndex& index = **opened;
  EXPECT_EQ(index.generation(), 1u);
  EXPECT_EQ(index.shard_count(), 3u);
  EXPECT_EQ(index.shard_total(), 11u);
  EXPECT_EQ(index.live_size(), 11u);
  EXPECT_EQ(index.length(), 16u);

  // Self-queries: row g's nearest neighbor is row g at distance 0, across
  // every shard boundary (global ids 0..4 | 5..6 | 7..10).
  for (std::size_t g : {0u, 4u, 5u, 6u, 7u, 10u}) {
    StatusOr<ScanResult> hit = index.Search(MakeRow(g, 16));
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    EXPECT_EQ(hit->best_index, static_cast<int>(g)) << "global id " << g;
    EXPECT_NEAR(hit->best_distance, 0.0, 1e-12);
  }
}

TEST_F(ShardedIndexTest, OpenRejectsShardManifestMismatch) {
  const std::string path = BuildShardSet(dir_, {3, 3}, 16);
  // Lie about shard 1's count: the opened RIDX holds 3, the manifest says
  // 4 — a swapped-out shard file is a corruption, not a surprise.
  StatusOr<storage::Manifest> manifest = storage::LoadManifest(path);
  ASSERT_TRUE(manifest.ok());
  manifest->shards[1].count = 4;
  ASSERT_TRUE(storage::WriteManifest(*manifest, path).ok());
  StatusOr<std::unique_ptr<ShardedIndex>> opened = ShardedIndex::Open(path);
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruptHeader);
}

TEST_F(ShardedIndexTest, OpenRejectsMissingShardFile) {
  const std::string path = BuildShardSet(dir_, {3, 3}, 16);
  ASSERT_EQ(std::remove((dir_ + "/shard-1.ridx").c_str()), 0);
  EXPECT_FALSE(ShardedIndex::Open(path).ok());
}

TEST_F(ShardedIndexTest, DeltaInsertsAreQueryableWithoutRebuild) {
  const std::string path = BuildShardSet(dir_, {4, 4}, 16);
  StatusOr<std::unique_ptr<ShardedIndex>> opened = ShardedIndex::Open(path);
  ASSERT_TRUE(opened.ok());
  ShardedIndex& index = **opened;

  const Series fresh = MakeRow(100, 16);
  StatusOr<std::uint64_t> id = index.Insert(fresh, 1);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, 8u);  // shard_total + delta ordinal 0
  EXPECT_EQ(index.live_size(), 9u);

  StatusOr<ScanResult> hit = index.Search(fresh);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->best_index, 8);
  EXPECT_NEAR(hit->best_distance, 0.0, 1e-12);

  // Insert validation: wrong length and non-finite values are typed.
  EXPECT_EQ(index.Insert(Series(7, 0.0)).status().code(),
            StatusCode::kInvalidArgument);
  Series poisoned = MakeRow(5, 16);
  poisoned[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(index.Insert(poisoned).status().code(), StatusCode::kBadValue);
}

TEST_F(ShardedIndexTest, TombstonesHideShardAndDeltaRows) {
  const std::string path = BuildShardSet(dir_, {4, 4}, 16);
  StatusOr<std::unique_ptr<ShardedIndex>> opened = ShardedIndex::Open(path);
  ASSERT_TRUE(opened.ok());
  ShardedIndex& index = **opened;

  // Hide shard row 2: its self-query must now find someone else.
  ASSERT_TRUE(index.Remove(2).ok());
  EXPECT_EQ(index.live_size(), 7u);
  StatusOr<ScanResult> hit = index.Search(MakeRow(2, 16));
  ASSERT_TRUE(hit.ok());
  EXPECT_NE(hit->best_index, 2);

  // Hide a delta row the same way.
  StatusOr<std::uint64_t> id = index.Insert(MakeRow(200, 16));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(index.Remove(*id).ok());
  EXPECT_EQ(index.live_size(), 7u);
  StatusOr<ScanResult> gone = index.Search(MakeRow(200, 16));
  ASSERT_TRUE(gone.ok());
  EXPECT_NE(gone->best_index, static_cast<int>(*id));

  // Out-of-range delta id is typed; shard tombstoning is idempotent.
  EXPECT_EQ(index.Remove(1000).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(index.Remove(2).ok());
  EXPECT_EQ(index.live_size(), 7u);

  // With every row hidden, queries answer as an engine over no rows does:
  // no 1-NN (index -1, distance +inf), no neighbours, no range hits.
  for (std::uint64_t g = 0; g < 8; ++g) ASSERT_TRUE(index.Remove(g).ok());
  EXPECT_EQ(index.live_size(), 0u);
  StatusOr<ScanResult> none = index.Search(MakeRow(2, 16));
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none->best_index, -1);
  EXPECT_EQ(none->best_distance, std::numeric_limits<double>::infinity());
  StatusOr<std::vector<Neighbor>> knn = index.Knn(MakeRow(2, 16), 3);
  ASSERT_TRUE(knn.ok()) << knn.status().ToString();
  EXPECT_TRUE(knn->empty());
  StatusOr<std::vector<Neighbor>> range = index.Range(MakeRow(2, 16), 1e9);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_TRUE(range->empty());
}

/// A query runs one engine over the SnapshotView, whose page hold
/// follows the scan from shard to shard and past the delta rows: each
/// live shard page is pinned once (a page whose rows are all tombstoned
/// not at all), and FetchStats are those of one pin per row — fetches =
/// live shard rows, page_reads = pages touched, pool_hits = rows - pages.
TEST_F(ShardedIndexTest, SerialScanPinsEachLiveShardPageOnce) {
  // 16 doubles = 128 bytes: four rows per 512-byte page.
  const std::string path = BuildShardSet(dir_, {6, 9, 5}, 16);
  const Series query = MakeRow(11, 16);

  for (int kind = 0; kind < 3; ++kind) {
    SCOPED_TRACE("query kind " + std::to_string(kind));
    // Reopened per query, so every shard pool starts cold.
    StatusOr<std::unique_ptr<ShardedIndex>> opened = ShardedIndex::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ShardedIndex& index = **opened;
    // Rows 4 and 5 fill shard 0's second page; row 10 shares a page of
    // shard 1 with live rows.
    for (const std::uint64_t id : {4u, 5u, 10u}) {
      ASSERT_TRUE(index.Remove(id).ok());
    }
    for (std::size_t d = 0; d < 3; ++d) {
      ASSERT_TRUE(index.Insert(MakeRow(100 + d, 16)).ok());
    }

    const std::shared_ptr<const ShardedSnapshot> snap = index.Snapshot();
    std::uint64_t rows = 0;
    std::uint64_t pages = 0;
    for (std::size_t s = 0; s < snap->shards.size(); ++s) {
      const storage::IndexFile& file = snap->shards[s]->file();
      std::set<std::uint64_t> touched;
      for (const std::size_t row : snap->shard_live[s]) {
        touched.insert(file.extent(row).offset / file.page_size_bytes());
      }
      rows += snap->shard_live[s].size();
      pages += touched.size();
    }
    ASSERT_EQ(rows, 17u);
    ASSERT_EQ(pages, 6u);

    obs::QueryMetrics metrics;
    if (kind == 0) {
      StatusOr<ScanResult> hit = index.Search(query, &metrics);
      ASSERT_TRUE(hit.ok()) << hit.status().ToString();
      EXPECT_EQ(hit->best_index, 11);
    } else if (kind == 1) {
      auto knn = index.Knn(query, 3, nullptr, &metrics);
      ASSERT_TRUE(knn.ok()) << knn.status().ToString();
      EXPECT_EQ(knn->size(), 3u);
    } else {
      auto range = index.Range(query, 1e9, nullptr, &metrics);
      ASSERT_TRUE(range.ok()) << range.status().ToString();
      EXPECT_EQ(range->size(), index.live_size()) << "delta rows included";
    }

    const obs::StageStats& io = metrics.stage(obs::StageId::kDiskFetch);
    EXPECT_EQ(metrics.index.object_fetches, rows);
    EXPECT_EQ(io.pages_read, pages);
    EXPECT_EQ(io.pool_hits, rows - pages);
    storage::PoolCounters total;
    for (const auto& shard : snap->shards) {
      const storage::PoolCounters c = shard->pool().counters();
      total.hits += c.hits;
      total.misses += c.misses;
      EXPECT_EQ(shard->pool().pinned_pages(), 0u);
    }
    EXPECT_EQ(total.misses, pages);
    EXPECT_EQ(total.hits, 0u) << "each live shard page must be pinned once";
  }
}

TEST_F(ShardedIndexTest, CompactionFoldsDeltaAndRenumbers) {
  const std::string path = BuildShardSet(dir_, {4, 4}, 16);
  StatusOr<std::unique_ptr<ShardedIndex>> opened = ShardedIndex::Open(path);
  ASSERT_TRUE(opened.ok());
  ShardedIndex& index = **opened;

  ASSERT_TRUE(index.Insert(MakeRow(300, 16), 2).ok());
  ASSERT_TRUE(index.Remove(1).ok());

  StatusOr<std::uint64_t> generation = index.Compact(SmallBuild());
  ASSERT_TRUE(generation.ok()) << generation.status().ToString();
  EXPECT_EQ(*generation, 2u);
  EXPECT_EQ(index.generation(), 2u);
  EXPECT_EQ(index.shard_count(), 3u);  // old two + the delta shard
  EXPECT_EQ(index.shard_total(), 9u);  // 8 + 1 insert; tombstone retained
  EXPECT_EQ(index.live_size(), 8u);

  // The compacted delta row lives in the new shard (global id 8); the
  // delta segment itself is drained.
  StatusOr<ScanResult> hit = index.Search(MakeRow(300, 16));
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->best_index, 8);
  EXPECT_NEAR(hit->best_distance, 0.0, 1e-12);

  // The tombstoned row stays hidden across the generation bump.
  StatusOr<ScanResult> hidden = index.Search(MakeRow(1, 16));
  ASSERT_TRUE(hidden.ok());
  EXPECT_NE(hidden->best_index, 1);

  // A reader opening the published manifest fresh sees the same world.
  StatusOr<std::unique_ptr<ShardedIndex>> reopened =
      ShardedIndex::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->generation(), 2u);
  EXPECT_EQ((*reopened)->live_size(), 8u);
  StatusOr<ScanResult> rehit = (*reopened)->Search(MakeRow(300, 16));
  ASSERT_TRUE(rehit.ok());
  EXPECT_EQ(rehit->best_index, 8);
}

TEST_F(ShardedIndexTest, EmptyDeltaCompactionPublishesTrivialGeneration) {
  const std::string path = BuildShardSet(dir_, {4}, 16);
  StatusOr<std::unique_ptr<ShardedIndex>> opened = ShardedIndex::Open(path);
  ASSERT_TRUE(opened.ok());
  StatusOr<std::uint64_t> generation = (*opened)->Compact(SmallBuild());
  ASSERT_TRUE(generation.ok());
  EXPECT_EQ(*generation, 2u);
  EXPECT_EQ((*opened)->shard_count(), 1u);
  EXPECT_EQ((*opened)->live_size(), 4u);
}

/// Crash injection at the manifest swap point: the previous generation
/// must remain intact on disk AND the in-memory index must keep serving
/// it — including the staged delta, which must NOT be dropped.
TEST_F(ShardedIndexTest, CompactionCrashLeavesPreviousGenerationServing) {
  const std::string path = BuildShardSet(dir_, {4, 4}, 16);
  StatusOr<std::unique_ptr<ShardedIndex>> opened = ShardedIndex::Open(path);
  ASSERT_TRUE(opened.ok());
  ShardedIndex& index = **opened;
  ASSERT_TRUE(index.Insert(MakeRow(400, 16)).ok());

  for (const auto fault : {storage::ManifestWriteFault::kTornTempWrite,
                           storage::ManifestWriteFault::kCrashBeforeRename}) {
    StatusOr<std::uint64_t> crashed = index.Compact(SmallBuild(), fault);
    EXPECT_EQ(crashed.status().code(), StatusCode::kIoError);
    EXPECT_EQ(index.generation(), 1u);
    EXPECT_EQ(index.live_size(), 9u);  // delta row still staged
    StatusOr<ScanResult> hit = index.Search(MakeRow(400, 16));
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ(hit->best_index, 8);
    StatusOr<storage::Manifest> on_disk = storage::LoadManifest(path);
    ASSERT_TRUE(on_disk.ok());
    EXPECT_EQ(on_disk->generation, 1u);
  }

  // Recovery: the same compaction without the fault publishes cleanly.
  StatusOr<std::uint64_t> recovered = index.Compact(SmallBuild());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(index.generation(), 2u);
  EXPECT_EQ(index.live_size(), 9u);
}

/// DropCompacted must carry a post-snapshot delete of a compacted row
/// into the new generation: the row went into the new shard as LIVE, so
/// the delete becomes a shard tombstone of its new global id
/// (new_shard_base + the row's live position in the snapshot).
TEST(DeltaSegmentTest, DropCompactedTranslatesPostSnapshotTombstones) {
  DeltaSegment delta(4);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(delta.Insert(Series(4, static_cast<double>(i))).ok());
  }
  ASSERT_TRUE(delta.TombstoneDeltaRow(1).ok());  // dead IN the snapshot
  std::shared_ptr<const DeltaSnapshot> snap = delta.Snapshot();
  ASSERT_EQ(snap->live_count(), 2u);  // ordinals {0, 2}

  // Race the compaction: after the snapshot is captured, delete the row
  // at live position 1 (ordinal 2) and insert a fresh one.
  ASSERT_TRUE(delta.TombstoneDeltaRow(2).ok());
  ASSERT_TRUE(delta.Insert(Series(4, 9.0)).ok());

  delta.DropCompacted(*snap, /*new_shard_base=*/100);
  std::shared_ptr<const DeltaSnapshot> after = delta.Snapshot();
  // The post-snapshot delete followed its row into the new shard...
  EXPECT_EQ(after->shard_tombstones, (std::vector<std::uint64_t>{101}));
  // ...and the post-snapshot insert survives at shifted ordinal 0.
  ASSERT_EQ(after->live_count(), 1u);
  EXPECT_EQ(after->ordinals[0], 0u);
}

/// A delete acknowledged while a compaction sits between its delta
/// snapshot and the generation swap must survive the compaction — the
/// lost-delete window: the row was carried into the new shard as live,
/// so resurrecting it would break the Remove() contract.
TEST_F(ShardedIndexTest, DeleteDuringCompactionIsNotResurrected) {
  const std::string path = BuildShardSet(dir_, {4}, 16);
  StatusOr<std::unique_ptr<ShardedIndex>> opened = ShardedIndex::Open(path);
  ASSERT_TRUE(opened.ok());
  ShardedIndex& index = **opened;
  ASSERT_TRUE(index.Insert(MakeRow(800, 16)).ok());
  StatusOr<std::uint64_t> doomed = index.Insert(MakeRow(801, 16));
  ASSERT_TRUE(doomed.ok());

  index.set_pause_after_snapshot_for_tests(
      [&] { ASSERT_TRUE(index.Remove(*doomed).ok()); });
  StatusOr<std::uint64_t> generation = index.Compact(SmallBuild());
  ASSERT_TRUE(generation.ok()) << generation.status().ToString();
  index.set_pause_after_snapshot_for_tests({});

  // 4 shard rows + the kept insert; row 801 sits in the new shard at
  // global id 5 but stays hidden behind its translated tombstone.
  EXPECT_EQ(index.live_size(), 5u);
  StatusOr<ScanResult> hit = index.Search(MakeRow(801, 16));
  ASSERT_TRUE(hit.ok());
  EXPECT_NE(hit->best_index, 5);

  // The next compaction absorbs the translated tombstone into the
  // manifest; a fresh reader of the published generation agrees.
  ASSERT_TRUE(index.Compact(SmallBuild()).ok());
  EXPECT_EQ(index.live_size(), 5u);
  StatusOr<std::unique_ptr<ShardedIndex>> reopened =
      ShardedIndex::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->live_size(), 5u);
  StatusOr<ScanResult> rehit = (*reopened)->Search(MakeRow(801, 16));
  ASSERT_TRUE(rehit.ok());
  EXPECT_NE(rehit->best_index, 5);
}

TEST_F(ShardedIndexTest, BackgroundCompactorCoalescesTriggers) {
  const std::string path = BuildShardSet(dir_, {4}, 16);
  StatusOr<std::unique_ptr<ShardedIndex>> opened = ShardedIndex::Open(path);
  ASSERT_TRUE(opened.ok());
  ShardedIndex& index = **opened;
  {
    BackgroundCompactor compactor(index, SmallBuild());
    ASSERT_TRUE(index.Insert(MakeRow(500, 16)).ok());
    compactor.Trigger();
    compactor.WaitIdle();
    EXPECT_TRUE(compactor.last_status().ok())
        << compactor.last_status().ToString();
    EXPECT_GE(compactor.passes(), 1u);
  }
  EXPECT_GE(index.generation(), 2u);
  StatusOr<ScanResult> hit = index.Search(MakeRow(500, 16));
  ASSERT_TRUE(hit.ok());
  EXPECT_NEAR(hit->best_distance, 0.0, 1e-12);
}

/// Queries keep answering (on their snapshot) while inserts and a
/// background compaction churn the index. Thread-sanitizer builds make
/// this a data-race probe; everywhere it is a correctness soak.
TEST_F(ShardedIndexTest, ConcurrentQueriesSurviveMutationAndCompaction) {
  const std::string path = BuildShardSet(dir_, {6, 5}, 16);
  StatusOr<std::unique_ptr<ShardedIndex>> opened = ShardedIndex::Open(path);
  ASSERT_TRUE(opened.ok());
  ShardedIndex& index = **opened;

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread reader([&] {
    while (!stop.load()) {
      StatusOr<ScanResult> hit = index.Search(MakeRow(3, 16));
      if (!hit.ok() || hit->best_index < 0) failures.fetch_add(1);
      StatusOr<std::vector<Neighbor>> knn = index.Knn(MakeRow(7, 16), 3);
      if (!knn.ok() || knn->size() != 3) failures.fetch_add(1);
      // Duplicate-visibility probe: a snapshot that ever saw compacted
      // rows both in the new shard and in the un-retired delta would
      // inflate the live count past 11 initial + 20 inserted rows.
      const std::size_t live = index.live_size();
      if (live < 11 || live > 31) failures.fetch_add(1);
    }
  });
  {
    BackgroundCompactor compactor(index, SmallBuild());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(index.Insert(MakeRow(600 + i, 16)).ok());
      if (i % 5 == 4) compactor.Trigger();
    }
    compactor.WaitIdle();
    EXPECT_TRUE(compactor.last_status().ok());
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(index.live_size(), 31u);
}

TEST_F(ShardedIndexTest, SnapshotEngineOutlivesCompaction) {
  const std::string path = BuildShardSet(dir_, {4, 3}, 16);
  StatusOr<std::unique_ptr<ShardedIndex>> opened = ShardedIndex::Open(path);
  ASSERT_TRUE(opened.ok());
  ShardedIndex& index = **opened;

  std::shared_ptr<const QueryEngine> engine = index.SnapshotEngine();
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->database_size(), 7u);

  ASSERT_TRUE(index.Insert(MakeRow(700, 16)).ok());
  ASSERT_TRUE(index.Compact(SmallBuild()).ok());

  // The pinned engine still answers over the OLD world (7 rows), even
  // though the index has moved on — exactly the reload-drain guarantee
  // the serve layer builds on.
  EXPECT_EQ(engine->database_size(), 7u);
  StatusOr<ScanResult> hit = engine->SearchChecked(MakeRow(2, 16));
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit->best_index, 2);

  std::shared_ptr<const QueryEngine> fresh = index.SnapshotEngine();
  EXPECT_EQ(fresh->database_size(), 8u);
}

/// A shard set may mix container versions: a manifest naming a v2 shard
/// written by an older writer (FNV-1a checksums) and a v3 shard opens, and
/// its answers equal a monolithic engine's over the same rows, with every
/// page of both shards read and verified.
TEST_F(ShardedIndexTest, MixedVersionShardSetMatchesMonolithic) {
  const Dataset old_rows = testing::LegacyRidxRows();  // 4 rows of length 8
  const std::size_t length = old_rows.length();
  {
    std::ofstream out(dir_ + "/shard-0.ridx", std::ios::binary);
    out << testing::LegacyRidxV2Image();
    ASSERT_TRUE(out.good());
  }
  const Dataset new_rows = MakeRows(4, 11, length);
  IndexBuildOptions build;  // the v2 image's options, less its RI section
  build.sig_dims = 4;
  build.paa_dims = 4;
  build.page_size_bytes = 64;
  ASSERT_TRUE(BuildIndexFile(new_rows, build, dir_ + "/shard-1.ridx").ok());
  storage::Manifest manifest;
  manifest.generation = 1;
  manifest.shards = {{"shard-0.ridx", old_rows.size(), length},
                     {"shard-1.ridx", new_rows.size(), length}};
  const std::string path = dir_ + "/db.rman";
  ASSERT_TRUE(storage::WriteManifest(manifest, path).ok());

  std::vector<Series> all = old_rows.items;
  all.insert(all.end(), new_rows.items.begin(), new_rows.items.end());
  const FlatDataset flat = FlatDataset::FromItems(all);
  Rng rng(1717);
  std::vector<Series> queries;
  for (int q = 0; q < 4; ++q) {
    Series query(length);
    for (double& v : query) v = rng.Uniform(-2.0, 2.0);
    queries.push_back(std::move(query));
  }

  ShardedOptions options;
  options.pool_pages = 2;
  StatusOr<std::unique_ptr<ShardedIndex>> opened =
      ShardedIndex::Open(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const ShardedIndex& index = **opened;
  const QueryEngine reference(flat, options.engine);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    const ScanResult want = reference.Search(queries[q]);
    StatusOr<ScanResult> got = index.Search(queries[q]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->best_index, want.best_index);
    EXPECT_EQ(got->best_distance, want.best_distance);

    // k = every row: each page of both shards is read and verified.
    const std::vector<Neighbor> want_knn =
        reference.Knn(queries[q], static_cast<int>(all.size()));
    StatusOr<std::vector<Neighbor>> knn =
        index.Knn(queries[q], static_cast<int>(all.size()));
    ASSERT_TRUE(knn.ok()) << knn.status().ToString();
    ASSERT_EQ(knn->size(), want_knn.size());
    for (std::size_t r = 0; r < knn->size(); ++r) {
      EXPECT_EQ((*knn)[r].index, want_knn[r].index) << "rank " << r;
      EXPECT_EQ((*knn)[r].distance, want_knn[r].distance) << "rank " << r;
    }
  }
}

}  // namespace
}  // namespace rotind

/// The paper's disk index (Section 4.2 / Table 7) as a QueryEngine cascade
/// stage, {kSignatureIndex, kWedge}: exact against brute force under ED
/// and DTW, Figure 24's shape, Open's validation, the visit pinned by its
/// fetch counts, and corrupt data pages surfaced as typed errors. Plus the
/// simulated disk's own page accounting.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/core/flat_dataset.h"
#include "src/core/random.h"
#include "src/datasets/synthetic.h"
#include "src/distance/rotation.h"
#include "src/index/index_io.h"
#include "src/obs/metrics.h"
#include "src/search/engine.h"
#include "src/storage/simulated_disk.h"

namespace rotind {
namespace {

TEST(SimulatedDiskTest, CountsFetchesAndPages) {
  storage::SimulatedDisk disk(/*page_size_bytes=*/64);  // 8 doubles per page
  const int a = disk.Store(Series(8, 1.0));    // 1 page
  const int b = disk.Store(Series(20, 2.0));   // 3 pages (160 bytes)
  EXPECT_EQ(disk.num_objects(), 2u);

  disk.Fetch(a);
  EXPECT_EQ(disk.object_fetches(), 1u);
  EXPECT_EQ(disk.page_reads(), 1u);
  disk.Fetch(b);
  EXPECT_EQ(disk.object_fetches(), 2u);
  EXPECT_EQ(disk.page_reads(), 4u);
  EXPECT_DOUBLE_EQ(disk.FetchFraction(), 1.0);

  disk.ResetCounters();
  EXPECT_EQ(disk.object_fetches(), 0u);
  EXPECT_DOUBLE_EQ(disk.FetchFraction(), 0.0);
}

// Regression: PagesSpanned used to be computed from the series size alone
// (ceil(bytes / page_size)), ignoring where the object starts. A series
// whose byte range straddles a page boundary reads one page more than its
// size implies, exactly as a real paged store would.
TEST(SimulatedDiskTest, PagesSpannedIsOffsetAware) {
  storage::SimulatedDisk disk(/*page_size_bytes=*/4096);
  // 300 doubles = 2400 bytes. Object 0 occupies [0, 2400): page 0 only.
  // Object 1 occupies [2400, 4800): straddles pages 0 and 1 — two pages,
  // where the size-alone formula says ceil(2400/4096) = 1.
  const int first = disk.Store(Series(300, 1.0));
  const int second = disk.Store(Series(300, 2.0));
  EXPECT_EQ(disk.PagesSpanned(first), 1u);
  EXPECT_EQ(disk.PagesSpanned(second), 2u);

  disk.Fetch(second);
  EXPECT_EQ(disk.page_reads(), 2u);
  EXPECT_EQ(disk.object_fetches(), 1u);
}

TEST(SimulatedDiskTest, PeekDoesNotCount) {
  storage::SimulatedDisk disk;
  disk.Store(Series(4, 1.0));
  EXPECT_EQ(disk.Peek(0).size(), 4u);
  EXPECT_EQ(disk.object_fetches(), 0u);
}

// Regression: invalid ids used to be straight UB in release builds (the
// bounds assert compiles out). They must now be rejected (TryFetch/TryPeek)
// or degrade to a shared empty series (Fetch/Peek), with nothing counted.
TEST(SimulatedDiskTest, InvalidIdsAreRejectedNotUndefined) {
  storage::SimulatedDisk disk;
  disk.Store(Series(4, 1.0));
  EXPECT_TRUE(disk.Contains(0));
  EXPECT_FALSE(disk.Contains(-1));
  EXPECT_FALSE(disk.Contains(1));

  EXPECT_EQ(disk.TryFetch(-1).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(disk.TryFetch(1).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(disk.TryPeek(99).status().code(), StatusCode::kOutOfRange);

  EXPECT_TRUE(disk.Fetch(-1).empty());
  EXPECT_TRUE(disk.Peek(1).empty());
  EXPECT_EQ(disk.object_fetches(), 0u);
  EXPECT_EQ(disk.page_reads(), 0u);

  EXPECT_EQ(disk.Fetch(0).size(), 4u);
  EXPECT_EQ(disk.object_fetches(), 1u);
}

/// The paper's index: the signature visit in front of the wedge terminal.
EngineOptions IndexOptions(DistanceKind kind, std::size_t dims,
                           int band = 5) {
  EngineOptions options;
  options.kind = kind;
  options.band = band;
  options.index_dims = dims;
  options.cascade.stages = {StageKind::kSignatureIndex, StageKind::kWedge};
  return options;
}

/// An index engine over `flat` on the paper's simulated disk (4096-byte
/// pages), so every query reports what it fetched.
std::unique_ptr<QueryEngine> SimulatedIndex(const FlatDataset& flat,
                                            EngineOptions options) {
  options.storage.backend = storage::BackendKind::kSimulated;
  StatusOr<std::unique_ptr<QueryEngine>> opened =
      QueryEngine::Open(options, &flat);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return opened.ok() ? *std::move(opened) : nullptr;
}

Series NoisyRotation(const std::vector<Series>& db, Rng* rng, double sigma) {
  const Series& base = db[rng->NextBounded(db.size())];
  Series q = RotateLeft(base, static_cast<long>(rng->NextBounded(base.size())));
  for (double& v : q) v += rng->Gaussian(0.0, sigma);
  ZNormalize(&q);
  return q;
}

double FetchFraction(const obs::QueryMetrics& metrics, std::size_t size) {
  return static_cast<double>(metrics.index.object_fetches) /
         static_cast<double>(size);
}

class IndexExactnessTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IndexExactnessTest, EuclideanIndexMatchesBruteForce) {
  const std::size_t dims = GetParam();
  const std::size_t n = 64;
  const std::vector<Series> db = MakeProjectilePointsDatabase(80, n, 123);
  const FlatDataset flat = FlatDataset::FromItems(db);
  const auto index =
      SimulatedIndex(flat, IndexOptions(DistanceKind::kEuclidean, dims));
  ASSERT_NE(index, nullptr);

  Rng rng(dims);
  for (int trial = 0; trial < 5; ++trial) {
    const Series q = NoisyRotation(db, &rng, 0.05);
    obs::QueryMetrics metrics;
    const ScanResult r = index->Search(q, &metrics);

    double best = std::numeric_limits<double>::infinity();
    int expected = -1;
    for (std::size_t i = 0; i < db.size(); ++i) {
      const double d = RotationInvariantEuclidean(q, db[i]);
      if (d < best) {
        best = d;
        expected = static_cast<int>(i);
      }
    }
    EXPECT_EQ(r.best_index, expected) << "dims=" << dims;
    EXPECT_NEAR(r.best_distance, best, 1e-9);
    EXPECT_LE(FetchFraction(metrics, db.size()), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, IndexExactnessTest,
                         ::testing::Values(4, 8, 16, 32));

TEST(IndexExactnessTest, DtwIndexMatchesBruteForce) {
  const std::size_t n = 48;
  const int band = 3;
  const std::vector<Series> db = MakeProjectilePointsDatabase(50, n, 321);
  const FlatDataset flat = FlatDataset::FromItems(db);
  const auto index =
      SimulatedIndex(flat, IndexOptions(DistanceKind::kDtw, 8, band));
  ASSERT_NE(index, nullptr);

  Rng rng(55);
  for (int trial = 0; trial < 4; ++trial) {
    const Series q = NoisyRotation(db, &rng, 0.05);
    const ScanResult r = index->Search(q);

    double best = std::numeric_limits<double>::infinity();
    int expected = -1;
    for (std::size_t i = 0; i < db.size(); ++i) {
      const double d = RotationInvariantDtw(q, db[i], band);
      if (d < best) {
        best = d;
        expected = static_cast<int>(i);
      }
    }
    EXPECT_EQ(r.best_index, expected);
    EXPECT_NEAR(r.best_distance, best, 1e-9);
  }
}

TEST(IndexTest, HigherDimsFetchLess) {
  // Figure 24's qualitative shape: fraction retrieved decreases with D.
  const std::size_t n = 64;
  const std::vector<Series> db = MakeProjectilePointsDatabase(300, n, 9);
  const FlatDataset flat = FlatDataset::FromItems(db);
  Rng rng(10);
  Series q = RotateLeft(db[17], 23);
  for (double& v : q) v += rng.Gaussian(0.0, 0.03);
  ZNormalize(&q);

  double prev_fraction = 1.1;
  int non_improvements = 0;
  for (std::size_t dims : {4u, 16u, 32u}) {
    const auto index =
        SimulatedIndex(flat, IndexOptions(DistanceKind::kEuclidean, dims));
    ASSERT_NE(index, nullptr);
    obs::QueryMetrics metrics;
    EXPECT_EQ(index->Search(q, &metrics).best_index, 17);
    const double fraction = FetchFraction(metrics, db.size());
    if (fraction > prev_fraction + 1e-12) ++non_improvements;
    prev_fraction = fraction;
  }
  // Allow one non-monotonic step (vantage-point luck), but the trend must
  // hold.
  EXPECT_LE(non_improvements, 1);
}

TEST(IndexTest, MirrorOptionSupported) {
  const std::size_t n = 40;
  const std::vector<Series> db = MakeProjectilePointsDatabase(30, n, 77);
  const FlatDataset flat = FlatDataset::FromItems(db);
  Series q = Reversed(RotateLeft(db[11], 5));
  ZNormalize(&q);

  EngineOptions options = IndexOptions(DistanceKind::kEuclidean, 8);
  options.rotation.mirror = true;
  const auto index = SimulatedIndex(flat, options);
  ASSERT_NE(index, nullptr);
  const ScanResult r = index->Search(q);
  EXPECT_EQ(r.best_index, 11);
  EXPECT_NEAR(r.best_distance, 0.0, 1e-9);
}

TEST(IndexTest, RepeatedQueriesResetCounters) {
  const std::vector<Series> db = MakeProjectilePointsDatabase(40, 32, 5);
  const FlatDataset flat = FlatDataset::FromItems(db);
  const auto index =
      SimulatedIndex(flat, IndexOptions(DistanceKind::kEuclidean, 8));
  ASSERT_NE(index, nullptr);
  obs::QueryMetrics first;
  obs::QueryMetrics second;
  const ScanResult r1 = index->Search(db[0], &first);
  const ScanResult r2 = index->Search(db[0], &second);
  // Accounting is per query: the second run reports only its own work.
  EXPECT_EQ(first.index.object_fetches, second.index.object_fetches);
  EXPECT_EQ(r1.counter.total_steps(), r2.counter.total_steps());
}

/// QueryEngine::Open rejects what the signature kernels would clamp or
/// mis-index on; ragged input never reaches it (FromItemsChecked).
TEST(IndexCreateTest, RejectsEmptyRaggedAndDegenerateDatabases) {
  const EngineOptions options = IndexOptions(DistanceKind::kEuclidean, 8);

  const FlatDataset empty;
  const auto none = QueryEngine::Open(options, &empty);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kInvalidArgument);

  std::vector<Series> ragged = MakeProjectilePointsDatabase(10, 32, 6);
  ragged[4].resize(20);
  const auto bad = FlatDataset::FromItemsChecked(ragged);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("length"), std::string::npos);

  const FlatDataset tiny = FlatDataset::FromItems({Series{1.0}, Series{2.0}});
  const auto short_objects = QueryEngine::Open(options, &tiny);
  ASSERT_FALSE(short_objects.ok());
  EXPECT_EQ(short_objects.status().code(), StatusCode::kInvalidArgument);
}

TEST(IndexCreateTest, RejectsDimsBeyondTheSpectralCoefficients) {
  const FlatDataset flat =
      FlatDataset::FromItems(MakeProjectilePointsDatabase(10, 32, 7));
  // > n/2 = 16: the spectral kernel would silently clamp.
  const auto clamped =
      QueryEngine::Open(IndexOptions(DistanceKind::kEuclidean, 17), &flat);
  ASSERT_FALSE(clamped.ok());
  EXPECT_EQ(clamped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(clamped.status().message().find("spectral coefficients"),
            std::string::npos);

  EXPECT_FALSE(
      QueryEngine::Open(IndexOptions(DistanceKind::kEuclidean, 0), &flat)
          .ok());
  // PAA segments cannot outnumber the samples.
  EXPECT_FALSE(
      QueryEngine::Open(IndexOptions(DistanceKind::kDtw, 33), &flat).ok());
  EXPECT_TRUE(
      QueryEngine::Open(IndexOptions(DistanceKind::kDtw, 32), &flat).ok());
}

std::string TempPath(const char* tag) {
  return "/tmp/rotind_index_test." + std::to_string(::getpid()) + "." + tag +
         ".ridx";
}

/// A file index answers only the measure whose signature section it holds;
/// the file's dims win over EngineOptions::index_dims.
TEST(IndexCreateTest, FileWithoutTheMeasuresSectionIsRejected) {
  Dataset ds;
  ds.items = MakeProjectilePointsDatabase(20, 32, 8);
  const std::string path = TempPath("sections");
  IndexBuildOptions build;
  build.sig_dims = 0;
  build.paa_dims = 4;
  ASSERT_TRUE(BuildIndexFile(ds, build, path).ok());

  EngineOptions options = IndexOptions(DistanceKind::kEuclidean, 8);
  options.storage.backend = storage::BackendKind::kFile;
  options.storage.index_path = path;
  const auto euclidean = QueryEngine::Open(options);
  ASSERT_FALSE(euclidean.ok());
  EXPECT_EQ(euclidean.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(euclidean.status().message().find("FFT signatures"),
            std::string::npos);

  options.kind = DistanceKind::kDtw;
  options.index_dims = 0;  // ignored: the file's 4 PAA dims win
  const auto dtw = QueryEngine::Open(options);
  ASSERT_TRUE(dtw.ok()) << dtw.status().ToString();
  EXPECT_EQ((*dtw)->Search(ds.items[3]).best_index, 3);
  std::remove(path.c_str());
}

TEST(IndexCreateTest, ValidInputMatchesTheUncheckedConstructor) {
  const FlatDataset flat =
      FlatDataset::FromItems(MakeProjectilePointsDatabase(30, 32, 8));
  const EngineOptions options = IndexOptions(DistanceKind::kEuclidean, 8);
  const auto created = QueryEngine::Open(options, &flat);
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  const QueryEngine direct(flat, options);
  const Series query(flat.data(3), flat.data(3) + flat.length());
  const ScanResult want = direct.Search(query);
  const ScanResult got = (*created)->Search(query);
  EXPECT_EQ(got.best_index, want.best_index);
  EXPECT_EQ(got.best_distance, want.best_distance);
  EXPECT_EQ(got.counter.total_steps(), want.counter.total_steps());
}

/// Pins the visit Figure 24 reports: object fetches, simulated page reads
/// and signature evaluations of the index over Projectile Points
/// (600 x 251, 4096-byte pages, D = 16, band 5), as the standalone index
/// measured them before it ran inside the engine. Fetches pin the visit
/// order and stop rules; the VP-tree's metric evaluations also pin its
/// subtree pruning, which never changes what is fetched. A change to the
/// visit fails here first.
TEST(IndexVisitTest, FetchesMatchTheReferenceVisit) {
  const std::vector<Series> db = MakeProjectilePointsDatabase(600, 251, 7);
  const FlatDataset flat = FlatDataset::FromItems(db);
  Rng rng(99);
  std::vector<Series> queries;
  for (int i = 0; i < 3; ++i) {
    const std::size_t row = rng.NextBounded(600);
    const long shift = static_cast<long>(rng.NextBounded(251));
    Series q = RotateLeft(db[row], shift);
    for (double& v : q) v += rng.Gaussian(0.0, 0.05);
    ZNormalize(&q);
    queries.push_back(std::move(q));
  }

  struct Reference {
    DistanceKind kind;
    int k;
    std::uint64_t fetches[3];
    std::uint64_t pages[3];
    std::uint64_t signature_evals[3];
  };
  // DTW evaluates LB_PAA for 600 objects x 64 wedges on every query.
  const Reference references[] = {
      {DistanceKind::kEuclidean, 1, {7, 24, 45}, {11, 39, 69},
       {387, 213, 444}},
      {DistanceKind::kEuclidean, 3, {527, 392, 474}, {782, 589, 704},
       {600, 581, 600}},
      {DistanceKind::kDtw, 1, {149, 145, 223}, {218, 213, 327},
       {38400, 38400, 38400}},
      {DistanceKind::kDtw, 3, {315, 303, 379}, {465, 447, 563},
       {38400, 38400, 38400}},
  };
  const int nearest[3] = {508, 127, 45};
  for (const Reference& ref : references) {
    const auto index = SimulatedIndex(flat, IndexOptions(ref.kind, 16, 5));
    ASSERT_NE(index, nullptr);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::string label = std::string(DistanceKindName(ref.kind)) +
                                " k=" + std::to_string(ref.k) + " query " +
                                std::to_string(q + 1);
      obs::QueryMetrics metrics;
      if (ref.k == 1) {
        EXPECT_EQ(index->Search(queries[q], &metrics).best_index, nearest[q])
            << label;
      } else {
        EXPECT_EQ(index->Knn(queries[q], ref.k, nullptr, &metrics).size(),
                  static_cast<std::size_t>(ref.k))
            << label;
      }
      EXPECT_EQ(metrics.index.object_fetches, ref.fetches[q]) << label;
      EXPECT_EQ(metrics.index.page_reads, ref.pages[q]) << label;
      EXPECT_EQ(metrics.index.signature_evals, ref.signature_evals[q])
          << label;
    }
  }
}

/// Regression: the standalone index refined a fetched candidate without
/// checking the handle, so a corrupt data page crashed `rotind index
/// search`. Through the engine, the Checked entry points report the
/// page's kCorruptHeader and the unchecked ones skip the unreadable
/// candidates.
class IndexStorageErrorTest : public ::testing::TestWithParam<DistanceKind> {};

TEST_P(IndexStorageErrorTest, CorruptDataPageIsATypedError) {
  const DistanceKind kind = GetParam();
  const std::size_t n = 64;
  const std::size_t row = 123;
  Dataset ds;
  ds.items = MakeProjectilePointsDatabase(300, n, 41);
  const std::string path = TempPath(DistanceKindName(kind));
  ASSERT_TRUE(BuildIndexFile(ds, IndexBuildOptions(), path).ok());

  // 64 doubles = 512 bytes: 8 objects per 4096-byte page, packed from the
  // start of the data section, which fills the file's last pages.
  const std::size_t page_size = IndexBuildOptions().page_size_bytes;
  const std::size_t per_page = page_size / (n * sizeof(double));
  const std::size_t data_pages = (ds.size() + per_page - 1) / per_page;
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(0, std::ios::end);
    const std::streamoff data_start =
        static_cast<std::streamoff>(file.tellg()) -
        static_cast<std::streamoff>(data_pages * page_size);
    const std::streamoff at =
        data_start + static_cast<std::streamoff>(row * n * sizeof(double));
    char byte = 0;
    file.seekg(at);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    file.seekp(at);
    file.write(&byte, 1);
    ASSERT_TRUE(file.good());
  }

  EngineOptions options = IndexOptions(kind, 16);
  options.storage.backend = storage::BackendKind::kFile;
  options.storage.index_path = path;
  const auto opened = QueryEngine::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const QueryEngine& index = **opened;
  // The exact answer (distance 0) lives on the corrupt page, so the 1-NN
  // visit must fetch it.
  const Series query = RotateLeft(ds.items[row], 9);

  const auto nn = index.SearchChecked(query);
  ASSERT_FALSE(nn.ok());
  EXPECT_EQ(nn.status().code(), StatusCode::kCorruptHeader);
  index.backend()->ClearError();
  const auto knn = index.KnnChecked(query, 3);
  ASSERT_FALSE(knn.ok());
  EXPECT_EQ(knn.status().code(), StatusCode::kCorruptHeader);
  index.backend()->ClearError();

  const ScanResult skipped = index.Search(query);
  ASSERT_GE(skipped.best_index, 0);
  EXPECT_NE(static_cast<std::size_t>(skipped.best_index) / per_page,
            row / per_page);
  EXPECT_FALSE(index.backend()->error().ok());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Kinds, IndexStorageErrorTest,
                         ::testing::Values(DistanceKind::kEuclidean,
                                           DistanceKind::kDtw),
                         [](const ::testing::TestParamInfo<DistanceKind>& i) {
                           return std::string(DistanceKindName(i.param));
                         });

}  // namespace
}  // namespace rotind

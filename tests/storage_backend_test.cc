/// StorageBackend contract tests: the three backends serve bit-identical
/// bytes for the same database, SimulatedBackend reproduces SimulatedDisk's
/// paper-parity page accounting exactly, OpenBackend wires EngineOptions
/// to the right implementation, a file engine's scan pins each data page
/// once through its PageHold with unchanged FetchStats, and a FileBackend's
/// BufferPool survives 8-way batches with bit-identical results while each
/// query pins at most one frame (the TSan targets).

#include "src/storage/backend.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/core/flat_dataset.h"
#include "src/core/series.h"
#include "src/core/status.h"
#include "src/datasets/synthetic.h"
#include "src/index/index_io.h"
#include "src/obs/metrics.h"
#include "src/search/engine.h"

namespace rotind::storage {
namespace {

std::string TempPath(const char* tag) {
  return "/tmp/rotind_backend_test." + std::to_string(::getpid()) + "." +
         tag + ".ridx";
}

/// An index file over `items`, small pages so extents straddle pages.
std::string WriteIndex(const std::vector<Series>& items, const char* tag,
                       std::size_t page_size = 256) {
  Dataset ds;
  ds.items = items;
  IndexBuildOptions build;
  build.sig_dims = 4;
  build.paa_dims = 4;
  build.page_size_bytes = page_size;
  const std::string path = TempPath(tag);
  const Status s = BuildIndexFile(ds, build, path);
  EXPECT_TRUE(s.ok()) << s.message();
  return path;
}

TEST(StorageBackendTest, AllBackendsServeBitIdenticalBytes) {
  const std::vector<Series> items =
      MakeProjectilePointsDatabase(12, 40, 811);
  const FlatDataset flat = FlatDataset::FromItems(items);
  const std::string path = WriteIndex(items, "bytes");

  const InMemoryBackend memory(flat);
  const SimulatedBackend simulated(flat, 256);
  auto file = FileBackend::Open(path, 3, EvictionPolicy::kLru);
  ASSERT_TRUE(file.ok()) << file.status().message();

  const StorageBackend* backends[] = {&memory, &simulated, file->get()};
  for (const StorageBackend* b : backends) {
    ASSERT_EQ(b->size(), items.size()) << b->name();
    ASSERT_EQ(b->length(), 40u) << b->name();
    for (std::size_t i = 0; i < items.size(); ++i) {
      FetchStats io;
      const SeriesHandle h = b->Fetch(i, &io, nullptr);
      ASSERT_TRUE(h.valid()) << b->name() << " object " << i;
      ASSERT_EQ(h.length(), items[i].size());
      EXPECT_EQ(std::memcmp(h.data(), items[i].data(),
                            items[i].size() * sizeof(double)),
                0)
          << b->name() << " object " << i;
      EXPECT_EQ(io.object_fetches, 1u);
    }
    EXPECT_TRUE(b->error().ok()) << b->name();
  }
  std::remove(path.c_str());
}

/// SimulatedBackend is an adapter, not a reimplementation: its per-fetch
/// accounting must equal SimulatedDisk's own counters on the same fetch
/// trace — including the offset-aware page spans for straddling series.
TEST(StorageBackendTest, SimulatedBackendMatchesSimulatedDiskAccounting) {
  // 300 doubles = 2400 bytes: objects tile 4096-byte pages unevenly, so
  // some fetches span one page and others two.
  const std::vector<Series> items = MakeHeterogeneousDatabase(9, 300, 77);
  const SimulatedBackend backend(FlatDataset::FromItems(items), 4096);

  SimulatedDisk disk(4096);
  disk.StoreAll(items);

  const std::size_t trace[] = {0, 3, 1, 3, 8, 2, 7};
  FetchStats total;
  for (const std::size_t i : trace) {
    FetchStats io;
    (void)backend.Fetch(i, &io, nullptr);
    const std::uint64_t pages = disk.PagesSpanned(static_cast<int>(i));
    EXPECT_EQ(io.page_reads, pages) << "object " << i;
    EXPECT_EQ(io.bytes_read, pages * 4096u) << "object " << i;
    total += io;
    (void)disk.Fetch(static_cast<int>(i));
  }
  EXPECT_EQ(total.object_fetches, disk.object_fetches());
  EXPECT_EQ(total.page_reads, disk.page_reads());
  EXPECT_EQ(backend.disk().num_objects(), disk.num_objects());
}

TEST(StorageBackendTest, TryFetchIsBoundsCheckedEverywhere) {
  const std::vector<Series> items = MakeProjectilePointsDatabase(4, 24, 5);
  const FlatDataset flat = FlatDataset::FromItems(items);
  const std::string path = WriteIndex(items, "bounds", 64);

  const InMemoryBackend memory(flat);
  const SimulatedBackend simulated(flat, 64);
  auto file = FileBackend::Open(path, 2, EvictionPolicy::kLru);
  ASSERT_TRUE(file.ok());
  const StorageBackend* backends[] = {&memory, &simulated, file->get()};
  for (const StorageBackend* b : backends) {
    FetchStats io;
    const auto out = b->TryFetch(4, &io);
    ASSERT_FALSE(out.ok()) << b->name();
    EXPECT_EQ(out.status().code(), StatusCode::kOutOfRange) << b->name();
    EXPECT_TRUE(b->error().ok()) << b->name()
                                 << ": TryFetch must not latch";
  }
  std::remove(path.c_str());
}

TEST(StorageBackendTest, OpenBackendSelectsAndValidates) {
  const std::vector<Series> items = MakeProjectilePointsDatabase(5, 24, 6);
  const FlatDataset flat = FlatDataset::FromItems(items);

  StorageOptions in_memory;
  auto memory = OpenBackend(in_memory, &flat);
  ASSERT_TRUE(memory.ok());
  EXPECT_EQ((*memory)->backend_kind(), BackendKind::kInMemory);

  StorageOptions simulated;
  simulated.backend = BackendKind::kSimulated;
  simulated.page_size_bytes = 128;
  auto sim = OpenBackend(simulated, &flat);
  ASSERT_TRUE(sim.ok());
  EXPECT_EQ((*sim)->backend_kind(), BackendKind::kSimulated);

  // A source-less in-memory request cannot be satisfied.
  EXPECT_FALSE(OpenBackend(in_memory, nullptr).ok());

  StorageOptions missing;
  missing.backend = BackendKind::kFile;
  missing.index_path = "/nonexistent/rotind.ridx";
  const auto file = OpenBackend(missing, nullptr);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kNotFound);
}

/// Opens a file engine over the index at `path` with a `pool_pages` pool.
std::unique_ptr<QueryEngine> OpenFileEngine(const std::string& path,
                                            std::size_t pool_pages) {
  EngineOptions options;
  options.storage.backend = BackendKind::kFile;
  options.storage.index_path = path;
  options.storage.pool_pages = pool_pages;
  auto engine = QueryEngine::Open(options);
  EXPECT_TRUE(engine.ok()) << engine.status().message();
  return engine.ok() ? *std::move(engine) : nullptr;
}

/// What an id-order scan over every row of `file` must report: the
/// FetchStats of one pin per page a row touches (as when every fetch
/// pinned its own pages), and the pins the pool sees when a row inside
/// the held page costs none.
struct ScanExpectation {
  std::uint64_t fetches = 0;
  std::uint64_t page_reads = 0;  ///< Distinct pages touched.
  std::uint64_t pool_hits = 0;   ///< Page touches beyond the first.
  std::uint64_t pins = 0;        ///< PoolCounters hits + misses.
  std::uint64_t in_place = 0;    ///< Rows inside one page.
  std::uint64_t straddling = 0;  ///< Rows spanning two pages.
};

ScanExpectation ExpectIdOrderScan(const IndexFile& file) {
  ScanExpectation e;
  const std::uint64_t page_size = file.page_size_bytes();
  std::set<std::uint64_t> pages;
  std::uint64_t touches = 0;
  bool holding = false;
  std::uint64_t held = 0;
  for (std::size_t i = 0; i < file.num_objects(); ++i) {
    const IndexFile::Extent x = file.extent(i);
    const std::uint64_t first = x.offset / page_size;
    const std::uint64_t last = (x.offset + x.bytes - 1) / page_size;
    for (std::uint64_t p = first; p <= last; ++p) pages.insert(p);
    touches += last - first + 1;
    if (first == last) {
      ++e.in_place;
      if (!holding || held != first) ++e.pins;
      holding = true;
      held = first;
    } else {
      ++e.straddling;
      e.pins += last - first + 1;
      holding = false;
    }
  }
  e.fetches = file.num_objects();
  e.page_reads = pages.size();
  e.pool_hits = touches - pages.size();
  return e;
}

/// A single-threaded id-order 1-NN, k-NN and range query over a cold file
/// engine pins each data page once while its rows are read in place, and
/// reports the same FetchStats as one pin per row: fetches = rows,
/// page_reads = pages, pool_hits = page touches - pages. Two layouts: four
/// rows per 4 KiB page (every row in place), and 800-byte rows that
/// straddle pages, so the borrowed and the copied path run in one scan.
TEST(StorageBackendTest, IdOrderScanPinsEachPageOnceWithUnchangedFetchStats) {
  const struct {
    std::size_t length;
    const char* tag;
  } layouts[] = {{128, "hold4"}, {100, "hold_straddle"}};
  for (const auto& layout : layouts) {
    const std::vector<Series> items =
        MakeProjectilePointsDatabase(24, layout.length, 4242);
    const std::string path = WriteIndex(items, layout.tag, 4096);
    Series query = items[9];
    for (double& v : query) v += 0.01;

    for (int kind = 0; kind < 3; ++kind) {
      SCOPED_TRACE(std::string(layout.tag) + " query kind " +
                   std::to_string(kind));
      // A fresh engine per query, so its 4-frame pool starts cold.
      const auto engine = OpenFileEngine(path, 4);
      ASSERT_NE(engine, nullptr);
      const auto& backend = static_cast<const FileBackend&>(*engine->backend());
      const ScanExpectation want = ExpectIdOrderScan(backend.file());
      if (layout.length == 128) {
        ASSERT_EQ(want.straddling, 0u);
        ASSERT_EQ(want.page_reads * 4, want.fetches);
      } else {
        ASSERT_GT(want.straddling, 0u);
        ASSERT_GT(want.in_place, 0u);
      }

      obs::QueryMetrics metrics;
      if (kind == 0) {
        const ScanResult r = engine->Search(query, &metrics);
        EXPECT_EQ(r.best_index, 9);
      } else if (kind == 1) {
        EXPECT_EQ(engine->Knn(query, 3, nullptr, &metrics).size(), 3u);
      } else {
        (void)engine->Range(query, 5.0, nullptr, &metrics);
      }
      EXPECT_TRUE(backend.error().ok());

      const obs::StageStats& io = metrics.stage(obs::StageId::kDiskFetch);
      EXPECT_EQ(metrics.index.object_fetches, want.fetches);
      EXPECT_EQ(io.candidates_entered, want.fetches);
      EXPECT_EQ(io.pages_read, want.page_reads);
      EXPECT_EQ(metrics.index.page_reads, want.page_reads);
      EXPECT_EQ(io.pool_hits, want.pool_hits);
      EXPECT_EQ(io.io_bytes, want.page_reads * 4096u);

      const PoolCounters c = backend.pool().counters();
      EXPECT_EQ(c.misses, want.page_reads);
      EXPECT_EQ(c.hits + c.misses, want.pins);
      if (layout.length == 128) {
        EXPECT_EQ(c.hits, 0u) << "each page must be pinned exactly once";
      }
      EXPECT_EQ(backend.pool().pinned_pages(), 0u)
          << "the scan's hold must be released when the query returns";
    }
    std::remove(path.c_str());
  }
}

/// A query pins at most one frame at any instant: its hold is released
/// before any other pin. 8-thread SearchBatch and KnnSearchBatch over a
/// pool of exactly 8 frames therefore never exhaust it, and return
/// bit-identical results, step counts and fetch counts to one thread, for
/// rows that each fit in a page and rows that straddle pages. The serial
/// run over a single-frame pool is the same rule at its smallest (one
/// query, one frame) and fails deterministically if a fetch pins a page
/// while the hold still pins another.
TEST(StorageBackendTest, EachQueryPinsAtMostOneFrame) {
  const struct {
    std::size_t length;
    const char* tag;
  } layouts[] = {{128, "frame_fit"}, {100, "frame_straddle"}};
  for (const auto& layout : layouts) {
    SCOPED_TRACE(layout.tag);
    const std::vector<Series> items =
        MakeProjectilePointsDatabase(40, layout.length, 3131);
    const std::string path = WriteIndex(items, layout.tag, 4096);
    std::vector<Series> queries;
    for (std::size_t i = 0; i < 24; ++i) queries.push_back(items[i]);

    const auto one_frame = OpenFileEngine(path, 1);
    const auto eight_frames = OpenFileEngine(path, 8);
    ASSERT_NE(one_frame, nullptr);
    ASSERT_NE(eight_frames, nullptr);

    obs::QueryMetrics serial_metrics;
    obs::QueryMetrics parallel_metrics;
    const auto serial =
        one_frame->SearchBatch(queries, 1, nullptr, &serial_metrics);
    const auto parallel =
        eight_frames->SearchBatch(queries, 8, nullptr, &parallel_metrics);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t q = 0; q < serial.size(); ++q) {
      EXPECT_EQ(serial[q].best_index, static_cast<int>(q)) << "query " << q;
      EXPECT_EQ(serial[q].best_index, parallel[q].best_index) << "query " << q;
      EXPECT_EQ(serial[q].best_distance, parallel[q].best_distance)
          << "query " << q;
      EXPECT_EQ(serial[q].counter.total_steps(),
                parallel[q].counter.total_steps())
          << "query " << q;
    }
    EXPECT_EQ(serial_metrics.index.object_fetches,
              queries.size() * items.size());
    EXPECT_EQ(parallel_metrics.index.object_fetches,
              serial_metrics.index.object_fetches);

    StepCounter serial_steps;
    StepCounter parallel_steps;
    const auto serial_knn =
        one_frame->KnnSearchBatch(queries, 3, 1, &serial_steps);
    const auto parallel_knn =
        eight_frames->KnnSearchBatch(queries, 3, 8, &parallel_steps);
    ASSERT_EQ(serial_knn.size(), parallel_knn.size());
    for (std::size_t q = 0; q < serial_knn.size(); ++q) {
      ASSERT_EQ(serial_knn[q].size(), 3u) << "query " << q;
      ASSERT_EQ(serial_knn[q].size(), parallel_knn[q].size()) << "query " << q;
      for (std::size_t j = 0; j < serial_knn[q].size(); ++j) {
        EXPECT_EQ(serial_knn[q][j].index, parallel_knn[q][j].index);
        EXPECT_EQ(serial_knn[q][j].distance, parallel_knn[q][j].distance);
      }
    }
    EXPECT_EQ(serial_steps.total_steps(), parallel_steps.total_steps());

    for (const QueryEngine* engine : {one_frame.get(), eight_frames.get()}) {
      const auto& backend = static_cast<const FileBackend&>(*engine->backend());
      EXPECT_TRUE(backend.error().ok())
          << "a fetch failed: " << backend.error().message();
      EXPECT_EQ(backend.pool().pinned_pages(), 0u);
    }
    std::remove(path.c_str());
  }
}

/// The TSan target: 8 workers hammering one FileBackend whose BufferPool
/// is far smaller than the working set, so hits, misses, and evictions
/// interleave across threads. Results must be bit-identical to the serial
/// run (the SearchBatch determinism contract extends to paged storage).
TEST(StorageBackendTest, EightThreadBatchOverSharedPoolIsBitIdentical) {
  const std::vector<Series> items =
      MakeProjectilePointsDatabase(48, 64, 909);
  const std::string path = WriteIndex(items, "batch", 256);

  EngineOptions options;
  options.storage.backend = BackendKind::kFile;
  options.storage.index_path = path;
  // 48 objects x 512 bytes span 96 pages; 12 frames force eviction churn
  // while still exceeding the worker count (each fetch holds one pin at a
  // time, so capacity must be >= the 8 concurrent pinners).
  options.storage.pool_pages = 12;
  auto engine = QueryEngine::Open(options);
  ASSERT_TRUE(engine.ok()) << engine.status().message();

  std::vector<Series> queries;
  for (std::size_t i = 0; i < 16; ++i) queries.push_back(items[i * 3]);

  const auto serial = (*engine)->SearchBatch(queries, 1);
  const auto parallel = (*engine)->SearchBatch(queries, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].best_index, parallel[i].best_index) << "query " << i;
    EXPECT_EQ(serial[i].best_distance, parallel[i].best_distance)
        << "query " << i;
    EXPECT_EQ(serial[i].counter.total_steps(),
              parallel[i].counter.total_steps())
        << "query " << i;
  }

  const auto& file_backend =
      static_cast<const FileBackend&>(*(*engine)->backend());
  const PoolCounters c = file_backend.pool().counters();
  EXPECT_GT(c.misses, 0u);
  EXPECT_GT(c.evictions, 0u) << "pool was sized to force eviction churn";
  EXPECT_TRUE(file_backend.error().ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rotind::storage

/// StorageBackend contract tests: the three backends serve bit-identical
/// bytes for the same database, SimulatedBackend reproduces SimulatedDisk's
/// paper-parity page accounting exactly, OpenBackend wires EngineOptions
/// to the right implementation, and a FileBackend's BufferPool survives an
/// 8-way SearchBatch with bit-identical results (the TSan target).

#include "src/storage/backend.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/flat_dataset.h"
#include "src/core/series.h"
#include "src/core/status.h"
#include "src/datasets/synthetic.h"
#include "src/index/index_io.h"
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
      const SeriesHandle h = b->Fetch(i, &io);
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
    (void)backend.Fetch(i, &io);
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

/// SearchBatch determinism: the worker pool must be invisible in the
/// results. 8 threads vs 1 thread, 50 seeded queries — every field of
/// every result, every per-query StepCounter, and the merged totals must
/// be bit-identical. (These tests also run under TSan in CI, where the
/// pool's memory ordering is exercised for data races.)

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/core/flat_dataset.h"
#include "src/core/random.h"
#include "src/datasets/synthetic.h"
#include "src/search/engine.h"
#include "src/storage/backend.h"

namespace rotind {
namespace {

std::vector<Series> MakeQueries(const FlatDataset& db, std::size_t count,
                                std::uint64_t seed) {
  // Queries are database items rotated by a seeded random shift — close
  // enough for pruning to engage, distinct enough to be non-trivial.
  Rng rng(seed);
  std::vector<Series> queries;
  const std::size_t n = db.length();
  for (std::size_t i = 0; i < count; ++i) {
    const Series item = db.Materialize(rng.NextBounded(db.size()));
    const std::size_t shift = rng.NextBounded(n);
    Series q(n);
    for (std::size_t j = 0; j < n; ++j) q[j] = item[(j + shift) % n];
    queries.push_back(q);
  }
  return queries;
}

void ExpectCountersEqual(const StepCounter& a, const StepCounter& b,
                         const std::string& label) {
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.setup_steps, b.setup_steps) << label;
  EXPECT_EQ(a.lower_bound_evals, b.lower_bound_evals) << label;
  EXPECT_EQ(a.full_evals, b.full_evals) << label;
  EXPECT_EQ(a.early_abandons, b.early_abandons) << label;
}

class EngineBatchTest : public ::testing::TestWithParam<DistanceKind> {};

TEST_P(EngineBatchTest, EightThreadsBitIdenticalToOne) {
  const FlatDataset db =
      FlatDataset::FromItems(MakeProjectilePointsDatabase(60, 48, 401));
  EngineOptions options;
  options.kind = GetParam();
  options.band = 4;
  const QueryEngine engine(db, options);
  const std::vector<Series> queries = MakeQueries(db, 50, 402);

  StepCounter merged_serial;
  StepCounter merged_parallel;
  const auto serial = engine.SearchBatch(queries, 1, &merged_serial);
  const auto parallel = engine.SearchBatch(queries, 8, &merged_parallel);

  ASSERT_EQ(serial.size(), queries.size());
  ASSERT_EQ(parallel.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::string label = "query " + std::to_string(q);
    EXPECT_EQ(serial[q].best_index, parallel[q].best_index) << label;
    // Bit-identical, not approximately equal.
    EXPECT_EQ(serial[q].best_distance, parallel[q].best_distance) << label;
    EXPECT_EQ(serial[q].best_shift, parallel[q].best_shift) << label;
    EXPECT_EQ(serial[q].best_mirrored, parallel[q].best_mirrored) << label;
    ExpectCountersEqual(serial[q].counter, parallel[q].counter, label);
  }
  ExpectCountersEqual(merged_serial, merged_parallel, "merged totals");
  // The merge must equal the sum of per-query counters, in query order.
  StepCounter recomputed;
  for (const ScanResult& r : serial) recomputed += r.counter;
  ExpectCountersEqual(recomputed, merged_parallel, "merge = sum");
}

TEST_P(EngineBatchTest, KnnBatchBitIdentical) {
  const FlatDataset db =
      FlatDataset::FromItems(MakeProjectilePointsDatabase(40, 32, 403));
  EngineOptions options;
  options.kind = GetParam();
  const QueryEngine engine(db, options);
  const std::vector<Series> queries = MakeQueries(db, 20, 404);

  StepCounter merged_serial;
  StepCounter merged_parallel;
  const auto serial = engine.KnnSearchBatch(queries, 4, 1, &merged_serial);
  const auto parallel = engine.KnnSearchBatch(queries, 4, 8, &merged_parallel);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t q = 0; q < serial.size(); ++q) {
    ASSERT_EQ(serial[q].size(), parallel[q].size()) << "query " << q;
    for (std::size_t r = 0; r < serial[q].size(); ++r) {
      EXPECT_EQ(serial[q][r].index, parallel[q][r].index);
      EXPECT_EQ(serial[q][r].distance, parallel[q][r].distance);
      EXPECT_EQ(serial[q][r].shift, parallel[q][r].shift);
    }
  }
  ExpectCountersEqual(merged_serial, merged_parallel, "knn merged");
}

TEST_P(EngineBatchTest, RangeBatchBitIdentical) {
  const FlatDataset db =
      FlatDataset::FromItems(MakeProjectilePointsDatabase(40, 32, 405));
  EngineOptions options;
  options.kind = GetParam();
  const QueryEngine engine(db, options);
  const std::vector<Series> queries = MakeQueries(db, 20, 406);

  // A radius wide enough that most queries have several hits.
  const double radius = 2.0;
  const auto serial = engine.RangeSearchBatch(queries, radius, 1);
  const auto parallel = engine.RangeSearchBatch(queries, radius, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t q = 0; q < serial.size(); ++q) {
    ASSERT_EQ(serial[q].size(), parallel[q].size()) << "query " << q;
    for (std::size_t r = 0; r < serial[q].size(); ++r) {
      EXPECT_EQ(serial[q][r].index, parallel[q][r].index);
      EXPECT_EQ(serial[q][r].distance, parallel[q][r].distance);
    }
  }
}

void ExpectResultsEqual(const ScanResult& a, const ScanResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.best_index, b.best_index) << label;
  EXPECT_EQ(a.best_distance, b.best_distance) << label;
  EXPECT_EQ(a.best_shift, b.best_shift) << label;
  EXPECT_EQ(a.best_mirrored, b.best_mirrored) << label;
  ExpectCountersEqual(a.counter, b.counter, label);
}

void ExpectNeighborsEqual(const std::vector<Neighbor>& a,
                          const std::vector<Neighbor>& b,
                          const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].index, b[r].index) << label << " rank " << r;
    EXPECT_EQ(a[r].distance, b[r].distance) << label << " rank " << r;
    EXPECT_EQ(a[r].shift, b[r].shift) << label << " rank " << r;
    EXPECT_EQ(a[r].mirrored, b[r].mirrored) << label << " rank " << r;
  }
}

/// Concurrent first use of the vec-signature rows an in-memory engine
/// builds on its first kVecSignature query: a fresh engine hit by 4
/// threads at once must answer exactly as a fresh engine driven by 1
/// thread, and as an engine over the same rows behind a zero-fault
/// FaultInjectingBackend, which hides the FlatDataset and so embeds every
/// candidate per query. Each batch kind races its own fresh engine.
/// Per-query counters are compared for 1-NN; the k-NN and range batches
/// expose only their merge (the per-query sum in query order).
TEST(EngineBatchVecSignatureTest, ConcurrentFirstUseMatchesOneThread) {
  const FlatDataset db =
      FlatDataset::FromItems(MakeProjectilePointsDatabase(80, 48, 407));
  EngineOptions options;
  options.cascade.stages = {StageKind::kVecSignature, StageKind::kWedge};
  options.vec_sig_dims = db.length() / 2;
  const std::vector<Series> queries = MakeQueries(db, 24, 408);
  const QueryEngine embedding(
      std::make_unique<storage::FaultInjectingBackend>(
          std::make_unique<storage::InMemoryBackend>(db),
          storage::FaultScheduleSpec{}),
      options);

  {
    const QueryEngine four(db, options);
    const QueryEngine one(db, options);
    StepCounter merged_four;
    StepCounter merged_one;
    const auto got = four.SearchBatch(queries, 4, &merged_four);
    const auto want = one.SearchBatch(queries, 1, &merged_one);
    const auto embedded = embedding.SearchBatch(queries, 1);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::string label = "nn query " + std::to_string(q);
      ExpectResultsEqual(got[q], want[q], label);
      ExpectResultsEqual(got[q], embedded[q], "embedding " + label);
    }
    ExpectCountersEqual(merged_four, merged_one, "nn merged");
  }
  {
    const QueryEngine four(db, options);
    const QueryEngine one(db, options);
    StepCounter merged_four;
    StepCounter merged_one;
    StepCounter merged_embedded;
    const auto got = four.KnnSearchBatch(queries, 4, 4, &merged_four);
    const auto want = one.KnnSearchBatch(queries, 4, 1, &merged_one);
    const auto embedded =
        embedding.KnnSearchBatch(queries, 4, 1, &merged_embedded);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      ExpectNeighborsEqual(got[q], want[q], "knn query " + std::to_string(q));
      ExpectNeighborsEqual(got[q], embedded[q],
                           "embedding knn query " + std::to_string(q));
    }
    ExpectCountersEqual(merged_four, merged_one, "knn merged");
    ExpectCountersEqual(merged_four, merged_embedded, "embedding knn merged");
  }
  {
    const QueryEngine four(db, options);
    const QueryEngine one(db, options);
    StepCounter merged_four;
    StepCounter merged_one;
    StepCounter merged_embedded;
    const double radius = 2.0;
    const auto got = four.RangeSearchBatch(queries, radius, 4, &merged_four);
    const auto want = one.RangeSearchBatch(queries, radius, 1, &merged_one);
    const auto embedded =
        embedding.RangeSearchBatch(queries, radius, 1, &merged_embedded);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      ExpectNeighborsEqual(got[q], want[q], "range query " + std::to_string(q));
      ExpectNeighborsEqual(got[q], embedded[q],
                           "embedding range query " + std::to_string(q));
    }
    ExpectCountersEqual(merged_four, merged_one, "range merged");
    ExpectCountersEqual(merged_four, merged_embedded, "embedding range merged");
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, EngineBatchTest,
                         ::testing::Values(DistanceKind::kEuclidean,
                                           DistanceKind::kDtw),
                         [](const ::testing::TestParamInfo<DistanceKind>& i) {
                           return DistanceKindName(i.param);
                         });

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 3, 8}) {
    const std::size_t count = 1000;
    std::vector<std::atomic<int>> hits(count);
    for (auto& h : hits) h.store(0);
    ParallelFor(count, threads, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelForTest, HandlesEmptyAndTinyRanges) {
  ParallelFor(0, 8, [](std::size_t) { FAIL() << "must not be called"; });
  std::atomic<int> calls{0};
  ParallelFor(1, 8, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelForTest, MoreThreadsThanWorkIsSafe) {
  std::atomic<int> calls{0};
  ParallelFor(3, 64, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 3);
}

}  // namespace
}  // namespace rotind

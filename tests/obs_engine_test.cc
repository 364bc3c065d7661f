/// Engine-level observability properties over the equivalence corpus:
///
///  * zero-cost-when-null — instrumented and uninstrumented runs return
///    bit-identical results and step counts;
///  * exact attribution — per-stage steps + setup_steps sum to the legacy
///    StepCounter totals for every cascade composition;
///  * conserved candidate flow — entered == pruned + survived per stage,
///    and the first stage sees every leave-one-out candidate;
///  * deterministic batch merge — 1-thread and N-thread batches produce
///    identical merged counters (wall-clock and latency excepted);
///  * the signature index's signature/fetch/terminal stages obey the same
///    rules.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/flat_dataset.h"
#include "src/datasets/synthetic.h"
#include "src/obs/metrics.h"
#include "src/search/engine.h"
#include "tests/testing/compositions.h"

namespace rotind {
namespace {

using testing::Composition;

/// Every terminal, then the vec-signature filter in front of ea and wedge
/// at n/2 (the FFT-magnitude bound) and in front of ea at the default
/// width, over series of length `n`.
std::vector<Composition> MakeCascades(DistanceKind kind, std::size_t n) {
  std::vector<Composition> out;
  out.push_back({{kind == DistanceKind::kDtw ? StageKind::kFullScanBanded
                                             : StageKind::kFullScan}});
  out.push_back({{StageKind::kExactScan}});
  out.push_back({{StageKind::kWedge}});
  out.push_back({{StageKind::kVecSignature, StageKind::kExactScan}, n / 2});
  out.push_back({{StageKind::kVecSignature, StageKind::kWedge}, n / 2});
  out.push_back({{StageKind::kVecSignature, StageKind::kExactScan}});
  return out;
}

/// Asserts the deterministic (non-wall-clock) counters of two metrics
/// aggregates are identical.
void ExpectSameCounters(const obs::QueryMetrics& a, const obs::QueryMetrics& b,
                        const std::string& label) {
  EXPECT_EQ(a.queries, b.queries) << label;
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    const obs::StageStats& sa = a.stages[i];
    const obs::StageStats& sb = b.stages[i];
    const std::string stage =
        label + "/" + obs::StageName(static_cast<obs::StageId>(i));
    EXPECT_EQ(sa.used, sb.used) << stage;
    EXPECT_EQ(sa.candidates_entered, sb.candidates_entered) << stage;
    EXPECT_EQ(sa.candidates_pruned, sb.candidates_pruned) << stage;
    EXPECT_EQ(sa.candidates_survived, sb.candidates_survived) << stage;
    EXPECT_EQ(sa.steps, sb.steps) << stage;
    EXPECT_EQ(sa.setup_steps, sb.setup_steps) << stage;
    EXPECT_EQ(sa.early_abandons, sb.early_abandons) << stage;
  }
  EXPECT_EQ(a.wedge.wedges_tested, b.wedge.wedges_tested) << label;
  EXPECT_EQ(a.wedge.wedges_pruned, b.wedge.wedges_pruned) << label;
  EXPECT_EQ(a.wedge.wedges_descended, b.wedge.wedges_descended) << label;
  EXPECT_EQ(a.wedge.leaves_evaluated, b.wedge.leaves_evaluated) << label;
  EXPECT_EQ(a.wedge.leaves_abandoned, b.wedge.leaves_abandoned) << label;
  EXPECT_EQ(a.wedge.adapt_probes, b.wedge.adapt_probes) << label;
  EXPECT_EQ(a.index.signature_evals, b.index.signature_evals) << label;
  EXPECT_EQ(a.index.object_fetches, b.index.object_fetches) << label;
  EXPECT_EQ(a.latency.count(), b.latency.count()) << label;
}

class ObsEngineTest : public ::testing::TestWithParam<DistanceKind> {};

TEST_P(ObsEngineTest, AttributionIsExactAndZeroCostWhenNull) {
  const DistanceKind kind = GetParam();
  const std::vector<Series> items = MakeHeterogeneousDatabase(22, 40, 303);
  const FlatDataset flat = FlatDataset::FromItems(items);

  for (const Composition& c : MakeCascades(kind, flat.length())) {
    EngineOptions options;
    options.kind = kind;
    options.band = 4;
    const QueryEngine engine(flat, c.Into(options));

    for (std::size_t qi : {0u, 7u, 15u}) {
      const std::string label = std::string(DistanceKindName(kind)) + "/" +
                                c.Name() + "/q" + std::to_string(qi);
      const Series& query = items[qi];

      const ScanResult plain = engine.SearchLeaveOneOut(query, qi);
      obs::QueryMetrics m;
      const ScanResult inst = engine.SearchLeaveOneOut(query, qi, &m);

      // Bit-identical results and cost with metrics attached.
      EXPECT_EQ(inst.best_index, plain.best_index) << label;
      EXPECT_EQ(inst.best_distance, plain.best_distance) << label;
      EXPECT_EQ(inst.counter.total_steps(), plain.counter.total_steps())
          << label;
      EXPECT_EQ(inst.counter.early_abandons, plain.counter.early_abandons)
          << label;

      // Exact attribution: the stage ledger accounts for every step.
      EXPECT_EQ(m.attributed_total_steps(), inst.counter.total_steps())
          << label;
      std::uint64_t stage_abandons = 0;
      bool any_used = false;
      std::uint64_t max_entered = 0;
      for (std::size_t i = 0; i < obs::kNumStages; ++i) {
        const obs::StageStats& s = m.stages[i];
        if (!s.used) continue;
        any_used = true;
        stage_abandons += s.early_abandons;
        EXPECT_EQ(s.candidates_entered,
                  s.candidates_pruned + s.candidates_survived)
            << label << " stage "
            << obs::StageName(static_cast<obs::StageId>(i));
        max_entered = std::max(max_entered, s.candidates_entered);
      }
      EXPECT_TRUE(any_used) << label;
      // Reserved ids: no stage writes them.
      for (const obs::StageId reserved :
           {obs::StageId::kFftFilter, obs::StageId::kLbImproved,
            obs::StageId::kRefine}) {
        EXPECT_FALSE(m.stage(reserved).used)
            << label << " stage " << obs::StageName(reserved);
      }
      // Candidate flow is monotone along the pipeline and each candidate
      // enters each stage at most once, so the largest entered count across
      // used stages belongs to the cascade entry point: it must have seen
      // every leave-one-out candidate. (Numeric StageIds are append-only for
      // JSON-baseline stability, so enum order no longer tracks pipeline
      // order and cannot identify the entry stage.)
      EXPECT_EQ(max_entered, items.size() - 1) << label;
      EXPECT_EQ(stage_abandons, inst.counter.early_abandons) << label;
      EXPECT_EQ(m.queries, 1u) << label;
      EXPECT_EQ(m.latency.count(), 1u) << label;
    }
  }
}

TEST_P(ObsEngineTest, KnnAndRangeAttributeExactly) {
  const DistanceKind kind = GetParam();
  const std::vector<Series> items = MakeProjectilePointsDatabase(20, 36, 311);
  const FlatDataset flat = FlatDataset::FromItems(items);
  EngineOptions options;
  options.kind = kind;
  options.band = 4;
  options.cascade.stages = {StageKind::kWedge};
  const QueryEngine engine(flat, options);
  const Series& query = items[3];

  StepCounter knn_counter;
  obs::QueryMetrics knn_metrics;
  const auto knn = engine.Knn(query, 3, &knn_counter, &knn_metrics);
  ASSERT_EQ(knn.size(), 3u);
  EXPECT_EQ(knn_metrics.attributed_total_steps(), knn_counter.total_steps());

  StepCounter range_counter;
  obs::QueryMetrics range_metrics;
  const double radius = knn.back().distance * 1.01;
  const auto range =
      engine.Range(query, radius, &range_counter, &range_metrics);
  EXPECT_GE(range.size(), 3u);
  EXPECT_EQ(range_metrics.attributed_total_steps(),
            range_counter.total_steps());
}

TEST_P(ObsEngineTest, BatchMergeIsDeterministicAcrossThreadCounts) {
  const DistanceKind kind = GetParam();
  const std::vector<Series> items = MakeProjectilePointsDatabase(24, 36, 307);
  const FlatDataset flat = FlatDataset::FromItems(items);
  EngineOptions options;
  options.kind = kind;
  options.band = 4;
  options.cascade.stages = {StageKind::kWedge};
  const QueryEngine engine(flat, options);

  std::vector<Series> queries(items.begin(), items.begin() + 10);
  obs::QueryMetrics serial;
  obs::QueryMetrics parallel;
  const auto rs = engine.SearchBatch(queries, 1, nullptr, &serial);
  const auto rp = engine.SearchBatch(queries, 8, nullptr, &parallel);
  ASSERT_EQ(rs.size(), rp.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].best_index, rp[i].best_index);
    EXPECT_EQ(rs[i].best_distance, rp[i].best_distance);
  }
  ExpectSameCounters(serial, parallel, DistanceKindName(kind));
  EXPECT_EQ(serial.queries, queries.size());
}

INSTANTIATE_TEST_SUITE_P(Kinds, ObsEngineTest,
                         ::testing::Values(DistanceKind::kEuclidean,
                                           DistanceKind::kDtw),
                         [](const ::testing::TestParamInfo<DistanceKind>& i) {
                           return std::string(DistanceKindName(i.param));
                         });

class ObsIndexTest : public ::testing::TestWithParam<DistanceKind> {};

/// The signature index on the simulated disk: its visit lands on
/// kSignatureFilter, fetches on kDiskFetch, refinement on the terminal.
std::unique_ptr<QueryEngine> SimulatedIndex(const FlatDataset& flat,
                                            DistanceKind kind) {
  EngineOptions options;
  options.kind = kind;
  options.index_dims = 8;
  options.band = 4;
  options.cascade.stages = {StageKind::kSignatureIndex, StageKind::kWedge};
  options.storage.backend = storage::BackendKind::kSimulated;
  StatusOr<std::unique_ptr<QueryEngine>> opened =
      QueryEngine::Open(options, &flat);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return opened.ok() ? *std::move(opened) : nullptr;
}

TEST_P(ObsIndexTest, IndexStagesObeyTheSameLedgerRules) {
  const DistanceKind kind = GetParam();
  const std::vector<Series> db = MakeProjectilePointsDatabase(30, 40, 404);
  const FlatDataset flat = FlatDataset::FromItems(db);
  const auto index = SimulatedIndex(flat, kind);
  ASSERT_NE(index, nullptr);

  const Series query = db[5];
  const ScanResult plain = index->Search(query);
  obs::QueryMetrics m;
  const ScanResult inst = index->Search(query, &m);

  // Bit-identical with metrics attached.
  EXPECT_EQ(inst.best_index, plain.best_index);
  EXPECT_EQ(inst.best_distance, plain.best_distance);
  EXPECT_EQ(inst.counter.total_steps(), plain.counter.total_steps());

  // Exact attribution across signature/fetch/terminal stages.
  EXPECT_EQ(m.attributed_total_steps(), inst.counter.total_steps());

  const obs::StageStats& sig = m.stage(obs::StageId::kSignatureFilter);
  const obs::StageStats& fetch = m.stage(obs::StageId::kDiskFetch);
  const obs::StageStats& refine = m.stage(obs::StageId::kWedge);
  EXPECT_TRUE(sig.used);
  EXPECT_TRUE(refine.used);
  EXPECT_FALSE(m.stage(obs::StageId::kRefine).used);
  EXPECT_EQ(sig.candidates_entered, db.size());
  EXPECT_EQ(sig.candidates_entered,
            sig.candidates_pruned + sig.candidates_survived);
  // Every signature-filter survivor is fetched exactly once and refined.
  EXPECT_EQ(sig.candidates_survived, fetch.candidates_entered);
  EXPECT_EQ(fetch.candidates_entered, m.index.object_fetches);
  EXPECT_EQ(refine.candidates_entered, m.index.refinements);
  EXPECT_EQ(refine.candidates_entered,
            refine.candidates_pruned + refine.candidates_survived);
  EXPECT_EQ(m.index.candidates_pruned, sig.candidates_pruned);
  EXPECT_GT(m.index.page_reads, 0u);
  EXPECT_GT(m.index.signature_evals, 0u);
  EXPECT_EQ(m.queries, 1u);
  EXPECT_EQ(m.latency.count(), 1u);
}

TEST_P(ObsIndexTest, KnnAttributesExactly) {
  const DistanceKind kind = GetParam();
  const std::vector<Series> db = MakeProjectilePointsDatabase(26, 36, 405);
  const FlatDataset flat = FlatDataset::FromItems(db);
  const auto index = SimulatedIndex(flat, kind);
  ASSERT_NE(index, nullptr);

  StepCounter counter;
  obs::QueryMetrics m;
  const auto knn = index->Knn(db[2], 3, &counter, &m);
  ASSERT_EQ(knn.size(), 3u);
  EXPECT_EQ(m.attributed_total_steps(), counter.total_steps());
  EXPECT_EQ(m.stage(obs::StageId::kDiskFetch).candidates_entered,
            m.index.object_fetches);
  EXPECT_EQ(m.stage(obs::StageId::kSignatureFilter).candidates_entered,
            db.size());
}

INSTANTIATE_TEST_SUITE_P(Kinds, ObsIndexTest,
                         ::testing::Values(DistanceKind::kEuclidean,
                                           DistanceKind::kDtw),
                         [](const ::testing::TestParamInfo<DistanceKind>& i) {
                           return std::string(DistanceKindName(i.param));
                         });

}  // namespace
}  // namespace rotind

/// Blocked (SoA, 8-candidates-at-a-time) cascade terminals vs the
/// per-candidate scalar path. An in-memory FlatDataset engine scores
/// full-scan ED terminals in tile groups. The reference is an engine over
/// the same rows behind a zero-fault FaultInjectingBackend: the decorator
/// hides the FlatDataset (BlockedSource() is null), so that engine fetches
/// and scores one candidate at a time, and it reports the in-memory kind,
/// so it records no fetch stage either. The blocked terminal claims to be
/// OBSERVATIONALLY IDENTICAL — same answers, same step counts, same
/// per-stage attribution — so this file holds it to == on all three,
/// across database sizes straddling the 8-lane tile width, holdout
/// positions in every tile group, mirror invariance, and rotation-limited
/// queries.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/flat_dataset.h"
#include "src/datasets/synthetic.h"
#include "src/obs/metrics.h"
#include "src/search/engine.h"
#include "src/storage/backend.h"

namespace rotind {
namespace {

EngineOptions FullScanOptions(bool mirror, int max_shift) {
  EngineOptions options;
  options.kind = DistanceKind::kEuclidean;
  options.cascade.stages = {StageKind::kFullScan};
  options.rotation.mirror = mirror;
  options.rotation.max_shift = max_shift;
  return options;
}

/// The two engines under comparison, over the same rows and options: the
/// FlatDataset engine (blocked where the cascade allows) and the zero-fault
/// decorated engine (always per candidate).
struct EnginePair {
  EnginePair(const FlatDataset& flat, const EngineOptions& options)
      : blocked(std::make_unique<QueryEngine>(flat, options)),
        scalar(std::make_unique<QueryEngine>(
            std::make_unique<storage::FaultInjectingBackend>(
                std::make_unique<storage::InMemoryBackend>(flat),
                storage::FaultScheduleSpec{}),
            options)) {}
  std::unique_ptr<QueryEngine> blocked;
  std::unique_ptr<QueryEngine> scalar;
};

/// Full-scan ED: results AND step accounting must be bit-identical,
/// including the per-stage attribution the metrics report.
void ExpectFullScanIdentical(const FlatDataset& flat, const Series& query,
                             std::size_t holdout, bool mirror, int max_shift,
                             const std::string& label) {
  EnginePair pair(flat, FullScanOptions(mirror, max_shift));

  obs::QueryMetrics blocked_metrics;
  obs::QueryMetrics scalar_metrics;
  const ScanResult got =
      pair.blocked->SearchLeaveOneOut(query, holdout, &blocked_metrics);
  const ScanResult ref =
      pair.scalar->SearchLeaveOneOut(query, holdout, &scalar_metrics);
  EXPECT_EQ(got.best_index, ref.best_index) << label;
  EXPECT_EQ(got.best_distance, ref.best_distance) << label;
  EXPECT_EQ(got.counter.total_steps(), ref.counter.total_steps()) << label;
  EXPECT_EQ(blocked_metrics.attributed_total_steps(),
            scalar_metrics.attributed_total_steps())
      << label;
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    const obs::StageStats& b = blocked_metrics.stages[i];
    const obs::StageStats& s = scalar_metrics.stages[i];
    const std::string stage_label =
        label + " stage " + obs::StageName(static_cast<obs::StageId>(i));
    EXPECT_EQ(b.candidates_entered, s.candidates_entered) << stage_label;
    EXPECT_EQ(b.candidates_pruned, s.candidates_pruned) << stage_label;
    EXPECT_EQ(b.candidates_survived, s.candidates_survived) << stage_label;
    EXPECT_EQ(b.steps, s.steps) << stage_label;
    EXPECT_EQ(b.early_abandons, s.early_abandons) << stage_label;
  }

  StepCounter blocked_knn_counter;
  StepCounter scalar_knn_counter;
  const auto knn =
      pair.blocked->KnnLeaveOneOut(query, 3, holdout, &blocked_knn_counter);
  const auto ref_knn =
      pair.scalar->KnnLeaveOneOut(query, 3, holdout, &scalar_knn_counter);
  ASSERT_EQ(knn.size(), ref_knn.size()) << label;
  for (std::size_t r = 0; r < knn.size(); ++r) {
    EXPECT_EQ(knn[r].index, ref_knn[r].index) << label << " rank " << r;
    EXPECT_EQ(knn[r].distance, ref_knn[r].distance) << label << " rank " << r;
  }
  EXPECT_EQ(blocked_knn_counter.total_steps(),
            scalar_knn_counter.total_steps())
      << label;

  if (!ref_knn.empty()) {
    const double radius = ref_knn.back().distance * 1.01;
    StepCounter blocked_range_counter;
    StepCounter scalar_range_counter;
    const auto range =
        pair.blocked->Range(query, radius, &blocked_range_counter);
    const auto ref_range =
        pair.scalar->Range(query, radius, &scalar_range_counter);
    ASSERT_EQ(range.size(), ref_range.size()) << label;
    for (std::size_t r = 0; r < range.size(); ++r) {
      EXPECT_EQ(range[r].index, ref_range[r].index) << label << " hit " << r;
      EXPECT_EQ(range[r].distance, ref_range[r].distance)
          << label << " hit " << r;
    }
    EXPECT_EQ(blocked_range_counter.total_steps(),
              scalar_range_counter.total_steps())
        << label;
  }
}

/// Sizes straddling the tile width: below one group, exactly at group
/// boundaries, and with partial tail groups. Holdouts land in the first,
/// a middle, and the last (partial) group.
TEST(SimdEngineTest, BlockedFullScanIsObservationallyIdentical) {
  for (std::size_t m : {3u, 8u, 9u, 16u, 21u}) {
    const std::vector<Series> items =
        MakeProjectilePointsDatabase(m, 37, 701 + static_cast<int>(m));
    const FlatDataset flat = FlatDataset::FromItems(items);
    for (bool mirror : {false, true}) {
      for (std::size_t qi : {std::size_t{0}, m / 2, m - 1}) {
        ExpectFullScanIdentical(
            flat, items[qi], qi, mirror, /*max_shift=*/-1,
            "m=" + std::to_string(m) + (mirror ? " mirror" : "") + " q" +
                std::to_string(qi));
      }
    }
  }
}

/// Rotation-limited queries shrink the rotation set; the blocked driver
/// must mirror the scalar one under those too. Also: a query that is NOT
/// in the database (no holdout at all).
TEST(SimdEngineTest, BlockedFullScanMatchesUnderRotationLimits) {
  const std::vector<Series> items = MakeProjectilePointsDatabase(13, 36, 733);
  const FlatDataset flat = FlatDataset::FromItems(items);
  const Series probe = MakeProjectilePointsDatabase(1, 36, 997)[0];
  for (int max_shift : {0, 3, 9}) {
    ExpectFullScanIdentical(flat, probe, flat.size(), /*mirror=*/false,
                            max_shift,
                            "max_shift=" + std::to_string(max_shift));
    ExpectFullScanIdentical(flat, items[4], 4, /*mirror=*/true, max_shift,
                            "mirror max_shift=" + std::to_string(max_shift));
  }
}

/// A cascade with a filter in front cannot take the blocked path (it would
/// bypass the filter); the engine must silently fall back and still agree.
/// kFullScan is the terminal because it takes the blocked path when it
/// stands alone, so only the filter keeps this scan off it. This guards
/// SupportsBlocked(), not the kernels.
TEST(SimdEngineTest, FilteredCascadeFallsBackAndAgrees) {
  const std::vector<Series> items = MakeProjectilePointsDatabase(17, 33, 877);
  const FlatDataset flat = FlatDataset::FromItems(items);
  EngineOptions options;
  options.kind = DistanceKind::kEuclidean;
  options.cascade.stages = {StageKind::kVecSignature, StageKind::kFullScan};
  options.vec_sig_dims = 16;  // n/2: the FFT-magnitude bound
  EnginePair pair(flat, options);
  for (std::size_t qi : {0u, 8u, 16u}) {
    const ScanResult got = pair.blocked->SearchLeaveOneOut(items[qi], qi);
    const ScanResult ref = pair.scalar->SearchLeaveOneOut(items[qi], qi);
    EXPECT_EQ(got.best_index, ref.best_index) << "q" << qi;
    EXPECT_EQ(got.best_distance, ref.best_distance) << "q" << qi;
    EXPECT_EQ(got.counter.total_steps(), ref.counter.total_steps())
        << "q" << qi;
  }
}

/// DTW terminals never take the blocked path (the blocked kernels are
/// ED-only): the FlatDataset engine must match the per-candidate engine
/// step for step.
TEST(SimdEngineTest, DtwCascadeUnaffectedByBlockedToggle) {
  const std::vector<Series> items = MakeProjectilePointsDatabase(11, 30, 883);
  const FlatDataset flat = FlatDataset::FromItems(items);
  EngineOptions options;
  options.kind = DistanceKind::kDtw;
  options.band = 4;
  options.cascade.stages = {StageKind::kFullScanBanded};
  EnginePair pair(flat, options);
  for (std::size_t qi : {0u, 5u}) {
    const ScanResult got = pair.blocked->SearchLeaveOneOut(items[qi], qi);
    const ScanResult ref = pair.scalar->SearchLeaveOneOut(items[qi], qi);
    EXPECT_EQ(got.best_index, ref.best_index) << "q" << qi;
    EXPECT_EQ(got.best_distance, ref.best_distance) << "q" << qi;
    EXPECT_EQ(got.counter.total_steps(), ref.counter.total_steps())
        << "q" << qi;
  }
}

}  // namespace
}  // namespace rotind

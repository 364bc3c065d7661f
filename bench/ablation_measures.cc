/// "Arbitrary distance measures" (the paper's title claim): the same wedge
/// machinery accelerates Euclidean distance, DTW, and LCSS. This bench
/// puts the three side by side on the projectile-points workload — for
/// LCSS, on a variant with occlusions (broken tips/tangs, paper Figure
/// 15), which is the measure's reason to exist.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/datasets/synthetic.h"

namespace rotind::bench {
namespace {

int Run() {
  const bool full = FullScale();
  const std::size_t n = 251;
  const std::size_t m = full ? 4000 : 600;
  const std::size_t num_queries = full ? 20 : 6;

  std::printf("One wedge machinery, three measures (projectile points, "
              "n=%zu, m=%zu, %zu queries)\n\n",
              n, m, num_queries);

  std::vector<Series> db = MakeProjectilePointsDatabase(m, n, 26);
  // Occlude a third of the specimens: a contiguous chunk is replaced by a
  // far-away constant (a broken tang reads as a profile outlier).
  Rng rng(126);
  for (std::size_t i = 0; i < m; i += 3) {
    const std::size_t start = rng.NextBounded(n - n / 8);
    for (std::size_t j = start; j < start + n / 10; ++j) db[i][j] = 6.0;
  }
  const QuerySet queries = PickQueries(m, num_queries, 226);

  // Euclidean and DTW via the standard scans.
  {
    const double brute =
        BruteStepsPerComparison(n, n, DistanceKind::kEuclidean, 0);
    EngineOptions ed;
    ed.cascade.stages = {StageKind::kWedge};
    const double wedge = AverageStepsPerComparison(db, m, queries, ed);
    std::printf("  %-22s %12.1f steps/cmp   %.6f of its brute force\n",
                "Euclidean wedge", wedge, wedge / brute);
  }
  {
    const double brute = BruteStepsPerComparison(n, n, DistanceKind::kDtw, 5);
    EngineOptions dtw;
    dtw.kind = DistanceKind::kDtw;
    dtw.band = 5;
    dtw.cascade.stages = {StageKind::kWedge};
    const double wedge = AverageStepsPerComparison(db, m, queries, dtw);
    std::printf("  %-22s %12.1f steps/cmp   %.6f of its brute force\n",
                "DTW (R=5) wedge", wedge, wedge / brute);
  }
  // LCSS rides the same engine cascade as ED and DTW now (kind = kLcss):
  // wedge composition vs its own brute-force rotation scan.
  {
    EngineOptions lcss;
    lcss.kind = DistanceKind::kLcss;
    lcss.lcss.epsilon = 0.25;
    lcss.lcss.delta = 5;
    lcss.cascade.stages = {StageKind::kWedge};
    const double wedge_steps = AverageStepsPerComparison(db, m, queries, lcss);
    lcss.cascade.stages = {StageKind::kFullScan};
    const double brute_steps = AverageStepsPerComparison(db, m, queries, lcss);
    std::printf("  %-22s %12.1f steps/cmp   %.6f of its brute force\n",
                "LCSS wedge", wedge_steps, wedge_steps / brute_steps);
  }
  std::printf("\n(each line normalises against the brute-force rotation "
              "scan of ITS OWN measure)\n\n");
  return 0;
}

}  // namespace
}  // namespace rotind::bench

int main() { return rotind::bench::Run(); }

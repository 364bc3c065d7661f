/// Ablation bench for the design choices DESIGN.md calls out:
///   1. dynamic K (paper Section 4.1) vs fixed wedge-set sizes;
///   2. clustered (group-average) wedge hierarchy vs a cheap contiguous
///      binary hierarchy;
///   3. the cost of mirror invariance and the savings of rotation-limited
///      queries.
/// Metric: average steps per object comparison (absolute and relative to
/// brute force), projectile-points workload.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/datasets/synthetic.h"

namespace rotind::bench {
namespace {

/// Average steps per comparison of the wedge cascade under `options`.
double RunWedge(const std::vector<Series>& db, std::size_t m,
                const QuerySet& queries, EngineOptions options) {
  options.cascade.stages = {StageKind::kWedge};
  return AverageStepsPerComparison(db, m, queries, options);
}

int Run() {
  const bool full = FullScale();
  const std::size_t n = 251;
  const std::size_t m = full ? 8000 : 1000;
  const std::size_t num_queries = full ? 20 : 8;

  std::printf("Wedge ablations (projectile points, n=%zu, m=%zu, %zu "
              "queries)\n\n",
              n, m, num_queries);
  const std::vector<Series> db = MakeProjectilePointsDatabase(m, n, 19);
  const QuerySet queries = PickQueries(m, num_queries, 1219);
  const double brute =
      BruteStepsPerComparison(n, n, DistanceKind::kEuclidean, 0);

  auto report = [&](const char* label, double steps) {
    std::printf("  %-34s %12.1f steps/cmp   %.6f of brute\n", label, steps,
                steps / brute);
  };

  std::printf("[1] Wedge-set size K (Euclidean)\n");
  {
    EngineOptions options;
    options.wedge.dynamic_k = true;
    report("dynamic K (paper)", RunWedge(db, m, queries, options));
    for (int k : {1, 2, 8, 32, 128, static_cast<int>(n)}) {
      EngineOptions fixed;
      fixed.wedge.dynamic_k = false;
      fixed.wedge.fixed_k = k;
      char label[64];
      std::snprintf(label, sizeof(label), "fixed K = %d", k);
      report(label, RunWedge(db, m, queries, fixed));
    }
  }

  std::printf("\n[2] Hierarchy construction (Euclidean, dynamic K)\n");
  {
    EngineOptions clustered;
    report("group-average clustering (paper)",
           RunWedge(db, m, queries, clustered));
    EngineOptions contiguous;
    contiguous.wedge.hierarchy = WedgeHierarchy::kContiguous;
    report("contiguous binary hierarchy",
           RunWedge(db, m, queries, contiguous));
  }

  std::printf("\n[3] Invariance options (Euclidean, dynamic K)\n");
  {
    EngineOptions plain;
    report("rotation only", RunWedge(db, m, queries, plain));
    EngineOptions mirror;
    mirror.rotation.mirror = true;
    report("rotation + mirror (2x candidates)",
           RunWedge(db, m, queries, mirror));
    EngineOptions limited;
    limited.rotation.max_shift = static_cast<int>(n * 15 / 360);  // 15 deg
    report("rotation-limited (+/-15 deg)",
           RunWedge(db, m, queries, limited));
  }

  std::printf("\n[4] DTW wedge search (band R=5)\n");
  {
    const double brute_dtw =
        BruteStepsPerComparison(n, n, DistanceKind::kDtw, 5);
    EngineOptions dtw;
    dtw.kind = DistanceKind::kDtw;
    dtw.band = 5;
    const double dynamic = RunWedge(db, m, queries, dtw);
    std::printf("  %-34s %12.1f steps/cmp   %.6f of banded brute\n",
                "dynamic K (paper)", dynamic, dynamic / brute_dtw);
    for (int k : {2, 32, static_cast<int>(n)}) {
      EngineOptions fixed = dtw;
      fixed.wedge.dynamic_k = false;
      fixed.wedge.fixed_k = k;
      const double steps = RunWedge(db, m, queries, fixed);
      char label[64];
      std::snprintf(label, sizeof(label), "fixed K = %d", k);
      std::printf("  %-34s %12.1f steps/cmp   %.6f of banded brute\n", label,
                  steps, steps / brute_dtw);
    }
  }
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace rotind::bench

int main() { return rotind::bench::Run(); }

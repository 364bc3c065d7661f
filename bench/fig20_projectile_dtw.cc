/// Reproduces Figure 20: relative performance on the Projectile Points
/// database under rotation-invariant DTW (Sakoe-Chiba band R = 5).
///
/// Rivals: unconstrained full-matrix brute force, banded brute force
/// ("Brute force, R=5"), early-abandoning scan, and the wedge approach.
/// Both brute-force variants are data-independent and costed in closed
/// form (validated against real runs in tests/scan_test.cc). Paper shape:
/// wedge wins even for m = 3 (a single brute-force rotation comparison
/// dwarfs the wedge build), ending >5000x faster than brute force; the
/// inset at max m shows wedge ~ an order of magnitude below early abandon.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/datasets/synthetic.h"

namespace rotind::bench {
namespace {

int Run() {
  const bool full = FullScale();
  const std::size_t n = 251;
  const int band = 5;
  const std::vector<std::size_t> sizes =
      full ? std::vector<std::size_t>{32, 64, 125, 250, 500, 1000, 2000,
                                      4000, 8000, 16000}
           : std::vector<std::size_t>{32, 64, 125, 250, 500, 1000};
  const std::size_t num_queries = full ? 50 : 5;
  const std::size_t m_max = sizes.back();

  std::printf("Figure 20: Projectile Points, DTW R=%d (n=%zu, %zu queries"
              "%s)\n",
              band, n, num_queries, full ? ", full scale" : "");
  const std::vector<Series> db =
      MakeProjectilePointsDatabase(m_max, n, /*seed=*/20);
  const QuerySet queries = PickQueries(m_max, num_queries, /*seed=*/120);

  const std::vector<const char*> names = {"brute", "brute_R5", "early_ab",
                                          "wedge"};
  PrintHeader("relative steps per comparison (1.0 = unconstrained brute)",
              names);

  EngineOptions ea_options;
  ea_options.kind = DistanceKind::kDtw;
  ea_options.band = band;
  ea_options.cascade.stages = {StageKind::kExactScan};
  EngineOptions wedge_options = ea_options;
  wedge_options.cascade.stages = {StageKind::kWedge};
  const double brute_full =
      BruteStepsPerComparison(n, n, DistanceKind::kDtw, -1);
  const double brute_banded =
      BruteStepsPerComparison(n, n, DistanceKind::kDtw, band);

  double last_ea = 0.0;
  double last_wedge = 0.0;
  for (std::size_t m : sizes) {
    const double ea = AverageStepsPerComparison(db, m, queries, ea_options);
    const double wedge =
        AverageStepsPerComparison(db, m, queries, wedge_options);
    PrintRow(m, {1.0, brute_banded / brute_full, ea / brute_full,
                 wedge / brute_full},
             names);
    last_ea = ea;
    last_wedge = wedge;
  }

  std::printf("\nInset at m=%zu (relative to banded brute force):\n", m_max);
  std::printf("  brute_R5 %10.6f   early_ab %10.6f   wedge %10.6f\n", 1.0,
              last_ea / brute_banded, last_wedge / brute_banded);
  std::printf("  wedge speedup vs unconstrained brute force: %.0fx\n\n",
              brute_full / last_wedge);
  return 0;
}

}  // namespace
}  // namespace rotind::bench

int main() { return rotind::bench::Run(); }

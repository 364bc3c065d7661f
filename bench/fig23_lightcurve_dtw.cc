/// Reproduces Figure 23: relative performance on star light curves under
/// rotation-invariant DTW. The paper's Table 8 learns R = 3 (as a
/// percentage of a length-1024 series we keep the same proportional band).
///
/// Expected shape: as with shapes, the wedge approach wins from tiny m and
/// ends orders of magnitude ahead of both brute-force variants.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/datasets/synthetic.h"

namespace rotind::bench {
namespace {

int Run() {
  const bool full = FullScale();
  const std::size_t n = full ? 1024 : 256;
  const int band = std::max(1, static_cast<int>(n * 3 / 100));  // R ~ 3%
  const std::vector<std::size_t> sizes = {32, 64, 125, 250, 500, 953};
  const std::size_t num_queries = full ? 50 : 4;
  const std::size_t m_max = sizes.back();

  std::printf("Figure 23: Light Curves, DTW R=%d (n=%zu, %zu queries%s)\n",
              band, n, num_queries, full ? ", full scale" : "");
  const std::vector<Series> db = MakeLightCurveDatabase(m_max, n, /*seed=*/23);
  const QuerySet queries = PickQueries(m_max, num_queries, /*seed=*/123);

  const std::vector<const char*> names = {"brute", "brute_R", "early_ab",
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

  double last_wedge = 0.0;
  for (std::size_t m : sizes) {
    const double ea = AverageStepsPerComparison(db, m, queries, ea_options);
    const double wedge =
        AverageStepsPerComparison(db, m, queries, wedge_options);
    PrintRow(m, {1.0, brute_banded / brute_full, ea / brute_full,
                 wedge / brute_full},
             names);
    last_wedge = wedge;
  }
  std::printf("\nwedge speedup vs unconstrained brute force at m=%zu: %.0fx"
              "\n\n",
              m_max, brute_full / last_wedge);
  return 0;
}

}  // namespace
}  // namespace rotind::bench

int main() { return rotind::bench::Run(); }

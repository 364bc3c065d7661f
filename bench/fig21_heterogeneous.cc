/// Reproduces Figure 21: relative performance on the Heterogeneous dataset
/// (a mixture of all shape families plus light curves) under Euclidean
/// distance (left panel) and DTW (right panel).
///
/// Paper: n = 1024, m up to 8000, 50 queries. Default scale shrinks n/m
/// (ROTIND_BENCH_SCALE=full restores the paper's sizes). Expected shape:
/// the wedge takes slightly longer to beat early abandon than on the
/// homogeneous data, but ends ~2 orders ahead of the Euclidean rivals and
/// ~1 order ahead of early abandon for DTW (paper: 3976x vs brute force).

#include <cstdio>

#include "bench/bench_common.h"
#include "src/datasets/synthetic.h"

namespace rotind::bench {
namespace {

int Run() {
  const bool full = FullScale();
  const std::size_t n = full ? 1024 : 512;
  const int band = 5;
  const std::vector<std::size_t> sizes =
      full ? std::vector<std::size_t>{32, 64, 125, 250, 500, 1000, 2000,
                                      4000, 8000}
           : std::vector<std::size_t>{32, 64, 125, 250, 500, 1000};
  const std::size_t num_queries = full ? 50 : 4;
  const std::size_t m_max = sizes.back();

  std::printf("Figure 21: Heterogeneous dataset (n=%zu, %zu queries%s)\n", n,
              num_queries, full ? ", full scale" : "");
  const std::vector<Series> db =
      MakeHeterogeneousDatabase(m_max, n, /*seed=*/21);
  const QuerySet queries = PickQueries(m_max, num_queries, /*seed=*/121);

  // Left panel: Euclidean.
  {
    const std::vector<const char*> names = {"brute", "fft", "early_ab",
                                            "wedge"};
    PrintHeader("[Euclidean] relative steps per comparison", names);
    // The FFT rival: the vec-signature filter at one band per spectral bin
    // is the paper's FFT-magnitude lower bound (Section 4.2).
    EngineOptions fft_options;  // Euclidean
    fft_options.cascade.stages = {StageKind::kVecSignature,
                                  StageKind::kExactScan};
    fft_options.vec_sig_dims = n / 2;
    EngineOptions ea_options;
    ea_options.cascade.stages = {StageKind::kExactScan};
    EngineOptions wedge_options;
    wedge_options.cascade.stages = {StageKind::kWedge};
    const double brute =
        BruteStepsPerComparison(n, n, DistanceKind::kEuclidean, 0);
    for (std::size_t m : sizes) {
      const double fft = AverageStepsPerComparison(db, m, queries, fft_options);
      const double ea = AverageStepsPerComparison(db, m, queries, ea_options);
      const double wedge =
          AverageStepsPerComparison(db, m, queries, wedge_options);
      PrintRow(m, {1.0, fft / brute, ea / brute, wedge / brute}, names);
    }
    std::printf("\n");
  }

  // Right panel: DTW.
  {
    const std::vector<const char*> names = {"brute", "brute_R5", "early_ab",
                                            "wedge"};
    PrintHeader("[DTW R=5] relative steps per comparison", names);
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
    std::printf("\nwedge speedup vs unconstrained brute force at m=%zu: "
                "%.0fx\n\n",
                m_max, brute_full / last_wedge);
  }
  return 0;
}

}  // namespace
}  // namespace rotind::bench

int main() { return rotind::bench::Run(); }

/// Reproduces Figure 22: relative performance of the four Euclidean rivals
/// on star light curves (paper Section 2.4: phase-folded periodic variable
/// stars have no natural starting point, so matching them IS the rotation-
/// invariance problem).
///
/// Paper: the hand-labelled set of 953 curves, n = 1024. Expected shape:
/// wedge slightly slower below m ~ 125 (setup overhead), then pulls an
/// order of magnitude ahead of the FFT approach by the full dataset.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/datasets/synthetic.h"

namespace rotind::bench {
namespace {

int Run() {
  const bool full = FullScale();
  const std::size_t n = full ? 1024 : 256;
  const std::vector<std::size_t> sizes = {32, 64, 125, 250, 500, 953};
  const std::size_t num_queries = full ? 50 : 8;
  const std::size_t m_max = sizes.back();

  std::printf("Figure 22: Light Curves, Euclidean (n=%zu, %zu queries%s)\n",
              n, num_queries, full ? ", full scale" : "");
  const std::vector<Series> db = MakeLightCurveDatabase(m_max, n, /*seed=*/22);
  const QuerySet queries = PickQueries(m_max, num_queries, /*seed=*/122);

  const std::vector<const char*> names = {"brute", "fft", "early_ab",
                                          "wedge"};
  PrintHeader("relative steps per comparison (1.0 = brute force)", names);

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
  return 0;
}

}  // namespace
}  // namespace rotind::bench

int main() { return rotind::bench::Run(); }

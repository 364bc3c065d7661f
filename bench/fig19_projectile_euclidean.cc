/// Reproduces Figure 19: relative performance of four exact algorithms on
/// the Projectile Points database under rotation-invariant Euclidean
/// distance, as the database grows.
///
/// Paper: m in {32..16000}, n = 251, 50 random queries; y-axis = average
/// steps per comparison relative to brute force. Expected shape: the wedge
/// approach starts slightly WORSE than FFT / early-abandon (it pays an
/// O(n^2) wedge-construction cost per query), breaks even by m ~ 64, and
/// ends 1-2 orders of magnitude ahead (paper: ~2 orders vs brute force).

#include <cstdio>

#include "bench/bench_common.h"
#include "src/datasets/synthetic.h"

namespace rotind::bench {
namespace {

int Run() {
  const bool full = FullScale();
  const std::size_t n = 251;
  const std::vector<std::size_t> sizes =
      full ? std::vector<std::size_t>{32, 64, 125, 250, 500, 1000, 2000,
                                      4000, 8000, 16000}
           : std::vector<std::size_t>{32, 64, 125, 250, 500, 1000, 2000};
  const std::size_t num_queries = full ? 50 : 10;
  const std::size_t m_max = sizes.back();

  std::printf("Figure 19: Projectile Points, Euclidean (n=%zu, %zu queries"
              "%s)\n",
              n, num_queries, full ? ", full scale" : "");
  const std::vector<Series> db =
      MakeProjectilePointsDatabase(m_max, n, /*seed=*/19);
  const QuerySet queries = PickQueries(m_max, num_queries, /*seed=*/119);

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

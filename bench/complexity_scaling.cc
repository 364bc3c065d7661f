/// Validates the paper's Section 2.3 claim of an empirical average
/// complexity of roughly O(n^1.06) per rotation-invariant comparison
/// (against the exact O(n n log n) of cyclic-string DP and the O(n^2) of
/// plain brute force): sweeps the series length n at fixed database size
/// and fits the exponent of average wedge-search steps per comparison via
/// least-squares on log-log data.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "src/datasets/synthetic.h"

namespace rotind::bench {
namespace {

double FitExponent(const std::vector<double>& xs,
                   const std::vector<double>& ys) {
  // Slope of least-squares fit of log(y) on log(x).
  const std::size_t k = xs.size();
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double lx = std::log(xs[i]);
    const double ly = std::log(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double denom = k * sxx - sx * sx;
  return (k * sxy - sx * sy) / denom;
}

int Run() {
  const bool full = FullScale();
  const std::vector<std::size_t> lengths =
      full ? std::vector<std::size_t>{64, 128, 256, 512, 1024}
           : std::vector<std::size_t>{64, 128, 256, 512};
  const std::size_t m = full ? 4000 : 1000;
  const std::size_t num_queries = full ? 20 : 6;

  std::printf("Empirical complexity of one rotation-invariant comparison "
              "(m=%zu, %zu queries)\n\n",
              m, num_queries);
  std::printf("%8s  %16s  %16s\n", "n", "wedge ED steps", "wedge DTW steps");

  std::vector<double> xs, ed_steps, dtw_steps;
  for (std::size_t n : lengths) {
    const std::vector<Series> db = MakeProjectilePointsDatabase(m, n, 25);
    const QuerySet queries = PickQueries(m, num_queries, 125);

    EngineOptions ed;
    ed.cascade.stages = {StageKind::kWedge};
    const double ed_avg = AverageStepsPerComparison(db, m, queries, ed);

    EngineOptions dtw = ed;
    dtw.kind = DistanceKind::kDtw;
    dtw.band = std::max(1, static_cast<int>(n) / 50);  // ~2% band
    const double dtw_avg = AverageStepsPerComparison(db, m, queries, dtw);

    std::printf("%8zu  %16.1f  %16.1f\n", n, ed_avg, dtw_avg);
    xs.push_back(static_cast<double>(n));
    ed_steps.push_back(ed_avg);
    dtw_steps.push_back(dtw_avg);
  }

  std::printf("\nfitted scaling exponent (steps ~ n^a across the sweep):\n");
  std::printf("  Euclidean wedge search: a = %.3f\n",
              FitExponent(xs, ed_steps));
  std::printf("  DTW wedge search:       a = %.3f\n",
              FitExponent(xs, dtw_steps));

  // The paper's "empirical O(n^1.06)" is the EFFECTIVE exponent: the a
  // with steps == n^a at their operating point (n ~ 1000, m = 16000). It
  // shrinks as m grows because the best-so-far tightens with database
  // size; run with ROTIND_BENCH_SCALE=full for the closest comparison.
  std::printf("\neffective exponent log_n(steps) per point:\n");
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::printf("  n=%5.0f   ED a=%.3f   DTW a=%.3f\n", xs[i],
                std::log(ed_steps[i]) / std::log(xs[i]),
                std::log(dtw_steps[i]) / std::log(xs[i]));
  }
  std::printf("  (paper: effective a ~ 1.06 at n~1000, m=16000; brute "
              "force is a = 2 for ED and a = 3 unconstrained DTW)\n\n");
  return 0;
}

}  // namespace
}  // namespace rotind::bench

int main() { return rotind::bench::Run(); }

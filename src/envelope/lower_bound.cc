#include "src/envelope/lower_bound.h"

#include <cmath>
#include <limits>

#include "src/core/contracts.h"
#include "src/distance/euclidean.h"
#include "src/simd/simd.h"

namespace rotind {

double LbKeogh(const double* q, const Envelope& wedge, StepCounter* counter) {
  ROTIND_CONTRACT(wedge.IsOrdered(),
                  "LB_Keogh requires a valid wedge (L <= U pointwise); a "
                  "crossed envelope silently breaks Proposition 1");
  const std::size_t n = wedge.size();
  // The never-abandoning case of the dispatched kernel: an infinite limit
  // makes it accumulate all n points, exactly the old branchy loop.
  std::size_t examined = 0;
  const double acc = simd::Kernels().lb_keogh_sq(
      q, wedge.upper.data(), wedge.lower.data(), n,
      std::numeric_limits<double>::infinity(), &examined);
  AddSteps(counter, n);
  if (counter != nullptr) ++counter->lower_bound_evals;
  return std::sqrt(acc);
}

double EarlyAbandonLbKeoghSquared(const double* q, const double* upper,
                                  const double* lower, std::size_t n,
                                  double squared_limit,
                                  StepCounter* counter) {
  if (counter != nullptr) ++counter->lower_bound_evals;
#if ROTIND_CONTRACTS_ENABLED
  // The dispatched kernels are branchless on L <= U, so check the whole
  // envelope up front in contract builds (strictly stronger than the old
  // per-visited-point check).
  for (std::size_t i = 0; i < n; ++i) {
    ROTIND_DCHECK(lower[i] <= upper[i]);
  }
#endif
  // Each point performs (at most) one real-value subtraction that feeds
  // the accumulator; the comparisons against U/L mirror the paper's
  // Table 5 structure. The kernel reports how many points it consumed
  // before abandoning — that is the step charge.
  std::size_t examined = 0;
  const double acc =
      simd::Kernels().lb_keogh_sq(q, upper, lower, n, squared_limit, &examined);
  // Abandoned iff the accumulator tripped the limit; an accumulator that
  // legitimately reaches +inf under an infinite limit (overflow) is a
  // survivor, exactly as `acc > limit` decided in the scalar loop.
  if (std::isinf(acc) && acc > squared_limit) {
    if (counter != nullptr) {
      counter->steps += examined;
      ++counter->early_abandons;
    }
    return std::numeric_limits<double>::infinity();
  }
  AddSteps(counter, n);
  return acc;
}

double EarlyAbandonLbKeogh(const double* q, const Envelope& wedge,
                           double limit, StepCounter* counter) {
  const double squared_limit =
      std::isinf(limit) ? limit : limit * limit;
  const double sq = EarlyAbandonLbKeoghSquared(
      q, wedge.upper.data(), wedge.lower.data(), wedge.size(), squared_limit,
      counter);
  return std::isinf(sq) ? kAbandoned : std::sqrt(sq);
}

}  // namespace rotind

#ifndef ROTIND_ENVELOPE_LOWER_BOUND_H_
#define ROTIND_ENVELOPE_LOWER_BOUND_H_

#include <cstddef>

#include "src/core/step_counter.h"
#include "src/envelope/envelope.h"

namespace rotind {

/// LB_Keogh (paper Section 4.1):
///
///   LB_Keogh(Q, W) = sqrt( sum_i  (q_i - U_i)^2  if q_i > U_i
///                                 (q_i - L_i)^2  if q_i < L_i
///                                 0              otherwise )
///
/// For a wedge W enclosing candidate sequences C_1..C_k,
/// LB_Keogh(Q, W) <= ED(Q, C_s) for every s (Proposition 1). With a
/// band-expanded wedge (Envelope::ExpandedForDtw) the same function
/// lower-bounds DTW (Proposition 2). When W is degenerate (U = L = C) it
/// equals the Euclidean distance exactly.
///
/// Abandonment sentinel contract: every early-abandoning function in this
/// header signals abandonment by returning kAbandoned (defined in
/// src/distance/euclidean.h as +infinity — the two names are ONE value,
/// not two sentinels). The squared variants return it for the squared
/// bound, the unsquared for the bound itself; a caller may test either
/// with std::isinf. tests/lower_bound_test.cc pins this contract.

/// Full LB_Keogh; charges n steps.
double LbKeogh(const double* q, const Envelope& wedge,
               StepCounter* counter = nullptr);

/// Early-abandoning squared LB_Keogh against raw envelope pointers (paper
/// Table 5): aborts returning kAbandoned (+infinity) once the accumulator
/// exceeds `squared_limit`; otherwise returns the squared lower bound.
/// Charges one step per point examined.
double EarlyAbandonLbKeoghSquared(const double* q, const double* upper,
                                  const double* lower, std::size_t n,
                                  double squared_limit,
                                  StepCounter* counter = nullptr);

/// Early-abandoning LB_Keogh (unsquared convenience): returns kAbandoned
/// (+infinity) on abandonment or the exact lower bound.
double EarlyAbandonLbKeogh(const double* q, const Envelope& wedge,
                           double limit, StepCounter* counter = nullptr);

}  // namespace rotind

#endif  // ROTIND_ENVELOPE_LOWER_BOUND_H_

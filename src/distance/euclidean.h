#ifndef ROTIND_DISTANCE_EUCLIDEAN_H_
#define ROTIND_DISTANCE_EUCLIDEAN_H_

#include <cstddef>
#include <limits>

#include "src/core/series.h"
#include "src/core/step_counter.h"

namespace rotind {

/// Sentinel distance returned by early-abandoning kernels when the true
/// distance provably exceeds the abandonment threshold (paper Table 1).
inline constexpr double kAbandoned = std::numeric_limits<double>::infinity();

/// Sum of squared differences over `n` aligned points. Charges `n` steps.
double SquaredEuclidean(const double* a, const double* b, std::size_t n,
                        StepCounter* counter = nullptr);

/// Plain Euclidean distance between equal-length series.
double EuclideanDistance(const Series& a, const Series& b,
                         StepCounter* counter = nullptr);

/// Early-abandoning Euclidean distance (paper Definition 1 / Table 1).
/// Accumulates squared differences and aborts as soon as the running sum
/// exceeds `limit`^2, returning kAbandoned; otherwise returns the exact
/// distance. `limit` may be +infinity (never abandons). Charges one step per
/// point examined, which is the paper's `num_steps`.
double EarlyAbandonEuclidean(const double* q, const double* c, std::size_t n,
                             double limit, StepCounter* counter = nullptr);

/// Early-abandoning squared Euclidean: same abandonment rule, but compares
/// against and returns squared values. Hot-path building block (avoids the
/// sqrt/square round-trips when callers carry squared thresholds).
double EarlyAbandonSquaredEuclidean(const double* q, const double* c,
                                    std::size_t n, double squared_limit,
                                    StepCounter* counter = nullptr);

/// Blocked counterpart: scores one query against simd::kBlockLanes
/// candidates stored as a 64-byte-aligned SoA tile (FlatDataset::tile).
/// All lanes are computed, but only the first `valid` lanes are charged to
/// the counter (tail lanes of a partial tile group are zero padding).
/// Per-lane results are bit-identical to the per-candidate scalar kernel:
/// out_sq[l] = squared ED of lane l. Charges n steps per valid lane; does
/// NOT touch full_evals (mirrors SquaredEuclidean, where the rotation
/// driver attributes the eval).
void SquaredEuclideanBlock(const double* q, const double* tile, std::size_t n,
                           std::size_t valid, double* out_sq,
                           StepCounter* counter = nullptr);

}  // namespace rotind

#endif  // ROTIND_DISTANCE_EUCLIDEAN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "src/simd/kernels_internal.h"

// Portable reference tier. These loops ARE the semantics: every other tier
// must match them bit-for-bit, including where abandonment fires. They
// mirror the scalar kernels that used to live inline in
// src/envelope/lower_bound.cc, src/distance/euclidean.cc,
// src/envelope/envelope.cc, and src/distance/dtw.cc — keep the accumulation
// and comparison order exactly as written.

namespace rotind {
namespace simd {
namespace internal {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double LbKeoghSqScalar(const double* s, const double* upper,
                       const double* lower, std::size_t n, double sq_limit,
                       std::size_t* examined) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (s[i] > upper[i]) {
      const double d = s[i] - upper[i];
      acc += d * d;
    } else if (s[i] < lower[i]) {
      const double d = s[i] - lower[i];
      acc += d * d;
    }
    if (acc > sq_limit) {
      *examined = i + 1;
      return kInf;
    }
  }
  *examined = n;
  return acc;
}

void EdBlockFullScalar(const double* q, const double* tile, std::size_t n,
                       double* out_sq) {
  for (std::size_t l = 0; l < kBlockLanes; ++l) out_sq[l] = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    const double* row = tile + t * kBlockLanes;
    const double qt = q[t];
    for (std::size_t l = 0; l < kBlockLanes; ++l) {
      const double d = qt - row[l];
      out_sq[l] += d * d;
    }
  }
}

void EnvMergeScalar(double* upper, double* lower, const double* other_upper,
                    const double* other_lower, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    upper[i] = std::max(upper[i], other_upper[i]);
    lower[i] = std::min(lower[i], other_lower[i]);
  }
}

void EnvMergeSeriesScalar(double* upper, double* lower, const double* s,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    upper[i] = std::max(upper[i], s[i]);
    lower[i] = std::min(lower[i], s[i]);
  }
}

double DtwRowScalar(double qi, const double* c, const double* prev,
                    double* curr, std::size_t j_lo, std::size_t j_hi,
                    double* scratch) {
  static_cast<void>(scratch);
  double row_min = kInf;
  for (std::size_t j = j_lo; j <= j_hi; ++j) {
    const double d = qi - c[j];
    const double cost = d * d;
    double best = prev[j];
    if (j > 0) {
      best = std::min(best, curr[j - 1]);
      best = std::min(best, prev[j - 1]);
    }
    curr[j] = best + cost;
    row_min = std::min(row_min, curr[j]);
  }
  return row_min;
}

}  // namespace

const KernelTable& ScalarTable() {
  static const KernelTable table = {
      &LbKeoghSqScalar,      &EdBlockFullScalar, &EnvMergeScalar,
      &EnvMergeSeriesScalar, &DtwRowScalar,
  };
  return table;
}

}  // namespace internal
}  // namespace simd
}  // namespace rotind

#include "src/simd/kernels_internal.h"

#if defined(ROTIND_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "src/core/aligned.h"

// AVX2 tier. Built with -mavx2 -ffp-contract=off and ONLY explicit
// mul+add intrinsics (never FMA), so every arithmetic op rounds exactly
// like its scalar counterpart. Bit-parity rules used throughout:
//
//  * Accumulation chains are never reassociated: blocked ED keeps one
//    accumulator per candidate lane fed in time order, and LB_Keogh
//    vector-computes per-element terms but consumes them with the same
//    serial accumulate-and-check loop as scalar.
//  * min/max tie order: std::max(a, b) returns its FIRST argument on a
//    tie (a < b ? b : a), while vmaxpd/vminpd return the SECOND source
//    operand. Wherever a tie could be -0.0 vs +0.0 (envelope merge), the
//    scalar first argument is therefore passed as the intrinsic's second
//    operand. DTW cell values are sums of squares (>= +0.0 or +inf), where
//    equal values have equal bits, so min order there is unconstrained.
//  * Comparisons use the ordered-quiet predicates, matching the scalar
//    `a > b` / `a != b` semantics on NaN.

namespace rotind {
namespace simd {
namespace internal {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double LbKeoghSqAvx2(const double* s, const double* upper, const double* lower,
                     std::size_t n, double sq_limit, std::size_t* examined) {
  // Scalar checks `acc > sq_limit` after EVERY element, so a negative
  // limit abandons at index 0 even when the first term is zero. Fold that
  // case out so the all-inside fast path below can skip whole blocks.
  if (n > 0 && sq_limit < 0.0) {
    *examined = 1;
    return kInf;
  }
  const __m256d zero = _mm256_setzero_pd();
  double acc = 0.0;
  std::size_t i = 0;
  alignas(kSimdAlignment) double terms[8];
  for (; i + 8 <= n; i += 8) {
    const __m256d s0 = _mm256_loadu_pd(s + i);
    const __m256d s1 = _mm256_loadu_pd(s + i + 4);
    const __m256d u0 = _mm256_loadu_pd(upper + i);
    const __m256d u1 = _mm256_loadu_pd(upper + i + 4);
    const __m256d l0 = _mm256_loadu_pd(lower + i);
    const __m256d l1 = _mm256_loadu_pd(lower + i + 4);
    // d = max(s-U, 0) + max(L-s, 0). With L <= U at most one addend is
    // positive, so d equals the branchy scalar excess exactly (the +0.0
    // addend is absorbed; vmaxpd's tie-returns-second yields +0.0 for a
    // -0.0 difference, which still adds as +0.0).
    const __m256d d0 = _mm256_add_pd(
        _mm256_max_pd(_mm256_sub_pd(s0, u0), zero),
        _mm256_max_pd(_mm256_sub_pd(l0, s0), zero));
    const __m256d d1 = _mm256_add_pd(
        _mm256_max_pd(_mm256_sub_pd(s1, u1), zero),
        _mm256_max_pd(_mm256_sub_pd(l1, s1), zero));
    const int nz = _mm256_movemask_pd(_mm256_cmp_pd(d0, zero, _CMP_NEQ_OQ)) |
                   _mm256_movemask_pd(_mm256_cmp_pd(d1, zero, _CMP_NEQ_OQ));
    if (nz == 0) {
      // Whole block inside the envelope: acc is unchanged and already
      // <= sq_limit (we did not abandon last element), so all eight
      // scalar checks are false. Common case on surviving candidates.
      continue;
    }
    _mm256_store_pd(terms, _mm256_mul_pd(d0, d0));
    _mm256_store_pd(terms + 4, _mm256_mul_pd(d1, d1));
    // Same serial accumulate/check as scalar: zero terms leave a
    // non-negative acc bit-unchanged, positive terms match the branchy
    // d*d exactly.
    for (std::size_t k = 0; k < 8; ++k) {
      acc += terms[k];
      if (acc > sq_limit) {
        *examined = i + k + 1;
        return kInf;
      }
    }
  }
  for (; i < n; ++i) {
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

void EdBlockFullAvx2(const double* q, const double* tile, std::size_t n,
                     double* out_sq) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  for (std::size_t t = 0; t < n; ++t) {
    const __m256d qv = _mm256_broadcast_sd(q + t);
    // Tile rows are t * kBlockLanes doubles in = t * 64 bytes: every row
    // starts on a fresh cache line, so aligned loads are safe.
    const __m256d c0 = _mm256_load_pd(tile + t * kBlockLanes);
    const __m256d c1 = _mm256_load_pd(tile + t * kBlockLanes + 4);
    const __m256d d0 = _mm256_sub_pd(qv, c0);
    const __m256d d1 = _mm256_sub_pd(qv, c1);
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
  }
  _mm256_storeu_pd(out_sq, acc0);
  _mm256_storeu_pd(out_sq + 4, acc1);
}

void EnvMergeAvx2(double* upper, double* lower, const double* other_upper,
                  const double* other_lower, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d u = _mm256_loadu_pd(upper + i);
    const __m256d ou = _mm256_loadu_pd(other_upper + i);
    const __m256d l = _mm256_loadu_pd(lower + i);
    const __m256d ol = _mm256_loadu_pd(other_lower + i);
    // Existing operand second: vmaxpd/vminpd return the second source on
    // a tie, matching std::max/std::min returning their first argument.
    _mm256_storeu_pd(upper + i, _mm256_max_pd(ou, u));
    _mm256_storeu_pd(lower + i, _mm256_min_pd(ol, l));
  }
  for (; i < n; ++i) {
    upper[i] = std::max(upper[i], other_upper[i]);
    lower[i] = std::min(lower[i], other_lower[i]);
  }
}

void EnvMergeSeriesAvx2(double* upper, double* lower, const double* s,
                        std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d u = _mm256_loadu_pd(upper + i);
    const __m256d l = _mm256_loadu_pd(lower + i);
    const __m256d sv = _mm256_loadu_pd(s + i);
    _mm256_storeu_pd(upper + i, _mm256_max_pd(sv, u));
    _mm256_storeu_pd(lower + i, _mm256_min_pd(sv, l));
  }
  for (; i < n; ++i) {
    upper[i] = std::max(upper[i], s[i]);
    lower[i] = std::min(lower[i], s[i]);
  }
}

double DtwRowAvx2(double qi, const double* c, const double* prev, double* curr,
                  std::size_t j_lo, std::size_t j_hi, double* scratch) {
  double row_min = kInf;
  std::size_t j = j_lo;
  if (j_lo == 0) {
    // Column 0 has no left/diagonal neighbor inside the row.
    const double d = qi - c[0];
    curr[0] = prev[0] + d * d;
    row_min = std::min(row_min, curr[0]);
    j = 1;
  }
  if (j > j_hi) return row_min;
  // Pass 1 (vector): scratch[j] = min(prev[j], prev[j-1]) and
  // curr[j] = (qi - c[j])^2 — both elementwise, no cross-cell chain.
  std::size_t v = j;
  const __m256d qv = _mm256_broadcast_sd(&qi);
  for (; v + 4 <= j_hi + 1; v += 4) {
    const __m256d p = _mm256_loadu_pd(prev + v);
    const __m256d pm1 = _mm256_loadu_pd(prev + v - 1);
    _mm256_storeu_pd(scratch + v, _mm256_min_pd(pm1, p));
    const __m256d d = _mm256_sub_pd(qv, _mm256_loadu_pd(c + v));
    _mm256_storeu_pd(curr + v, _mm256_mul_pd(d, d));
  }
  for (; v <= j_hi; ++v) {
    scratch[v] = std::min(prev[v], prev[v - 1]);
    const double d = qi - c[v];
    curr[v] = d * d;
  }
  // Pass 2 (serial, carries curr[j-1]): cell values are sums of squares
  // (>= +0.0 or +inf), where equal doubles have equal bits, so taking
  // min(prev[j], prev[j-1]) before min(..., curr[j-1]) instead of the
  // scalar order is bit-identical.
  for (; j <= j_hi; ++j) {
    const double cost = curr[j];
    const double best = std::min(scratch[j], curr[j - 1]);
    curr[j] = best + cost;
    row_min = std::min(row_min, curr[j]);
  }
  return row_min;
}

}  // namespace

const KernelTable& Avx2Table() {
  static const KernelTable table = {
      &LbKeoghSqAvx2,      &EdBlockFullAvx2, &EnvMergeAvx2,
      &EnvMergeSeriesAvx2, &DtwRowAvx2,
  };
  return table;
}

}  // namespace internal
}  // namespace simd
}  // namespace rotind

#endif  // ROTIND_HAVE_AVX2_KERNELS

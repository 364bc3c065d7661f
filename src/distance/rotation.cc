#include "src/distance/rotation.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/distance/dtw.h"
#include "src/distance/euclidean.h"

namespace rotind {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Circular displacement of a left-shift k on length-n series.
int CircularDisplacement(int shift, std::size_t n) {
  const int k = shift;
  return std::min(k, static_cast<int>(n) - k);
}

}  // namespace

RotationSet::RotationSet(const Series& s, const RotationOptions& options)
    : n_(s.size()), doubled_(Doubled(s)) {
  if (options.mirror) {
    doubled_mirror_ = Doubled(Reversed(s));
  }
  const int n = static_cast<int>(n_);
  for (int shift = 0; shift < n; ++shift) {
    if (options.max_shift >= 0 &&
        CircularDisplacement(shift, n_) > options.max_shift) {
      continue;
    }
    items_.push_back({shift, false});
    if (options.mirror) items_.push_back({shift, true});
  }
}

const double* RotationSet::rotation(std::size_t idx) const {
  const Item& item = items_[idx];
  const Series& buf = item.mirrored ? doubled_mirror_ : doubled_;
  return buf.data() + item.shift;
}

Series RotationSet::Materialize(std::size_t idx) const {
  const double* p = rotation(idx);
  return Series(p, p + n_);
}

RotationMatch RotationInvariantEuclidean(const RotationSet& rots,
                                         const double* c,
                                         StepCounter* counter) {
  RotationMatch best{kInf, 0, false};
  for (std::size_t r = 0; r < rots.count(); ++r) {
    const double sq =
        SquaredEuclidean(rots.rotation(r), c, rots.length(), counter);
    if (counter != nullptr) ++counter->full_evals;
    if (sq < best.distance) {
      best.distance = sq;
      best.rotation_index = r;
    }
  }
  best.distance = std::sqrt(best.distance);
  return best;
}

RotationMatch EarlyAbandonRotationEuclidean(const RotationSet& rots,
                                            const double* c,
                                            double best_so_far,
                                            StepCounter* counter) {
  // Paper Table 2: bestSoFar starts at the caller's r and shrinks as better
  // rotations are found, feeding back into the early-abandon threshold.
  RotationMatch best{best_so_far, 0, true};
  double squared_best =
      std::isinf(best_so_far) ? kInf : best_so_far * best_so_far;
  for (std::size_t r = 0; r < rots.count(); ++r) {
    const double sq = EarlyAbandonSquaredEuclidean(
        rots.rotation(r), c, rots.length(), squared_best, counter);
    if (sq < squared_best) {
      squared_best = sq;
      best.distance = std::sqrt(sq);
      best.rotation_index = r;
      best.abandoned = false;
    }
  }
  if (best.abandoned) best.distance = kAbandoned;
  return best;
}

RotationMatch RotationInvariantDtw(const RotationSet& rots, const double* c,
                                   int band, StepCounter* counter) {
  RotationMatch best{kInf, 0, false};
  for (std::size_t r = 0; r < rots.count(); ++r) {
    const double d =
        DtwDistance(rots.rotation(r), c, rots.length(), band, counter);
    if (d < best.distance) {
      best.distance = d;
      best.rotation_index = r;
    }
  }
  return best;
}

RotationMatch EarlyAbandonRotationDtw(const RotationSet& rots, const double* c,
                                      int band, double best_so_far,
                                      StepCounter* counter) {
  RotationMatch best{best_so_far, 0, true};
  for (std::size_t r = 0; r < rots.count(); ++r) {
    const double d = EarlyAbandonDtw(rots.rotation(r), c, rots.length(), band,
                                     best.abandoned ? best_so_far
                                                    : best.distance,
                                     counter);
    if (!std::isinf(d) &&
        d < (best.abandoned ? best_so_far : best.distance)) {
      best.distance = d;
      best.rotation_index = r;
      best.abandoned = false;
    }
  }
  if (best.abandoned) best.distance = kAbandoned;
  return best;
}

RotationMatch RotationInvariantLcss(const RotationSet& rots, const double* c,
                                    const LcssOptions& options,
                                    StepCounter* counter) {
  RotationMatch best{kInf, 0, false};
  const std::size_t n = rots.length();
  for (std::size_t r = 0; r < rots.count(); ++r) {
    const std::size_t len =
        LcssLength(rots.rotation(r), c, n, options, counter);
    const double d =
        1.0 - static_cast<double>(len) / static_cast<double>(n == 0 ? 1 : n);
    if (d < best.distance) {
      best.distance = d;
      best.rotation_index = r;
    }
  }
  return best;
}

std::uint64_t AnalyticBruteForceSteps(std::uint64_t num_objects,
                                      std::size_t length,
                                      std::uint64_t rotations_per_object,
                                      DistanceKind kind, int band) {
  const std::uint64_t per_rotation =
      kind == DistanceKind::kEuclidean
          ? static_cast<std::uint64_t>(length)
          : DtwCellCount(length, band);
  return num_objects * rotations_per_object * per_rotation;
}

Status ValidateRotationPair(const Series& q, const Series& c) {
  if (q.empty() || c.empty()) {
    return Status::InvalidArgument("series must be non-empty");
  }
  if (q.size() != c.size()) {
    return Status::InvalidArgument(
        "length mismatch: q has " + std::to_string(q.size()) + ", c has " +
        std::to_string(c.size()));
  }
  return Status::Ok();
}

StatusOr<double> RotationInvariantEuclideanChecked(
    const Series& q, const Series& c, const RotationOptions& options,
    StepCounter* counter) {
  Status valid = ValidateRotationPair(q, c);
  if (!valid.ok()) return valid;
  return RotationInvariantEuclidean(q, c, options, counter);
}

StatusOr<double> RotationInvariantDtwChecked(const Series& q, const Series& c,
                                             int band,
                                             const RotationOptions& options,
                                             StepCounter* counter) {
  Status valid = ValidateRotationPair(q, c);
  if (!valid.ok()) return valid;
  return RotationInvariantDtw(q, c, band, options, counter);
}

StatusOr<double> RotationInvariantLcssChecked(const Series& q, const Series& c,
                                              const LcssOptions& lcss,
                                              const RotationOptions& options,
                                              StepCounter* counter) {
  Status valid = ValidateRotationPair(q, c);
  if (!valid.ok()) return valid;
  return RotationInvariantLcss(q, c, lcss, options, counter);
}

double RotationInvariantEuclidean(const Series& q, const Series& c,
                                  const RotationOptions& options,
                                  StepCounter* counter) {
  assert(q.size() == c.size());
  RotationSet rots(q, options);
  return RotationInvariantEuclidean(rots, c.data(), counter).distance;
}

double RotationInvariantDtw(const Series& q, const Series& c, int band,
                            const RotationOptions& options,
                            StepCounter* counter) {
  assert(q.size() == c.size());
  RotationSet rots(q, options);
  return RotationInvariantDtw(rots, c.data(), band, counter).distance;
}

double RotationInvariantLcss(const Series& q, const Series& c,
                             const LcssOptions& lcss,
                             const RotationOptions& options,
                             StepCounter* counter) {
  assert(q.size() == c.size());
  RotationSet rots(q, options);
  return RotationInvariantLcss(rots, c.data(), lcss, counter).distance;
}

}  // namespace rotind

#ifndef ROTIND_DISTANCE_ROTATION_H_
#define ROTIND_DISTANCE_ROTATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/series.h"
#include "src/core/status.h"
#include "src/core/step_counter.h"
#include "src/distance/lcss.h"
#include "src/distance/measure.h"

namespace rotind {

/// Which invariances a rotation-invariant query should respect (paper
/// Section 3, "Mirror Image Invariance" and "Rotation-Limited Invariance").
struct RotationOptions {
  /// Also match enantiomorphic (mirror-image) shapes: the candidate set
  /// additionally contains every rotation of the reversed series.
  bool mirror = false;
  /// Rotation-limited queries: only shifts with circular displacement
  /// min(k, n-k) <= max_shift are considered ("find the best match allowing
  /// a maximum rotation of 15 degrees" maps to max_shift = n*15/360).
  /// Negative means unlimited (all n rotations).
  int max_shift = -1;
};

/// The matrix C of the paper's Section 3: every rotation (circular shift) of
/// one series, optionally extended with mirror images and/or restricted to a
/// shift budget. Rotations are materialised zero-copy as windows into a
/// doubled buffer, so a RotationSet costs O(n) memory, not O(n^2).
class RotationSet {
 public:
  RotationSet(const Series& s, const RotationOptions& options);

  /// Length n of the underlying series.
  std::size_t length() const { return n_; }

  /// Number of candidate rotations (n, 2n with mirror, fewer when limited).
  std::size_t count() const { return items_.size(); }

  /// Pointer to the idx-th candidate: n contiguous doubles.
  const double* rotation(std::size_t idx) const;

  /// Left-shift amount of the idx-th candidate, in [0, n).
  int shift_of(std::size_t idx) const { return items_[idx].shift; }

  /// Whether the idx-th candidate comes from the mirrored series.
  bool mirrored_of(std::size_t idx) const { return items_[idx].mirrored; }

  /// Materialises the idx-th candidate as an owned Series (for callers that
  /// need a value, e.g. reporting the aligned match).
  Series Materialize(std::size_t idx) const;

 private:
  struct Item {
    int shift;
    bool mirrored;
  };

  std::size_t n_;
  Series doubled_;         ///< s ++ s
  Series doubled_mirror_;  ///< reverse(s) ++ reverse(s); empty unless mirror
  std::vector<Item> items_;
};

/// Result of a rotation-invariant comparison: the minimal distance and the
/// rotation (index into the RotationSet) that achieved it.
struct RotationMatch {
  double distance = 0.0;
  std::size_t rotation_index = 0;
  /// True when the comparison was abandoned against a best-so-far and the
  /// reported distance is only a lower bound witness (distance=kAbandoned).
  bool abandoned = false;
};

/// Brute-force rotation-invariant Euclidean distance, RED(Q, C) of the paper
/// (Table 2 without early abandoning): min over all candidates in `rots` of
/// ED(candidate, c).
RotationMatch RotationInvariantEuclidean(const RotationSet& rots,
                                         const double* c,
                                         StepCounter* counter = nullptr);

/// Paper Table 2: tests all rotations with early abandoning against
/// `best_so_far` (the calling scan's best match so far). Returns
/// abandoned=true when no rotation beat best_so_far.
RotationMatch EarlyAbandonRotationEuclidean(const RotationSet& rots,
                                            const double* c,
                                            double best_so_far,
                                            StepCounter* counter = nullptr);

/// Brute-force rotation-invariant DTW (full evaluation of every rotation).
RotationMatch RotationInvariantDtw(const RotationSet& rots, const double* c,
                                   int band, StepCounter* counter = nullptr);

/// Rotation-invariant DTW with early abandoning inside each DTW evaluation
/// and best-so-far propagation across rotations.
RotationMatch EarlyAbandonRotationDtw(const RotationSet& rots, const double* c,
                                      int band, double best_so_far,
                                      StepCounter* counter = nullptr);

/// Brute-force rotation-invariant LCSS distance (1 - max similarity over
/// rotations).
RotationMatch RotationInvariantLcss(const RotationSet& rots, const double* c,
                                    const LcssOptions& options,
                                    StepCounter* counter = nullptr);

/// Closed-form step counts of the deterministic (data-independent) rivals.
/// Brute force evaluates every cell of every rotation of every object, so
/// its `num_steps` needs no execution; benches use this to cost the
/// brute-force lines at paper scale without running hours of DP.
std::uint64_t AnalyticBruteForceSteps(std::uint64_t num_objects,
                                      std::size_t length,
                                      std::uint64_t rotations_per_object,
                                      DistanceKind kind, int band);

/// Convenience one-shot wrappers on owned series.
double RotationInvariantEuclidean(const Series& q, const Series& c,
                                  const RotationOptions& options = {},
                                  StepCounter* counter = nullptr);
double RotationInvariantDtw(const Series& q, const Series& c, int band,
                            const RotationOptions& options = {},
                            StepCounter* counter = nullptr);
double RotationInvariantLcss(const Series& q, const Series& c,
                             const LcssOptions& lcss,
                             const RotationOptions& options = {},
                             StepCounter* counter = nullptr);

/// Validates a rotation-invariant comparison pair: both series non-empty
/// and of equal length. The convenience wrappers above assert this in debug
/// builds; the Checked variants below return kInvalidArgument instead.
[[nodiscard]] Status ValidateRotationPair(const Series& q, const Series& c);

/// Validated public entry points over the one-shot wrappers.
[[nodiscard]] StatusOr<double> RotationInvariantEuclideanChecked(
    const Series& q, const Series& c, const RotationOptions& options = {},
    StepCounter* counter = nullptr);
[[nodiscard]] StatusOr<double> RotationInvariantDtwChecked(
    const Series& q, const Series& c, int band,
    const RotationOptions& options = {}, StepCounter* counter = nullptr);
[[nodiscard]] StatusOr<double> RotationInvariantLcssChecked(
    const Series& q, const Series& c, const LcssOptions& lcss,
    const RotationOptions& options = {}, StepCounter* counter = nullptr);

}  // namespace rotind

#endif  // ROTIND_DISTANCE_ROTATION_H_

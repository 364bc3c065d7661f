#ifndef ROTIND_SEARCH_SCAN_H_
#define ROTIND_SEARCH_SCAN_H_

#include <cstdint>
#include <vector>

#include "src/core/series.h"
#include "src/core/status.h"
#include "src/core/step_counter.h"
#include "src/search/hmerge.h"

namespace rotind {

/// The rival whole-database search algorithms compared throughout the
/// paper's Section 5 (Figures 19-23). All are EXACT: they return the same
/// best match (up to distance ties) — only the work differs.
enum class ScanAlgorithm {
  /// Test every rotation of every object in full, no early abandoning.
  /// For DTW this is the unconstrained full-matrix "Brute force" line.
  kBruteForce,
  /// DTW only: full evaluation with the Sakoe-Chiba band but no
  /// abandoning ("Brute force, R=5" in Figures 20/21/23).
  kBruteForceBanded,
  /// Paper Table 3: early-abandoning distance per rotation with
  /// best-so-far propagation.
  kEarlyAbandon,
  /// Euclidean only: rotation-invariant FFT-magnitude lower bound first
  /// (charged n*log2(n) steps per comparison as in Section 5.3), falling
  /// back to the early-abandoning rotation scan when the bound fails.
  kFftLowerBound,
  /// The paper's contribution: hierarchal wedges + H-Merge + dynamic K.
  kWedge,
};

/// Parameters shared by all scan algorithms.
struct ScanOptions {
  DistanceKind kind = DistanceKind::kEuclidean;
  /// Sakoe-Chiba band for DTW rivals other than kBruteForce.
  int band = 5;
  RotationOptions rotation;
  /// LCSS knobs, used only when kind == kLcss.
  LcssOptions lcss;
  /// Wedge-specific knobs. This is a WedgePolicy, not a WedgeSearchOptions:
  /// kind/band/rotation live only in the outer fields above, so a
  /// contradictory inner setting is a compile error rather than silently
  /// overridden.
  WedgePolicy wedge;
};

/// Outcome of a 1-nearest-neighbor database scan.
struct ScanResult {
  int best_index = -1;
  double best_distance = 0.0;
  /// Shift of the winning rotation, in [0, n).
  int best_shift = 0;
  /// Whether the winning alignment was against the mirrored query.
  bool best_mirrored = false;
  /// Work done, including setup (wedge build / query FFT).
  StepCounter counter;
};

/// Finds the rotation-invariant nearest neighbor of `query` in `db`
/// (paper Table 3 generalised over rival algorithms).
///
/// The Search/Knn/Range functions below are thin adapters over the layered
/// QueryEngine (src/search/engine.h): each ScanAlgorithm maps to a pruning
/// cascade via CascadeSpec::ForAlgorithm and runs through the engine's one
/// generic driver. New code should use QueryEngine directly.
ScanResult SearchDatabase(const std::vector<Series>& db, const Series& query,
                          ScanAlgorithm algorithm, const ScanOptions& options);

/// One neighbor of a k-NN / range result set.
struct Neighbor {
  int index = -1;
  double distance = 0.0;
  int shift = 0;
  bool mirrored = false;
};

/// k-nearest-neighbor scan (ascending by distance). Supported for
/// kBruteForce, kEarlyAbandon, and kWedge; the k-th best distance plays the
/// pruning role best-so-far plays in 1-NN. k < 1 returns an empty result.
std::vector<Neighbor> KnnSearchDatabase(const std::vector<Series>& db,
                                        const Series& query, int k,
                                        ScanAlgorithm algorithm,
                                        const ScanOptions& options,
                                        StepCounter* counter = nullptr);

/// Range query: every object within `radius` (ascending by distance).
std::vector<Neighbor> RangeSearchDatabase(const std::vector<Series>& db,
                                          const Series& query, double radius,
                                          ScanAlgorithm algorithm,
                                          const ScanOptions& options,
                                          StepCounter* counter = nullptr);

/// Validates the structural preconditions every scan shares: non-empty
/// query with finite values, and every database item matching the query's
/// length. Returns kInvalidArgument with an actionable message otherwise.
/// O(m + n); database VALUES are not scanned (a NaN payload yields defined
/// but meaningless distances — loaders reject NaN at the file boundary).
[[nodiscard]]
Status ValidateScanInputs(const std::vector<Series>& db, const Series& query,
                          const ScanOptions& options);

/// Checked variants of the scans below: the library's validated public
/// entry points. The unchecked functions document their preconditions and
/// assert them in debug builds; these return a Status instead, making
/// malformed input a recoverable error rather than undefined behavior.
[[nodiscard]]
StatusOr<ScanResult> SearchDatabaseChecked(const std::vector<Series>& db,
                                           const Series& query,
                                           ScanAlgorithm algorithm,
                                           const ScanOptions& options);

/// Also requires k >= 1.
[[nodiscard]] StatusOr<std::vector<Neighbor>> KnnSearchDatabaseChecked(
    const std::vector<Series>& db, const Series& query, int k,
    ScanAlgorithm algorithm, const ScanOptions& options,
    StepCounter* counter = nullptr);

/// Also requires a finite radius >= 0.
[[nodiscard]] StatusOr<std::vector<Neighbor>> RangeSearchDatabaseChecked(
    const std::vector<Series>& db, const Series& query, double radius,
    ScanAlgorithm algorithm, const ScanOptions& options,
    StepCounter* counter = nullptr);

/// Closed-form step counts of the deterministic (data-independent) rivals.
/// Brute force evaluates every cell of every rotation of every object, so
/// its `num_steps` needs no execution; benches use this to cost the
/// brute-force lines at paper scale without running hours of DP.
std::uint64_t AnalyticBruteForceSteps(std::uint64_t num_objects,
                                      std::size_t length,
                                      std::uint64_t rotations_per_object,
                                      DistanceKind kind, int band);

}  // namespace rotind

#endif  // ROTIND_SEARCH_SCAN_H_

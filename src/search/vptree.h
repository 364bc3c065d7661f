#ifndef ROTIND_SEARCH_VPTREE_H_
#define ROTIND_SEARCH_VPTREE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/step_counter.h"

namespace rotind {

/// A vantage-point tree over D-dimensional points under the L2 metric
/// (paper Table 7, adapted from reference [38]). The points are compressed
/// in-memory signatures (FFT magnitudes); the *true* rotation-invariant
/// distance is only available by fetching the full object, which the
/// caller does for every object a Walk yields.
///
/// Exactness contract: the L2 metric between signatures must lower-bound
/// the true distance. Then any subtree whose metric lower bound (via the
/// triangle inequality around its vantage point) reaches the caller's
/// threshold can be pruned without false dismissals.
class VpTree {
 public:
  /// Leaves hold at most this many points.
  static constexpr std::size_t kLeafSize = 8;

  /// Builds the tree over `points` (object id = position). `seed` drives
  /// vantage-point selection.
  explicit VpTree(std::vector<std::vector<double>> points,
                  std::uint64_t seed = 42);

  class Walk;

  std::size_t size() const { return points_.size(); }
  std::size_t dims() const { return points_.empty() ? 0 : points_[0].size(); }

 private:
  struct Node {
    int vantage = -1;      ///< object id of the vantage point
    double median = 0.0;   ///< split radius
    int left = -1;         ///< subtree of points with d(vp, p) <= median
    int right = -1;        ///< subtree of points with d(vp, p) > median
    std::vector<int> bucket;  ///< leaf entries (empty for internal nodes)
    bool is_leaf = false;
  };

  int BuildRecursive(std::vector<int>* ids, std::size_t lo, std::size_t hi,
                     class Rng* rng);

  std::vector<std::vector<double>> points_;
  std::vector<Node> nodes_;
  int root_ = -1;
};

/// One query's visit of the tree in Table 7 order, as an explicit-stack
/// cursor: the caller asks for the next object to refine, refines it
/// (fetch + exact distance), and passes its updated pruning threshold —
/// best-so-far for 1-NN, the k-th best for k-NN — to the next call. The
/// visit is exactly the classic recursion's:
///   - at a leaf, the entries are sorted by (bound, id) and visited until
///     the first bound >= threshold;
///   - an internal node's vantage point is refined when d_vp < threshold;
///   - the near child is always visited, the far child only when its
///     triangle-inequality bound is < threshold once the near subtree is
///     done.
/// The threshold must never grow between calls. Because the cursor never
/// calls back into the caller, its own work can be timed and attributed
/// separately from the refinement.
class VpTree::Walk {
 public:
  /// `query` must have dims() values (a mismatch aborts on every build
  /// type). `counter`, if given, is charged dims() steps per metric
  /// evaluation. The tree must outlive the walk.
  Walk(const VpTree& tree, std::vector<double> query, StepCounter* counter);

  /// Stores the next object to refine in `*id` and returns true, or
  /// returns false once everything left is pruned against `threshold`.
  bool Next(double threshold, int* id);

  /// Signature-metric evaluations performed so far.
  std::uint64_t metric_evals() const { return metric_evals_; }

 private:
  /// A subtree still to visit, if its lower bound beats the threshold
  /// when it is popped.
  struct Pending {
    int node;
    double bound;
  };

  double Metric(int id);

  const VpTree* tree_;
  std::vector<double> query_;
  StepCounter* counter_;
  std::vector<Pending> stack_;
  /// The current leaf's (bound, id) pairs, ascending; entries before
  /// `leaf_pos_` were already yielded or pruned.
  std::vector<std::pair<double, int>> leaf_;
  std::size_t leaf_pos_ = 0;
  std::uint64_t metric_evals_ = 0;
};

}  // namespace rotind

#endif  // ROTIND_SEARCH_VPTREE_H_

#include "src/search/vptree.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "src/core/random.h"

namespace rotind {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Mixed-dimensionality points would make this loop read past the shorter
/// buffer; the constructor and the query entry points reject them on all
/// build types, so equal sizes are an established invariant here.
double L2(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

[[noreturn]] void DieDimsMismatch(const char* what, std::size_t got,
                                  std::size_t want) {
  std::fprintf(stderr,
               "rotind: VpTree: %s has %zu dimensions, tree points have %zu; "
               "mixed-dimensionality points are not comparable\n",
               what, got, want);
  std::abort();
}

}  // namespace

VpTree::VpTree(std::vector<std::vector<double>> points, std::uint64_t seed)
    : points_(std::move(points)) {
  if (points_.empty()) return;
  // Hard invariant on every build type (the L2 metric reads both buffers up
  // to the first one's size): all points share one dimensionality.
  for (const std::vector<double>& p : points_) {
    if (p.size() != points_[0].size()) {
      DieDimsMismatch("a point", p.size(), points_[0].size());
    }
  }
  std::vector<int> ids(points_.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  Rng rng(seed);
  root_ = BuildRecursive(&ids, 0, ids.size(), &rng);
}

int VpTree::BuildRecursive(std::vector<int>* ids, std::size_t lo,
                           std::size_t hi, Rng* rng) {
  Node node;
  const std::size_t count = hi - lo;
  if (count <= kLeafSize) {
    node.is_leaf = true;
    node.bucket.assign(ids->begin() + static_cast<long>(lo),
                       ids->begin() + static_cast<long>(hi));
    nodes_.push_back(std::move(node));
    return static_cast<int>(nodes_.size()) - 1;
  }

  // Pick a random vantage point and move it to the front.
  const std::size_t pick = lo + rng->NextBounded(count);
  std::swap((*ids)[lo], (*ids)[pick]);
  const int vp = (*ids)[lo];

  // Partition the remainder by distance to the vantage point.
  const std::size_t mid = lo + 1 + (count - 1) / 2;
  std::nth_element(ids->begin() + static_cast<long>(lo) + 1,
                   ids->begin() + static_cast<long>(mid),
                   ids->begin() + static_cast<long>(hi), [&](int a, int b) {
                     return L2(points_[static_cast<std::size_t>(a)],
                               points_[static_cast<std::size_t>(vp)]) <
                            L2(points_[static_cast<std::size_t>(b)],
                               points_[static_cast<std::size_t>(vp)]);
                   });
  node.vantage = vp;
  node.median = L2(points_[static_cast<std::size_t>((*ids)[mid])],
                   points_[static_cast<std::size_t>(vp)]);

  const int self = static_cast<int>(nodes_.size());
  nodes_.push_back(node);
  const int left = BuildRecursive(ids, lo + 1, mid + 1, rng);
  const int right = (mid + 1 < hi) ? BuildRecursive(ids, mid + 1, hi, rng)
                                   : -1;
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

VpTree::Walk::Walk(const VpTree& tree, std::vector<double> query,
                   StepCounter* counter)
    : tree_(&tree), query_(std::move(query)), counter_(counter) {
  if (tree.root_ < 0) return;
  if (query_.size() != tree.dims()) {
    DieDimsMismatch("the query", query_.size(), tree.dims());
  }
  stack_.push_back({tree.root_, -kInf});
}

double VpTree::Walk::Metric(int id) {
  ++metric_evals_;
  AddSteps(counter_, query_.size());
  return L2(tree_->points_[static_cast<std::size_t>(id)], query_);
}

bool VpTree::Walk::Next(double threshold, int* id) {
  for (;;) {
    if (leaf_pos_ < leaf_.size()) {
      const auto [bound, entry] = leaf_[leaf_pos_++];
      if (bound < threshold) {
        *id = entry;
        return true;
      }
      leaf_pos_ = leaf_.size();  // every later bound is at least as large
      continue;
    }
    if (stack_.empty()) return false;
    const Pending pending = stack_.back();
    stack_.pop_back();
    if (!(pending.bound < threshold)) continue;
    const Node& node = tree_->nodes_[static_cast<std::size_t>(pending.node)];

    if (node.is_leaf) {
      // Table 7 leaf handling: signature lower bounds, visited in ascending
      // order, refined only while they beat the current threshold.
      leaf_.clear();
      leaf_pos_ = 0;
      for (int entry : node.bucket) leaf_.emplace_back(Metric(entry), entry);
      std::sort(leaf_.begin(), leaf_.end());
      continue;
    }

    // Triangle-inequality pruning via |d_vp - d(vp, p)|: the near side is
    // always reachable (bound -inf); the far side only if the query sits
    // within threshold of the splitting shell once the near side is done.
    // Since the metric lower-bounds the true distance, a pruned subtree
    // cannot improve the result set.
    const double d_vp = Metric(node.vantage);
    const bool near_left = d_vp <= node.median;
    const int first = near_left ? node.left : node.right;
    const int second = near_left ? node.right : node.left;
    const double second_bound =
        near_left ? node.median - d_vp : d_vp - node.median;
    if (second >= 0) stack_.push_back({second, second_bound});
    if (first >= 0) stack_.push_back({first, -kInf});
    if (d_vp < threshold) {
      *id = node.vantage;
      return true;
    }
  }
}

}  // namespace rotind

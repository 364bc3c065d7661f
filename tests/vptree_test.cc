#include "src/search/vptree.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/core/random.h"

namespace rotind {
namespace {

std::vector<std::vector<double>> RandomPoints(Rng* rng, std::size_t m,
                                              std::size_t dims) {
  std::vector<std::vector<double>> pts(m, std::vector<double>(dims));
  for (auto& p : pts) {
    for (double& v : p) v = rng->Gaussian(0.0, 1.0);
  }
  return pts;
}

double L2(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

struct NnResult {
  int best_id = -1;
  double best_distance = std::numeric_limits<double>::infinity();
  std::uint64_t metric_evals = 0;
  std::uint64_t refine_calls = 0;
};

/// Exact 1-NN driven through a Walk, as the engine drives it: refine every
/// object the walk yields (`refine(id, threshold)` returns the true
/// distance, or +inf when it cannot beat the threshold) and hand the
/// best-so-far back as the next threshold.
template <typename Refine>
NnResult NearestNeighbor(const VpTree& tree, const std::vector<double>& query,
                         const Refine& refine,
                         StepCounter* counter = nullptr) {
  NnResult r;
  VpTree::Walk walk(tree, query, counter);
  int id;
  while (walk.Next(r.best_distance, &id)) {
    ++r.refine_calls;
    const double d = refine(id, r.best_distance);
    if (d < r.best_distance) {
      r.best_distance = d;
      r.best_id = id;
    }
  }
  r.metric_evals = walk.metric_evals();
  return r;
}

TEST(VpTreeTest, ExactNnUnderPureMetric) {
  // refine == the metric itself: the tree must find the true L2 NN.
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t m = 50 + rng.NextBounded(100);
    const std::size_t dims = 2 + rng.NextBounded(10);
    const auto pts = RandomPoints(&rng, m, dims);
    VpTree tree(pts, /*seed=*/trial);

    const auto q = RandomPoints(&rng, 1, dims)[0];
    const auto refine = [&](int id, double) {
      return L2(pts[static_cast<std::size_t>(id)], q);
    };
    const NnResult r = NearestNeighbor(tree, q, refine);

    int expected = 0;
    double best = L2(pts[0], q);
    for (std::size_t i = 1; i < m; ++i) {
      const double d = L2(pts[i], q);
      if (d < best) {
        best = d;
        expected = static_cast<int>(i);
      }
    }
    EXPECT_EQ(r.best_id, expected);
    EXPECT_NEAR(r.best_distance, best, 1e-12);
  }
}

TEST(VpTreeTest, ExactNnWhenTrueDistanceExceedsMetric) {
  // The real contract: the metric is only a LOWER BOUND of the refined
  // distance. Here true(id) = metric * stretch(id) with stretch >= 1; the
  // tree must still return argmin of the TRUE distance.
  Rng rng(2);
  const std::size_t m = 120;
  const std::size_t dims = 6;
  const auto pts = RandomPoints(&rng, m, dims);
  std::vector<double> stretch(m);
  for (double& s : stretch) s = 1.0 + rng.NextDouble() * 3.0;
  VpTree tree(pts, 7);

  for (int trial = 0; trial < 10; ++trial) {
    const auto q = RandomPoints(&rng, 1, dims)[0];
    const auto true_dist = [&](int id) {
      return L2(pts[static_cast<std::size_t>(id)], q) *
             stretch[static_cast<std::size_t>(id)];
    };
    const auto refine = [&](int id, double threshold) {
      const double d = true_dist(id);
      return d < threshold ? d : std::numeric_limits<double>::infinity();
    };
    const NnResult r = NearestNeighbor(tree, q, refine);

    double best = std::numeric_limits<double>::infinity();
    int expected = -1;
    for (std::size_t i = 0; i < m; ++i) {
      if (true_dist(static_cast<int>(i)) < best) {
        best = true_dist(static_cast<int>(i));
        expected = static_cast<int>(i);
      }
    }
    EXPECT_EQ(r.best_id, expected);
    EXPECT_NEAR(r.best_distance, best, 1e-12);
  }
}

TEST(VpTreeTest, PrunesRefineCalls) {
  // On clustered data the tree should refine far fewer than m objects.
  Rng rng(3);
  const std::size_t m = 500;
  const std::size_t dims = 4;
  auto pts = RandomPoints(&rng, m, dims);
  VpTree tree(pts, 11);
  const auto q = pts[42];  // query equal to a stored point
  const auto refine = [&](int id, double threshold) {
    const double d = L2(pts[static_cast<std::size_t>(id)], q);
    return d < threshold ? d : std::numeric_limits<double>::infinity();
  };
  const NnResult r = NearestNeighbor(tree, q, refine);
  EXPECT_EQ(r.best_id, 42);
  EXPECT_LT(r.refine_calls, m / 2);
}

TEST(VpTreeTest, SinglePointAndEmpty) {
  VpTree empty({}, 1);
  const NnResult none =
      NearestNeighbor(empty, {}, [](int, double) { return 0.0; });
  EXPECT_EQ(none.best_id, -1);

  VpTree one({{1.0, 2.0}}, 1);
  const NnResult r =
      NearestNeighbor(one, {1.0, 2.5}, [](int, double) { return 0.5; });
  EXPECT_EQ(r.best_id, 0);
  EXPECT_DOUBLE_EQ(r.best_distance, 0.5);
}

TEST(VpTreeTest, DuplicatePointsHandled) {
  std::vector<std::vector<double>> pts(20, std::vector<double>{1.0, 1.0});
  pts[13] = {5.0, 5.0};
  VpTree tree(pts, 3);
  const std::vector<double> q = {5.1, 5.1};
  const auto refine = [&](int id, double threshold) {
    const double d = L2(pts[static_cast<std::size_t>(id)], q);
    return d < threshold ? d : std::numeric_limits<double>::infinity();
  };
  const NnResult r = NearestNeighbor(tree, q, refine);
  EXPECT_EQ(r.best_id, 13);
}

TEST(VpTreeTest, CounterChargesMetricEvals) {
  Rng rng(4);
  const auto pts = RandomPoints(&rng, 64, 8);
  VpTree tree(pts, 5);
  const auto q = RandomPoints(&rng, 1, 8)[0];
  StepCounter counter;
  const NnResult r = NearestNeighbor(
      tree, q,
      [&](int id, double) { return L2(pts[static_cast<std::size_t>(id)], q); },
      &counter);
  EXPECT_EQ(counter.steps, r.metric_evals * 8);
}

}  // namespace
}  // namespace rotind

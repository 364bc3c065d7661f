/// Quickstart: rotation-invariant shape search in five steps.
///
///   1. Make (or load) shapes as bitmaps.
///   2. Convert them to centroid-distance time series (paper Figure 2).
///   3. Put the series in a contiguous FlatDataset and build a QueryEngine
///      over it.
///   4. Ask for the nearest neighbour of a rotated query with the wedge
///      cascade — exact, orders of magnitude faster than brute force.
///   5. Read back which object won, at which rotation, and at what cost.

#include <cstdio>

#include "src/core/flat_dataset.h"
#include "src/core/random.h"
#include "src/datasets/synthetic.h"
#include "src/distance/rotation.h"
#include "src/search/engine.h"
#include "src/shape/generate.h"
#include "src/shape/profile.h"

int main() {
  using namespace rotind;
  const std::size_t n = 128;  // time-series length per shape

  // 1-2. Ten random shapes, rasterised and converted to series. (Real
  // applications would call ShapeToSeries on scanned images; the generator
  // stands in for a scanner here.)
  Rng rng(7);
  FlatDataset database;
  for (int i = 0; i < 10; ++i) {
    const RadialShapeSpec spec = RandomShapeSpec(&rng, 7);
    const Bitmap image = Bitmap::FromPolygon(RadialPolygon(spec, 360), 128);
    database.Add(ShapeToSeries(image, n));
  }

  // 3. The query: object #4, rotated by 100 degrees (as a bitmap!).
  const RadialShapeSpec spec = RandomShapeSpec(&rng, 7);
  Rng replay(7);
  Bitmap query_image(1, 1);
  for (int i = 0; i <= 4; ++i) {
    const RadialShapeSpec s = RandomShapeSpec(&replay, 7);
    if (i == 4) {
      query_image = Bitmap::FromPolygon(RadialPolygon(s, 360), 128)
                        .Rotated(100.0 * 3.14159265 / 180.0);
    }
  }
  const Series query = ShapeToSeries(query_image, n);

  // 4. Exact rotation-invariant 1-NN through the QueryEngine's wedge
  // cascade. EngineOptions single-source the measure (set options.kind for
  // DTW) and the pruning pipeline; batches of queries can run over a worker
  // pool with engine.SearchBatch(queries, num_threads).
  EngineOptions options;  // Euclidean, cascade = {kWedge} by default
  const QueryEngine engine(database, options);
  const ScanResult hit = engine.Search(query);

  // 5. Results.
  std::printf("best match: object %d\n", hit.best_index);
  std::printf("distance:   %.4f\n", hit.best_distance);
  std::printf("alignment:  shift %d of %zu (%.0f degrees)%s\n",
              hit.best_shift, n, 360.0 * hit.best_shift / n,
              hit.best_mirrored ? ", mirrored" : "");
  std::printf("work:       %llu steps (brute force: %llu)\n",
              static_cast<unsigned long long>(hit.counter.total_steps()),
              static_cast<unsigned long long>(
                  AnalyticBruteForceSteps(database.size(), n, n,
                                          DistanceKind::kEuclidean, 0)));
  return hit.best_index == 4 ? 0 : 1;
}

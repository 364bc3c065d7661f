/// Star light curve indexing (paper Section 2.4): folded periods of
/// periodic variable stars have no natural starting point, so finding
/// similar stars means comparing every circular shift — the same problem
/// as rotation-invariant shape matching, solved by the same index.
///
/// This example builds a disk-backed index over a synthetic survey,
/// queries it with new observations, and reports class hits plus how
/// little of the "disk" was touched.

#include <cstdio>

#include "src/core/flat_dataset.h"
#include "src/core/random.h"
#include "src/lightcurve/lightcurve.h"
#include "src/obs/metrics.h"
#include "src/search/engine.h"

int main() {
  using namespace rotind;
  const std::size_t n = 256;
  const std::size_t per_class = 200;

  // A labelled "survey": 600 stars of three variability classes, each
  // folded at a random phase.
  LightCurveOptions gen;
  gen.noise_sigma = 0.03;
  gen.shape_jitter = 0.03;
  const Dataset survey =
      MakeLightCurveDataset(per_class, n, /*seed=*/2006, gen);

  // The paper's disk index: a VP-tree over FFT-magnitude signatures picks
  // which curves to fetch from a simulated paged disk.
  const FlatDataset flat = FlatDataset::FromDataset(survey);
  EngineOptions options;
  options.kind = DistanceKind::kEuclidean;
  options.index_dims = 16;  // FFT-magnitude signature dimensionality
  options.cascade.stages = {StageKind::kSignatureIndex, StageKind::kWedge};
  options.storage.backend = storage::BackendKind::kSimulated;
  StatusOr<std::unique_ptr<QueryEngine>> opened =
      QueryEngine::Open(options, &flat);
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot build the index: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  const QueryEngine& index = **opened;

  std::printf("indexed %zu light curves (n=%zu, D=%zu)\n\n",
              index.database_size(), n, options.index_dims);
  std::printf("%-18s %-18s %10s %14s\n", "query class", "matched class",
              "distance", "disk fraction");

  Rng rng(99);
  const VariableStarClass classes[] = {VariableStarClass::kEclipsingBinary,
                                       VariableStarClass::kRrLyrae,
                                       VariableStarClass::kCepheid};
  int correct = 0;
  const int num_queries = 9;
  for (int q = 0; q < num_queries; ++q) {
    const VariableStarClass cls = classes[q % 3];
    const Series query = GenerateLightCurve(cls, n, &rng, gen);
    obs::QueryMetrics metrics;
    const ScanResult result = index.Search(query, &metrics);
    const int matched_label =
        survey.labels[static_cast<std::size_t>(result.best_index)];
    std::printf("%-18s %-18s %10.4f %13.1f%%\n", ToString(cls).c_str(),
                survey.names[static_cast<std::size_t>(result.best_index)]
                    .substr(0, 15)
                    .c_str(),
                result.best_distance,
                100.0 * static_cast<double>(metrics.index.object_fetches) /
                    static_cast<double>(index.database_size()));
    if (matched_label == q % 3) ++correct;
  }
  std::printf("\n%d / %d queries matched a star of their own class\n",
              correct, num_queries);
  return correct >= 8 ? 0 : 1;
}

/// Rotation-limited and mirror-image queries (paper Section 3):
///
///   * "Find the best match allowing a maximum rotation of 15 degrees" —
///     how a "6" is retrieved without also retrieving "9"s (which are just
///     rotated "6"s).
///   * Mirror-image invariance — how a "d" matches a "b" only when
///     enantiomorphic matching is requested.
///
/// Everything runs through the same exact wedge search; the invariance is
/// purely a property of the candidate rotation set.

#include <cstdio>
#include <string>

#include "src/core/flat_dataset.h"
#include "src/core/random.h"
#include "src/search/engine.h"
#include "src/shape/generate.h"

int main() {
  using namespace rotind;
  const std::size_t n = 120;
  Rng rng(42);

  // A tiny database: upright "6"s with small tilts, upside-down "6"s
  // (i.e. "9"s), and unrelated blobs.
  const Series six = ZNormalized(RadialProfile(DigitSixSpec(), n));
  std::vector<Series> db;
  std::vector<std::string> labels;
  for (int tilt : {-8, 5, 9}) {  // degrees
    db.push_back(RotateLeft(six, tilt * static_cast<long>(n) / 360));
    labels.push_back("six (tilt " + std::to_string(tilt) + " deg)");
  }
  for (int tilt : {176, 183}) {
    db.push_back(RotateLeft(six, tilt * static_cast<long>(n) / 360));
    labels.push_back("nine (tilt " + std::to_string(tilt - 180) + " deg)");
  }
  for (int i = 0; i < 3; ++i) {
    db.push_back(ZNormalized(RadialProfile(RandomShapeSpec(&rng, 7), n)));
    labels.push_back("blob " + std::to_string(i));
  }

  const FlatDataset flat = FlatDataset::FromItems(db);
  const Series query = six;

  std::printf("query: an upright '6'\n\n");
  {
    const QueryEngine unlimited(flat);  // wedge cascade, every rotation
    const auto knn = unlimited.Knn(query, 5);
    std::printf("unrestricted rotation invariance (sixes and nines tie):\n");
    for (const Neighbor& nb : knn) {
      std::printf("  %-22s d=%.4f\n",
                  labels[static_cast<std::size_t>(nb.index)].c_str(),
                  nb.distance);
    }
  }
  int sixes_in_top3 = 0;
  {
    EngineOptions limited;
    limited.rotation.max_shift = static_cast<int>(n) * 15 / 360;  // 15 deg
    const auto knn = QueryEngine(flat, limited).Knn(query, 3);
    std::printf("\nrotation-limited to +/-15 degrees (only sixes remain "
                "close):\n");
    for (const Neighbor& nb : knn) {
      std::printf("  %-22s d=%.4f\n",
                  labels[static_cast<std::size_t>(nb.index)].c_str(),
                  nb.distance);
      if (labels[static_cast<std::size_t>(nb.index)].rfind("six", 0) == 0 &&
          nb.distance < 0.5) {
        ++sixes_in_top3;
      }
    }
  }

  // Mirror: a chiral butterfly ("d") and its reversal ("b").
  const Series d_shape =
      ZNormalized(RadialProfile(ButterflySpec(&rng, 0.2), n));
  const Series b_shape = Reversed(d_shape);
  const FlatDataset letters = FlatDataset::FromItems({b_shape});
  EngineOptions mirror;
  mirror.rotation.mirror = true;
  const double without = QueryEngine(letters).Search(d_shape).best_distance;
  const double with =
      QueryEngine(letters, mirror).Search(d_shape).best_distance;
  std::printf("\n'd' vs 'b': distance %.4f without mirror invariance, "
              "%.4f with it\n",
              without, with);

  const bool ok = sixes_in_top3 == 3 && with < 1e-6 && without > 0.1;
  return ok ? 0 : 1;
}

#ifndef ROTIND_TESTS_TESTING_COMPOSITIONS_H_
#define ROTIND_TESTS_TESTING_COMPOSITIONS_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "src/search/engine.h"

namespace rotind {
namespace testing {

/// One cascade composition under test: its stages and the width of its
/// vec-signature filter. At n/2 the filter is the paper's FFT-magnitude
/// bound (Section 4.2), so {kVecSignature, kExactScan} at n/2 is the
/// paper's FFT rival scan.
struct Composition {
  std::vector<StageKind> stages;
  std::size_t vec_sig_dims = EngineOptions().vec_sig_dims;

  /// `options` running this composition.
  EngineOptions Into(EngineOptions options) const {
    options.cascade.stages = stages;
    options.vec_sig_dims = vec_sig_dims;
    return options;
  }

  bool Has(StageKind kind) const {
    return std::find(stages.begin(), stages.end(), kind) != stages.end();
  }

  /// "vecsig@20+wedge": the stages, with the filter's width, for labels.
  std::string Name() const {
    std::string name;
    for (StageKind s : stages) {
      if (!name.empty()) name += "+";
      switch (s) {
        case StageKind::kSignatureIndex: name += "index"; break;
        case StageKind::kVecSignature:
          name += "vecsig@";
          name += std::to_string(vec_sig_dims);
          break;
        case StageKind::kWedge: name += "wedge"; break;
        case StageKind::kExactScan: name += "ea"; break;
        case StageKind::kFullScan: name += "full"; break;
        case StageKind::kFullScanBanded: name += "full-banded"; break;
      }
    }
    return name;
  }
};

}  // namespace testing
}  // namespace rotind

#endif  // ROTIND_TESTS_TESTING_COMPOSITIONS_H_

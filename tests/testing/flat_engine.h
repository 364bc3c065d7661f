#ifndef ROTIND_TESTS_TESTING_FLAT_ENGINE_H_
#define ROTIND_TESTS_TESTING_FLAT_ENGINE_H_

#include <utility>
#include <vector>

#include "src/core/flat_dataset.h"
#include "src/core/series.h"
#include "src/search/engine.h"

namespace rotind {
namespace testing {

/// A QueryEngine together with the FlatDataset it borrows, for tests whose
/// database starts out as a std::vector<Series>. The rows are copied once;
/// the engine is the library's, configured only through EngineOptions.
class FlatEngine {
 public:
  explicit FlatEngine(const std::vector<Series>& items,
                      const EngineOptions& options = {})
      : flat_(FlatDataset::FromItems(items)), engine_(flat_, options) {}
  FlatEngine(const FlatEngine&) = delete;
  FlatEngine& operator=(const FlatEngine&) = delete;

  const QueryEngine* operator->() const { return &engine_; }

 private:
  FlatDataset flat_;  // declared first: engine_ borrows it
  QueryEngine engine_;
};

/// `options` with `stages` as its cascade.
inline EngineOptions WithStages(EngineOptions options,
                                std::vector<StageKind> stages) {
  options.cascade.stages = std::move(stages);
  return options;
}

}  // namespace testing
}  // namespace rotind

#endif  // ROTIND_TESTS_TESTING_FLAT_ENGINE_H_

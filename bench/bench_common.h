#ifndef ROTIND_BENCH_BENCH_COMMON_H_
#define ROTIND_BENCH_BENCH_COMMON_H_

/// Shared infrastructure for the figure/table reproduction benches.
///
/// Methodology follows the paper's Section 5.3:
///  * cost = implementation-free step counts (real-value subtractions);
///  * queries are randomly chosen database objects, removed from the
///    database for the duration of their query;
///  * reported numbers are "average steps for a single comparison of two
///    shapes, divided by the steps required by brute force" — i.e. the
///    y-axis of Figures 19-23;
///  * brute-force rivals are data-independent, so their counts are computed
///    in closed form (validated against actual runs in the test suite).
///
/// Scale: `ROTIND_BENCH_SCALE=full` reproduces the paper's sizes;
/// the default is a laptop-friendly reduction with the same curve shapes.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/flat_dataset.h"
#include "src/core/random.h"
#include "src/core/series.h"
#include "src/distance/rotation.h"
#include "src/search/engine.h"

namespace rotind::bench {

inline bool FullScale() {
  const char* env = std::getenv("ROTIND_BENCH_SCALE");
  return env != nullptr && std::strcmp(env, "full") == 0;
}

/// A query drawn from the database: the object is excluded while it is the
/// query (paper Section 5.3).
struct QuerySet {
  std::vector<std::size_t> query_indices;
};

inline QuerySet PickQueries(std::size_t database_size, std::size_t count,
                            std::uint64_t seed) {
  QuerySet qs;
  Rng rng(seed);
  for (std::size_t i = 0; i < count && database_size > 1; ++i) {
    qs.query_indices.push_back(rng.NextBounded(database_size));
  }
  return qs;
}

/// FlatDataset over the first m objects of db (contiguous engine storage).
inline FlatDataset RestrictFlat(const std::vector<Series>& db,
                                std::size_t m) {
  FlatDataset out;
  for (std::size_t i = 0; i < m && i < db.size(); ++i) {
    const Status added = out.Add(db[i]);
    if (!added.ok()) {
      std::fprintf(stderr, "object %zu: %s\n", i, added.ToString().c_str());
      std::exit(2);
    }
  }
  return out;
}

/// Average steps per object comparison for one rival (the cascade in
/// `options`) across the query set, on the first m objects of db. Runs
/// through the QueryEngine: the database prefix is stored once as a
/// FlatDataset, and a query drawn from the prefix is excluded via the
/// engine's leave-one-out scan instead of copying the database minus one
/// item per query.
inline double AverageStepsPerComparison(const std::vector<Series>& db,
                                        std::size_t m, const QuerySet& queries,
                                        const EngineOptions& options) {
  const FlatDataset flat = RestrictFlat(db, m);
  const QueryEngine engine(flat, options);
  const std::size_t no_holdout = flat.size();  // skips nothing
  double total = 0.0;
  std::uint64_t comparisons = 0;
  for (std::size_t qi : queries.query_indices) {
    const std::size_t holdout = qi < m ? qi : no_holdout;
    const ScanResult r = engine.SearchLeaveOneOut(db[qi], holdout);
    total += static_cast<double>(r.counter.total_steps());
    comparisons += flat.size() - (holdout < flat.size() ? 1 : 0);
  }
  return comparisons == 0 ? 0.0 : total / static_cast<double>(comparisons);
}

/// Closed-form steps/comparison of the data-independent rivals.
inline double BruteStepsPerComparison(std::size_t n, std::size_t rotations,
                                      DistanceKind kind, int band) {
  return static_cast<double>(
      AnalyticBruteForceSteps(1, n, rotations, kind, band));
}

/// Prints one row of a relative-performance table.
inline void PrintRow(std::size_t m, const std::vector<double>& relative,
                     const std::vector<const char*>& names) {
  std::printf("%8zu", m);
  for (std::size_t i = 0; i < relative.size(); ++i) {
    std::printf("  %12.6f", relative[i]);
  }
  std::printf("\n");
  (void)names;
}

inline void PrintHeader(const char* title,
                        const std::vector<const char*>& names) {
  std::printf("%s\n", title);
  std::printf("%8s", "m");
  for (const char* name : names) std::printf("  %12s", name);
  std::printf("\n");
}

}  // namespace rotind::bench

#endif  // ROTIND_BENCH_BENCH_COMMON_H_

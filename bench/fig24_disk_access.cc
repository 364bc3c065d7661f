/// Reproduces Figure 24 — the fraction of items retrieved from disk to
/// answer an exact rotation-invariant 1-NN query, for signature
/// dimensionalities D in {4, 8, 16, 32}, on the Projectile Points and
/// Heterogeneous databases, under both Euclidean distance (VP-tree over
/// FFT-magnitude signatures, paper Table 7) and DTW (PAA candidate scan,
/// see DESIGN.md substitutions) — and extends it across storage backends:
/// every configuration runs once against the paper-parity SimulatedBackend
/// (in-memory data, counted page touches) and once against a real paged
/// RIDX file behind a BufferPool (built with BuildIndexFile), both through
/// QueryEngine's {kSignatureIndex, kWedge} cascade. Both backends must
/// return bit-identical neighbors; the bench exits nonzero if they ever
/// disagree.
///
///   fig24_disk_access [BENCH_storage.json]
///
/// The JSON records, per workload x D x measure: object fetches, page
/// reads, pool hit rate, eviction and byte counts, and wall time for each
/// backend — the numbers CI archives next to BENCH_scan.json.
///
/// Expected shape: small fetch fractions (the paper shows <= ~12%),
/// decreasing as D grows, with DTW retrieving somewhat more than
/// Euclidean; the file backend's page reads track the simulated backend's
/// up to pool reuse (hits cost no read).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/flat_dataset.h"
#include "src/datasets/synthetic.h"
#include "src/index/index_io.h"
#include "src/obs/metrics.h"
#include "src/search/engine.h"
#include "src/storage/backend.h"

namespace rotind::bench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// BufferPool capacity for the file-backed runs: deliberately much smaller
/// than the data section (2000 x 251 doubles spans ~1000 4KiB pages) so
/// eviction pressure is real and the hit rate is informative.
constexpr std::size_t kPoolPages = 128;

/// Queries are noisy rotations of database members (querying the member
/// itself would hand the index a distance-0 nearest neighbour and make
/// pruning degenerate; removing the member per query would force an index
/// rebuild, so a perturbed copy stands in for the paper's
/// removed-from-database protocol). Materialized once per (workload, D) so
/// the simulated and file runs see byte-identical queries.
std::vector<Series> MakeNoisyQueries(const std::vector<Series>& db,
                                     const QuerySet& queries,
                                     std::size_t dims) {
  Rng rng(4242 + dims);
  std::vector<Series> out;
  out.reserve(queries.query_indices.size());
  for (std::size_t qi : queries.query_indices) {
    Series q = RotateLeft(db[qi],
                          static_cast<long>(rng.NextBounded(db[qi].size())));
    for (double& v : q) v += rng.Gaussian(0.0, 0.05);
    ZNormalize(&q);
    out.push_back(std::move(q));
  }
  return out;
}

/// Accumulated I/O accounting for one (backend, configuration) run, plus
/// the per-query answers so the two backends can be diffed exactly.
struct BackendRun {
  std::uint64_t object_fetches = 0;
  std::uint64_t page_reads = 0;
  double fetch_fraction_sum = 0.0;
  double wall_seconds = 0.0;
  std::vector<int> best_index;
  std::vector<double> best_distance;
};

BackendRun RunQueries(const QueryEngine& engine,
                      const std::vector<Series>& queries) {
  BackendRun run;
  const auto t0 = Clock::now();
  for (const Series& q : queries) {
    obs::QueryMetrics metrics;
    const ScanResult r = engine.Search(q, &metrics);
    run.object_fetches += metrics.index.object_fetches;
    run.page_reads += metrics.index.page_reads;
    run.fetch_fraction_sum +=
        static_cast<double>(metrics.index.object_fetches) /
        static_cast<double>(engine.database_size());
    run.best_index.push_back(r.best_index);
    run.best_distance.push_back(r.best_distance);
  }
  run.wall_seconds = Seconds(t0, Clock::now());
  return run;
}

/// One row of the storage comparison: a (workload, D, measure) cell run on
/// both backends.
struct StorageRow {
  std::string workload;
  std::string kind;
  std::size_t dims = 0;
  std::size_t queries = 0;
  BackendRun simulated;
  BackendRun file;
  storage::PoolCounters pool;
  bool identical = false;
};

double PoolHitRate(const storage::PoolCounters& c) {
  const std::uint64_t pins = c.hits + c.misses;
  return pins == 0 ? 0.0
                   : static_cast<double>(c.hits) / static_cast<double>(pins);
}

int Run(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_storage.json";
  const bool full = FullScale();
  const std::size_t num_queries = full ? 50 : 10;
  const std::vector<std::size_t> dims_list = {4, 8, 16, 32};

  struct Workload {
    const char* name;
    std::vector<Series> db;
    int band;
  };
  std::vector<Workload> workloads;
  {
    const std::size_t m = full ? 16000 : 2000;
    workloads.push_back(
        {"Projectile Points", MakeProjectilePointsDatabase(m, 251, 24), 5});
  }
  {
    const std::size_t m = full ? 5844 : 1000;
    const std::size_t n = full ? 1024 : 512;
    workloads.push_back(
        {"Heterogeneous", MakeHeterogeneousDatabase(m, n, 240), 5});
  }

  std::printf("Figure 24: fraction of objects retrieved from disk "
              "(%zu queries%s)\n\n",
              num_queries, full ? ", full scale" : "");
  bool all_identical = true;
  std::vector<StorageRow> rows;
  for (const Workload& w : workloads) {
    std::printf("%s (m=%zu, n=%zu)\n", w.name, w.db.size(),
                w.db.empty() ? 0 : w.db[0].size());
    std::printf("  %6s  %18s  %18s\n", "D", "Wedge: Euclidean", "Wedge: DTW");
    const QuerySet queries = PickQueries(w.db.size(), num_queries, 124);

    const std::string index_path = out_path + ".ridx";
    Dataset dataset;
    dataset.items = w.db;
    const FlatDataset flat = FlatDataset::FromItems(w.db);
    for (std::size_t dims : dims_list) {
      // One RIDX file per (workload, D): it carries both signature
      // families, so the Euclidean and DTW file runs share it.
      IndexBuildOptions build;
      build.sig_dims = dims;
      build.paa_dims = dims;
      const Status built = BuildIndexFile(dataset, build, index_path);
      if (!built.ok()) {
        std::fprintf(stderr, "index build failed: %s\n",
                     built.message().c_str());
        return 1;
      }

      const std::vector<Series> noisy =
          MakeNoisyQueries(w.db, queries, dims);
      std::vector<double> table_fractions;
      for (const DistanceKind kind :
           {DistanceKind::kEuclidean, DistanceKind::kDtw}) {
        EngineOptions options;
        options.kind = kind;
        options.band = w.band;
        options.index_dims = dims;
        options.cascade.stages = {StageKind::kSignatureIndex,
                                  StageKind::kWedge};

        StorageRow row;
        row.workload = w.name;
        row.kind = DistanceKindName(kind);
        row.dims = dims;
        row.queries = noisy.size();
        EngineOptions sim_options = options;
        sim_options.storage.backend = storage::BackendKind::kSimulated;
        EngineOptions file_options = options;
        file_options.storage.backend = storage::BackendKind::kFile;
        file_options.storage.index_path = index_path;
        file_options.storage.pool_pages = kPoolPages;
        auto simulated = QueryEngine::Open(sim_options, &flat);
        auto file = QueryEngine::Open(file_options);
        if (!simulated.ok() || !file.ok()) {
          std::fprintf(stderr, "index open failed: %s\n",
                       (simulated.ok() ? file.status() : simulated.status())
                           .message()
                           .c_str());
          return 1;
        }
        row.simulated = RunQueries(**simulated, noisy);
        row.file = RunQueries(**file, noisy);
        row.pool =
            static_cast<const storage::FileBackend*>((*file)->backend())
                ->pool()
                .counters();
        row.identical =
            row.simulated.best_index == row.file.best_index &&
            row.simulated.best_distance == row.file.best_distance;
        if (!row.identical) {
          std::fprintf(stderr,
                       "%s D=%zu %s: file backend DISAGREES with simulated "
                       "backend\n",
                       row.workload.c_str(), dims, row.kind.c_str());
          all_identical = false;
        }
        table_fractions.push_back(
            row.simulated.fetch_fraction_sum /
            static_cast<double>(row.queries));
        rows.push_back(std::move(row));
      }
      std::printf("  %6zu  %18.6f  %18.6f\n", dims, table_fractions[0],
                  table_fractions[1]);
    }
    std::remove(index_path.c_str());
    std::printf("\n");
  }

  std::printf("Storage backends (pool=%zu pages)\n", kPoolPages);
  std::printf("  %-18s %4s %10s  %10s %9s  %10s %8s %9s\n", "workload", "D",
              "kind", "sim pages", "sim s", "file pages", "hit rate",
              "file s");
  for (const StorageRow& r : rows) {
    std::printf("  %-18s %4zu %10s  %10llu %9.3f  %10llu %8.3f %9.3f%s\n",
                r.workload.c_str(), r.dims, r.kind.c_str(),
                static_cast<unsigned long long>(r.simulated.page_reads),
                r.simulated.wall_seconds,
                static_cast<unsigned long long>(r.file.page_reads),
                PoolHitRate(r.pool), r.file.wall_seconds,
                r.identical ? "" : "  MISMATCH");
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"scale\": \"%s\", \"queries\": %zu, \"pool_pages\": "
               "%zu,\n",
               full ? "full" : "quick", num_queries, kPoolPages);
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const StorageRow& r = rows[i];
    std::fprintf(
        out,
        "    {\"workload\": \"%s\", \"kind\": \"%s\", \"dims\": %zu, "
        "\"queries\": %zu, \"identical\": %s,\n"
        "     \"simulated\": {\"object_fetches\": %llu, \"page_reads\": "
        "%llu, \"fetch_fraction\": %.6f, \"wall_seconds\": %.6f},\n"
        "     \"file\": {\"object_fetches\": %llu, \"page_reads\": %llu, "
        "\"pool_hits\": %llu, \"pool_misses\": %llu, \"pool_evictions\": "
        "%llu, \"pool_hit_rate\": %.6f, \"bytes_read\": %llu, "
        "\"wall_seconds\": %.6f}}%s\n",
        r.workload.c_str(), r.kind.c_str(), r.dims, r.queries,
        r.identical ? "true" : "false",
        static_cast<unsigned long long>(r.simulated.object_fetches),
        static_cast<unsigned long long>(r.simulated.page_reads),
        r.simulated.fetch_fraction_sum / static_cast<double>(r.queries),
        r.simulated.wall_seconds,
        static_cast<unsigned long long>(r.file.object_fetches),
        static_cast<unsigned long long>(r.file.page_reads),
        static_cast<unsigned long long>(r.pool.hits),
        static_cast<unsigned long long>(r.pool.misses),
        static_cast<unsigned long long>(r.pool.evictions),
        PoolHitRate(r.pool),
        static_cast<unsigned long long>(r.pool.bytes_read),
        r.file.wall_seconds, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace rotind::bench

int main(int argc, char** argv) { return rotind::bench::Run(argc, argv); }

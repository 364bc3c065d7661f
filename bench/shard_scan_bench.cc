/// Sharded-index benchmark with machine-readable output.
///
/// Measures the three properties the sharded index promises:
///
///  1. Shard scaling — 1-NN latency over the same database split into
///     1/2/4/8 shards, with every answer cross-checked against the 1-shard
///     run (exactness is never traded for speed).
///  2. Step invariance — a sharded query is one engine over the
///     concatenated live rows, so the aggregate implementation-free step
///     count is the same at every split; a split whose total differs from
///     the 1-shard run's means the shards are no longer searched as one
///     database.
///  3. Compaction throughput — rows/second for folding a delta segment
///     (inserts + tombstones) into a fresh single-shard generation via
///     BuildIndexFile + atomic manifest swap.
///
/// Exits nonzero when any split's answers or total_steps differ from the
/// 1-shard run's.
///
///   shard_scan_bench [BENCH_shard.json]
///
/// Scale: ROTIND_BENCH_SCALE=full for paper-sized inputs.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/datasets/synthetic.h"
#include "src/index/index_io.h"
#include "src/index/sharded_index.h"
#include "src/storage/manifest.h"

namespace rotind::bench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct ShardRow {
  std::size_t shards = 0;
  double wall_seconds = 0.0;
  std::uint64_t total_steps = 0;
  bool answers_match_reference = true;
  bool steps_match_reference = true;
};

/// Builds an uneven contiguous shard split of `db` and publishes its
/// manifest. Returns the manifest path.
std::string BuildShardSet(const std::vector<Series>& db,
                          const std::string& dir, std::size_t shards,
                          const IndexBuildOptions& build) {
  const std::string manifest_path =
      dir + "/s" + std::to_string(shards) + ".rman";
  storage::Manifest manifest;
  manifest.generation = 1;
  const std::size_t per = db.size() / shards;
  const std::size_t extra = db.size() % shards;
  std::size_t row = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t count = per + (s < extra ? 1 : 0);
    // Appended piecewise: `"literal" + std::string` trips GCC 12's
    // -Wrestrict false positive (bug 105329) inside std::string::insert.
    std::string file = "s";
    file += std::to_string(shards);
    file += '-';
    file += std::to_string(s);
    file += ".ridx";
    Dataset part;
    part.items.assign(db.begin() + static_cast<std::ptrdiff_t>(row),
                      db.begin() + static_cast<std::ptrdiff_t>(row + count));
    const Status built = BuildIndexFile(part, build, dir + "/" + file);
    if (!built.ok()) {
      std::fprintf(stderr, "shard build failed: %s\n",
                   built.ToString().c_str());
      std::exit(1);
    }
    manifest.shards.push_back(storage::ManifestShard{
        file, static_cast<std::uint64_t>(count), db[0].size()});
    row += count;
  }
  const Status wrote = storage::WriteManifest(manifest, manifest_path);
  if (!wrote.ok()) {
    std::fprintf(stderr, "manifest write failed: %s\n",
                 wrote.ToString().c_str());
    std::exit(1);
  }
  return manifest_path;
}

int Run(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_shard.json";
  const bool full = FullScale();
  const std::size_t n = full ? 251 : 64;
  const std::size_t m = full ? 4000 : 400;
  const std::size_t num_queries = full ? 40 : 12;
  const std::size_t delta_rows = full ? 200 : 40;

  const std::vector<Series> db = MakeProjectilePointsDatabase(m, n, 2006);
  const std::vector<Series> extra =
      MakeProjectilePointsDatabase(delta_rows, n, 2007);
  const QuerySet qs = PickQueries(m, num_queries, 42);

  const std::string dir =
      "/tmp/rotind_shard_bench." + std::to_string(::getpid());
  std::string cleanup = "rm -rf " + dir + " && mkdir -p " + dir;
  if (std::system(cleanup.c_str()) != 0) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    return 1;
  }

  IndexBuildOptions build;
  build.sig_dims = 8;
  build.paa_dims = 8;
  build.page_size_bytes = 4096;

  // Reference answers and steps: 1 shard — definitionally the monolithic
  // engine over the whole database.
  std::vector<ScanResult> reference;
  std::vector<ShardRow> rows;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const std::string manifest = BuildShardSet(db, dir, shards, build);
    ShardedOptions options;
    options.pool_pages = 64;
    auto opened = ShardedIndex::Open(manifest, options);
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    ShardRow row;
    row.shards = shards;
    const Clock::time_point t0 = Clock::now();
    std::vector<ScanResult> answers;
    for (const std::size_t qi : qs.query_indices) {
      auto r = (*opened)->Search(db[qi]);
      if (!r.ok()) {
        std::fprintf(stderr, "search failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
      row.total_steps += r->counter.total_steps();
      answers.push_back(*std::move(r));
    }
    row.wall_seconds = Seconds(t0, Clock::now());
    if (reference.empty()) {
      reference = answers;
    } else {
      for (std::size_t i = 0; i < answers.size(); ++i) {
        if (answers[i].best_index != reference[i].best_index ||
            answers[i].best_distance != reference[i].best_distance) {
          row.answers_match_reference = false;
        }
      }
      row.steps_match_reference = row.total_steps == rows.front().total_steps;
    }
    std::printf("  %zu shard%s  %.4f s  steps=%llu  exact=%s  same_steps=%s\n",
                shards, shards == 1 ? " " : "s", row.wall_seconds,
                static_cast<unsigned long long>(row.total_steps),
                row.answers_match_reference ? "yes" : "NO",
                row.steps_match_reference ? "yes" : "NO");
    rows.push_back(row);
  }

  // Compaction throughput: stage the delta, fold it into generation 2.
  const std::string manifest4 = dir + "/s4.rman";
  ShardedOptions compact_options;
  auto compact_index = ShardedIndex::Open(manifest4, compact_options);
  if (!compact_index.ok()) return 1;
  for (const Series& s : extra) {
    if (!(*compact_index)->Insert(s).ok()) return 1;
  }
  for (std::uint64_t id = 0; id < delta_rows / 2; ++id) {
    if (!(*compact_index)->Remove(id * 2).ok()) return 1;
  }
  const std::size_t live = (*compact_index)->live_size();
  const Clock::time_point c0 = Clock::now();
  auto generation = (*compact_index)->Compact(build);
  const double compact_seconds = Seconds(c0, Clock::now());
  if (!generation.ok()) {
    std::fprintf(stderr, "compaction failed: %s\n",
                 generation.status().ToString().c_str());
    return 1;
  }
  const double rows_per_second =
      compact_seconds > 0.0 ? static_cast<double>(live) / compact_seconds
                            : 0.0;
  std::printf("  compaction: %zu live rows -> generation %llu in %.4f s "
              "(%.0f rows/s)\n",
              live, static_cast<unsigned long long>(*generation),
              compact_seconds, rows_per_second);

  bool all_exact = true;
  bool all_same_steps = true;
  for (const ShardRow& row : rows) {
    all_exact = all_exact && row.answers_match_reference;
    all_same_steps = all_same_steps && row.steps_match_reference;
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"dataset\": {\"generator\": \"projectile-points\", "
               "\"m\": %zu, \"n\": %zu, \"queries\": %zu},\n",
               m, n, num_queries);
  std::fprintf(out, "  \"shard_scaling\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out,
                 "    {\"shards\": %zu, \"wall_seconds\": %.6f, "
                 "\"total_steps\": %llu, \"exact\": %s, "
                 "\"same_steps\": %s}%s\n",
                 rows[i].shards, rows[i].wall_seconds,
                 static_cast<unsigned long long>(rows[i].total_steps),
                 rows[i].answers_match_reference ? "true" : "false",
                 rows[i].steps_match_reference ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"compaction\": {\"live_rows\": %zu, \"delta_inserts\": "
               "%zu, \"tombstones\": %zu, \"generation\": %llu, "
               "\"wall_seconds\": %.6f, \"rows_per_second\": %.1f},\n",
               live, extra.size(), delta_rows / 2,
               static_cast<unsigned long long>(*generation), compact_seconds,
               rows_per_second);
  std::fprintf(out, "  \"all_exact\": %s,\n", all_exact ? "true" : "false");
  std::fprintf(out, "  \"all_same_steps\": %s\n",
               all_same_steps ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  std::string remove = "rm -rf " + dir;
  (void)std::system(remove.c_str());
  return all_exact && all_same_steps ? 0 : 1;
}

}  // namespace
}  // namespace rotind::bench

int main(int argc, char** argv) { return rotind::bench::Run(argc, argv); }

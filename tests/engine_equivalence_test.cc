/// Cross-algorithm equivalence property (the paper's exactness claim,
/// Propositions 1-2): every engine cascade composition is EXACT, so on any
/// database they must return the same best distance (and, up to ties, the
/// same index) as brute force — for 1-NN, k-NN, and range queries, under
/// Euclidean and DTW, with and without mirror invariance, on shapes and on
/// light curves.

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/core/flat_dataset.h"
#include "src/core/random.h"
#include "src/datasets/synthetic.h"
#include "src/fourier/spectral.h"
#include "src/index/index_io.h"
#include "src/index/sharded_index.h"
#include "src/lightcurve/lightcurve.h"
#include "src/search/engine.h"
#include "src/storage/backend.h"
#include "src/storage/manifest.h"
#include "tests/testing/compositions.h"

namespace rotind {
namespace {

using testing::Composition;

struct Workload {
  std::string name;
  std::vector<Series> items;
  std::vector<std::size_t> queries;
};

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;
  out.push_back({"shapes", MakeProjectilePointsDatabase(24, 40, 301),
                 {0, 7, 15}});
  out.push_back(
      {"lightcurves", MakeLightCurveDataset(6, 40, 302).items, {1, 9}});
  out.push_back({"heterogeneous", MakeHeterogeneousDatabase(20, 40, 303),
                 {2, 11}});
  return out;
}

/// All cascade compositions worth checking over series of length `n`,
/// beyond the paper's rival scans: the vec-signature filter in front of
/// each terminal, at n/2 (the FFT-magnitude bound) and at the default
/// width. Under DTW the unbanded kFullScan computes a genuinely different
/// (unconstrained) distance, so the full-scan terminal is the banded one
/// there.
std::vector<Composition> MakeCascades(DistanceKind kind, std::size_t n) {
  std::vector<Composition> out;
  out.push_back({{kind == DistanceKind::kDtw ? StageKind::kFullScanBanded
                                             : StageKind::kFullScan}});
  out.push_back({{StageKind::kExactScan}});
  out.push_back({{StageKind::kWedge}});
  // Vec-signature pre-filter (normalization drops it under DTW — the
  // degenerate cascades double as a check that the drop preserves
  // exactness).
  out.push_back({{StageKind::kVecSignature, StageKind::kExactScan}, n / 2});
  out.push_back({{StageKind::kVecSignature, StageKind::kWedge}, n / 2});
  out.push_back({{StageKind::kVecSignature, StageKind::kExactScan}});
  // The paper's disk index: the signature visit (VP-tree under ED, LB_PAA
  // order under DTW) in front of the wedge terminal and of the plain
  // early-abandoning scan, which builds its own wedges for the PAA bound.
  out.push_back({{StageKind::kSignatureIndex, StageKind::kWedge}});
  out.push_back({{StageKind::kSignatureIndex, StageKind::kExactScan}});
  return out;
}

class EngineEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<DistanceKind, bool>> {};

TEST_P(EngineEquivalenceTest, AllCompositionsAgreeWithBruteForce) {
  const DistanceKind kind = std::get<0>(GetParam());
  const bool mirror = std::get<1>(GetParam());

  for (const Workload& w : MakeWorkloads()) {
    const FlatDataset flat = FlatDataset::FromItems(w.items);

    EngineOptions reference_options;
    reference_options.kind = kind;
    reference_options.band = 4;
    reference_options.rotation.mirror = mirror;
    reference_options.cascade.stages = {kind == DistanceKind::kDtw
                                            ? StageKind::kFullScanBanded
                                            : StageKind::kFullScan};
    const QueryEngine reference(flat, reference_options);

    for (std::size_t qi : w.queries) {
      const Series query = w.items[qi];
      const ScanResult ref = reference.SearchLeaveOneOut(query, qi);
      const auto ref_knn = reference.KnnLeaveOneOut(query, 3, qi);
      ASSERT_EQ(ref_knn.size(), 3u);
      const double radius = ref_knn.back().distance * 1.01;
      const auto ref_range = reference.Range(query, radius);

      for (const Composition& c : MakeCascades(kind, flat.length())) {
        const QueryEngine engine(flat, c.Into(reference_options));
        const std::string label = w.name + "/" + DistanceKindName(kind) +
                                  (mirror ? "/mirror" : "") + "/" +
                                  c.Name() + "/q" + std::to_string(qi);

        // 1-NN: same best distance; same index unless tied.
        const ScanResult got = engine.SearchLeaveOneOut(query, qi);
        EXPECT_NEAR(got.best_distance, ref.best_distance, 1e-9) << label;
        // A different winner is only legal at (numerically) the same
        // distance — i.e. a tie; the distance assertion above covers it.

        // k-NN: same multiset of distances, rank by rank.
        const auto knn = engine.KnnLeaveOneOut(query, 3, qi);
        ASSERT_EQ(knn.size(), ref_knn.size()) << label;
        for (std::size_t r = 0; r < knn.size(); ++r) {
          EXPECT_NEAR(knn[r].distance, ref_knn[r].distance, 1e-9)
              << label << " rank " << r;
        }

        // Range: same hit count, same sorted distances.
        const auto range = engine.Range(query, radius);
        ASSERT_EQ(range.size(), ref_range.size()) << label;
        for (std::size_t r = 0; r < range.size(); ++r) {
          EXPECT_NEAR(range[r].distance, ref_range[r].distance, 1e-9)
              << label << " hit " << r;
        }
      }

      // The paper's rival scans over the rows with the query removed, as
      // a plain Search instead of a leave-one-out scan.
      std::vector<Series> rest;
      for (std::size_t i = 0; i < w.items.size(); ++i) {
        if (i != qi) rest.push_back(w.items[i]);
      }
      const FlatDataset rest_flat = FlatDataset::FromItems(rest);
      std::vector<Composition> rivals = {
          {{StageKind::kFullScanBanded}},
          {{StageKind::kExactScan}},
          {{StageKind::kVecSignature, StageKind::kExactScan},
           rest_flat.length() / 2},
          {{StageKind::kWedge}}};
      if (kind != DistanceKind::kDtw) {
        // kFullScan under DTW is the unconstrained warp — a different
        // value than the banded reference, exact for every other kind.
        rivals.push_back({{StageKind::kFullScan}});
      }
      for (const Composition& c : rivals) {
        const ScanResult got =
            QueryEngine(rest_flat, c.Into(reference_options)).Search(query);
        EXPECT_NEAR(got.best_distance, ref.best_distance, 1e-9)
            << w.name << "/" << DistanceKindName(kind) << " rival "
            << c.Name();
      }
    }
  }
}

/// LCSS rides the same cascade: the wedge terminal (similarity-domain
/// pruning with the distance-threshold conversion) must agree with the
/// full rotation scan of 1 - LcssLength/n.
TEST(EngineEquivalenceLcssTest, WedgeCascadeMatchesFullScan) {
  for (bool mirror : {false, true}) {
    const std::vector<Series> items =
        MakeProjectilePointsDatabase(18, 36, 501);
    const FlatDataset flat = FlatDataset::FromItems(items);
    EngineOptions options;
    options.kind = DistanceKind::kLcss;
    options.lcss.epsilon = 0.3;
    options.lcss.delta = 4;
    options.rotation.mirror = mirror;

    EngineOptions full = options;
    full.cascade.stages = {StageKind::kFullScan};
    EngineOptions wedge = options;
    wedge.cascade.stages = {StageKind::kWedge};
    EngineOptions ea = options;
    ea.cascade.stages = {StageKind::kExactScan};

    const QueryEngine full_engine(flat, full);
    const QueryEngine wedge_engine(flat, wedge);
    const QueryEngine ea_engine(flat, ea);
    for (std::size_t qi : {0u, 5u, 11u}) {
      const Series& query = items[qi];
      const ScanResult ref = full_engine.SearchLeaveOneOut(query, qi);
      const ScanResult got_wedge = wedge_engine.SearchLeaveOneOut(query, qi);
      const ScanResult got_ea = ea_engine.SearchLeaveOneOut(query, qi);
      EXPECT_NEAR(got_wedge.best_distance, ref.best_distance, 1e-12)
          << "wedge q" << qi << (mirror ? " mirror" : "");
      EXPECT_NEAR(got_ea.best_distance, ref.best_distance, 1e-12)
          << "ea q" << qi << (mirror ? " mirror" : "");
    }
  }
}

/// Storage backends are invisible to exactness: for every cascade and
/// measure, engines fetching candidates from the simulated-disk backend
/// and from a real paged RIDX file return BIT-IDENTICAL results (same
/// indexes, same distances with ==, same step counts) as the default
/// in-memory borrow — for 1-NN, k-NN, and range queries. This is the
/// acceptance gate for the storage engine: a backend may change I/O
/// accounting, never answers. The signature index reads the file's
/// sections and embeds the other two backends' series at the same width,
/// so all three visit identically. The file stores 4 FFT columns, fewer
/// than either vec-signature width, so its engine embeds each candidate
/// like the simulated one, priced as the memory engine's rows are (one
/// FFT per candidate); VecSignatureBackendTest covers a file wide enough
/// to serve the filter stored rows.
class BackendEquivalenceTest
    : public ::testing::TestWithParam<DistanceKind> {};

TEST_P(BackendEquivalenceTest, AllBackendsReturnBitIdenticalResults) {
  const DistanceKind kind = GetParam();
  const std::vector<Series> items =
      MakeProjectilePointsDatabase(20, 36, 601);
  const FlatDataset flat = FlatDataset::FromItems(items);

  Dataset ds;
  ds.items = items;
  IndexBuildOptions build;
  build.sig_dims = 4;
  build.paa_dims = 4;
  build.page_size_bytes = 128;  // 36 doubles = 288 bytes: extents straddle
  const std::string path = "/tmp/rotind_equiv_test." +
                           std::to_string(::getpid()) + ".ridx";
  ASSERT_TRUE(BuildIndexFile(ds, build, path).ok());

  for (const Composition& c : MakeCascades(kind, flat.length())) {
    EngineOptions options;
    options.kind = kind;
    options.band = 4;
    options.index_dims = 4;  // the RIDX signature widths above
    options = c.Into(options);

    const QueryEngine memory(flat, options);

    EngineOptions sim_options = options;
    sim_options.storage.backend = storage::BackendKind::kSimulated;
    sim_options.storage.page_size_bytes = 128;
    auto simulated = QueryEngine::Open(sim_options, &flat);
    ASSERT_TRUE(simulated.ok()) << simulated.status().message();

    EngineOptions file_options = options;
    file_options.storage.backend = storage::BackendKind::kFile;
    file_options.storage.index_path = path;
    file_options.storage.pool_pages = 3;  // smaller than any working set
    auto file = QueryEngine::Open(file_options);
    ASSERT_TRUE(file.ok()) << file.status().message();

    const QueryEngine* engines[] = {simulated->get(), file->get()};
    for (const std::size_t qi : {0u, 9u, 17u}) {
      const Series& query = items[qi];
      const ScanResult ref = memory.SearchLeaveOneOut(query, qi);
      const auto ref_knn = memory.KnnLeaveOneOut(query, 3, qi);
      const double radius = ref_knn.back().distance * 1.01;
      const auto ref_range = memory.Range(query, radius);

      for (const QueryEngine* engine : engines) {
        const std::string label =
            std::string(DistanceKindName(kind)) + "/" + c.Name() + "/" +
            engine->backend()->name() + "/q" + std::to_string(qi);

        const ScanResult got = engine->SearchLeaveOneOut(query, qi);
        EXPECT_EQ(got.best_index, ref.best_index) << label;
        EXPECT_EQ(got.best_distance, ref.best_distance) << label;
        EXPECT_EQ(got.counter.total_steps(), ref.counter.total_steps())
            << label;

        const auto knn = engine->KnnLeaveOneOut(query, 3, qi);
        ASSERT_EQ(knn.size(), ref_knn.size()) << label;
        for (std::size_t r = 0; r < knn.size(); ++r) {
          EXPECT_EQ(knn[r].index, ref_knn[r].index) << label << " rank " << r;
          EXPECT_EQ(knn[r].distance, ref_knn[r].distance)
              << label << " rank " << r;
        }

        const auto range = engine->Range(query, radius);
        ASSERT_EQ(range.size(), ref_range.size()) << label;
        for (std::size_t r = 0; r < range.size(); ++r) {
          EXPECT_EQ(range[r].index, ref_range[r].index)
              << label << " hit " << r;
          EXPECT_EQ(range[r].distance, ref_range[r].distance)
              << label << " hit " << r;
        }
      }
    }
  }
  std::remove(path.c_str());
}

/// The vec-signature filter compares the first d = min(vec_sig_dims, n/2)
/// FFT-magnitude bins on every backend, so it prunes the same candidates
/// everywhere: the memory engine's lazily built rows, the simulated
/// engine's per-candidate embedding and a file's stored FFT section (16
/// columns here) give identical answers and identical vec_signature
/// candidate flow for 1-NN, k-NN and range queries at widths 4 and 8
/// (read from the file's first columns) and n/2 = 32 (wider than the
/// file, so its engine embeds each candidate). Steps differ only by the
/// price of a stored row: d instead of one FFT.
TEST(VecSignatureBackendTest, EveryBackendFiltersAtTheConfiguredWidth) {
  const std::size_t n = 64;
  const std::vector<Series> items = MakeProjectilePointsDatabase(40, n, 611);
  const FlatDataset flat = FlatDataset::FromItems(items);
  // Noisy rotations of database rows, then new shapes.
  Rng rng(613);
  std::vector<Series> queries;
  for (const std::size_t i : {3u, 18u, 33u}) {
    Series q = RotateLeft(items[i], static_cast<long>(rng.NextBounded(n)));
    for (double& v : q) v += rng.Gaussian(0.0, 0.05);
    queries.push_back(std::move(q));
  }
  for (const Series& fresh : MakeProjectilePointsDatabase(2, n, 612)) {
    queries.push_back(fresh);
  }

  Dataset ds;
  ds.items = items;
  IndexBuildOptions build;
  build.sig_dims = 16;
  build.paa_dims = 4;
  build.page_size_bytes = 256;
  const std::string path = "/tmp/rotind_vecsig_backend_test." +
                           std::to_string(::getpid()) + ".ridx";
  ASSERT_TRUE(BuildIndexFile(ds, build, path).ok());

  std::uint64_t pruned_anywhere = 0;
  for (const std::size_t width : {std::size_t{4}, std::size_t{8}, n / 2}) {
    EngineOptions options;
    options.cascade.stages = {StageKind::kVecSignature, StageKind::kWedge};
    options.vec_sig_dims = width;
    const QueryEngine memory(flat, options);
    EngineOptions sim_options = options;
    sim_options.storage.backend = storage::BackendKind::kSimulated;
    auto simulated = QueryEngine::Open(sim_options, &flat);
    ASSERT_TRUE(simulated.ok()) << simulated.status().message();
    EngineOptions file_options = options;
    file_options.storage.backend = storage::BackendKind::kFile;
    file_options.storage.index_path = path;
    auto file = QueryEngine::Open(file_options);
    ASSERT_TRUE(file.ok()) << file.status().message();

    // What one filter lookup costs above a stored row's d steps.
    const std::uint64_t row_discount =
        width <= build.sig_dims ? FftStepCost(n) - width : 0;
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const Series& query = queries[qi];
      const std::vector<Neighbor> ref_knn = memory.Knn(query, 3);
      const double radius = ref_knn.back().distance * 1.05;

      // Each query kind through one engine: its answers as (index,
      // distance) pairs, the filter's candidate flow and the steps.
      struct Run {
        std::vector<std::pair<int, double>> answers;
        obs::StageStats filter;
        std::uint64_t steps = 0;
      };
      const auto run = [&](const QueryEngine& engine, int query_kind) {
        Run out;
        obs::QueryMetrics metrics;
        StepCounter counter;
        std::vector<Neighbor> hits;
        if (query_kind == 0) {
          const ScanResult r = engine.Search(query, &metrics);
          hits.push_back({r.best_index, r.best_distance, r.best_shift,
                          r.best_mirrored});
          counter = r.counter;
        } else if (query_kind == 1) {
          hits = engine.Knn(query, 3, &counter, &metrics);
        } else {
          hits = engine.Range(query, radius, &counter, &metrics);
        }
        for (const Neighbor& h : hits) {
          out.answers.emplace_back(h.index, h.distance);
        }
        out.filter = metrics.stage(obs::StageId::kVecSignature);
        out.steps = counter.total_steps();
        return out;
      };
      for (int query_kind = 0; query_kind < 3; ++query_kind) {
        const char* kinds[] = {"1-NN", "k-NN", "range"};
        const std::string label = std::string(kinds[query_kind]) +
                                  " width " + std::to_string(width) +
                                  " query " + std::to_string(qi);
        const Run want = run(memory, query_kind);
        ASSERT_FALSE(want.answers.empty()) << label;
        pruned_anywhere += want.filter.candidates_pruned;
        const Run sim = run(**simulated, query_kind);
        const Run got = run(**file, query_kind);
        for (const Run* r : {&sim, &got}) {
          EXPECT_EQ(r->answers, want.answers) << label;
          EXPECT_EQ(r->filter.candidates_entered,
                    want.filter.candidates_entered)
              << label;
          EXPECT_EQ(r->filter.candidates_pruned, want.filter.candidates_pruned)
              << label;
          EXPECT_EQ(r->filter.candidates_survived,
                    want.filter.candidates_survived)
              << label;
        }
        EXPECT_EQ(sim.steps, want.steps) << label;
        EXPECT_EQ(got.steps + row_discount * want.filter.candidates_entered,
                  want.steps)
            << label;
      }
    }
  }
  // The filter pruned somewhere, so the flow comparison is not vacuous.
  EXPECT_GT(pruned_anywhere, 0u);
  std::remove(path.c_str());
}

/// Sharding is invisible to exactness: a ShardedIndex over ANY shard
/// split of the database — with or without a delta segment and
/// tombstones — answers 1-NN, k-NN, and range queries identically to one
/// monolithic in-memory engine over the same live rows, for every
/// cascade and measure: rows, distances, shifts and mirror flags, and
/// step counts (one engine over the concatenated view). Two inputs: a
/// tie-free database, and one holding exact copies of both query rows in
/// another shard and in the delta, so 1-NN and k = 3 tie at distance 0
/// across parts and the reported row is decided by visit order alone.
///
/// A SnapshotView holds no resident signatures, so a sharded index
/// cascade visits in id order, running the stages after the index stage —
/// as the monolithic engine runs the cascade without it. The monolithic
/// index cascade walks its signatures instead, and reports another row
/// among exact ties; against it only distances are compared.
class ShardEquivalenceTest : public ::testing::TestWithParam<DistanceKind> {};

TEST_P(ShardEquivalenceTest, ShardedMatchesMonolithicOverLiveRows) {
  const DistanceKind kind = GetParam();
  const std::vector<Series> base = MakeProjectilePointsDatabase(21, 36, 701);
  const std::vector<Series> extra = MakeProjectilePointsDatabase(4, 36, 702);
  constexpr std::size_t kQueries[] = {2, 13};
  IndexBuildOptions build;
  build.sig_dims = 4;
  build.paa_dims = 4;
  build.page_size_bytes = 256;

  std::vector<std::string> scratch_files;
  for (const bool ties : {false, true}) {
    // The tie input puts the copy of base[13] first and the copy of
    // base[2] last, so at every split of two or more shards each copy
    // lands in a different shard than its original.
    std::vector<Series> rows = base;
    std::vector<Series> inserts = extra;
    if (ties) {
      rows.insert(rows.begin(), base[13]);
      rows.push_back(base[2]);
      for (const std::size_t qi : kQueries) inserts.push_back(base[qi]);
    }
    const std::string input = ties ? "ties" : "distinct";
    for (const std::size_t shard_count : {1u, 2u, 4u, 7u}) {
      // Uneven contiguous split: the first `extra_rows` shards take one
      // more.
      const std::string stem = "rotind_shardeq." +
                               std::to_string(::getpid()) + "." +
                               std::string(DistanceKindName(kind)) + "." +
                               input + ".s" + std::to_string(shard_count);
      const std::string manifest_path = "/tmp/" + stem + ".rman";
      scratch_files.push_back(manifest_path);
      storage::Manifest manifest;
      manifest.generation = 1;
      std::size_t row = 0;
      const std::size_t per = rows.size() / shard_count;
      const std::size_t extra_rows = rows.size() % shard_count;
      for (std::size_t s = 0; s < shard_count; ++s) {
        const std::size_t count = per + (s < extra_rows ? 1 : 0);
        const std::string file = stem + "." + std::to_string(s) + ".ridx";
        Dataset part;
        part.items.assign(rows.begin() + static_cast<std::ptrdiff_t>(row),
                          rows.begin() +
                              static_cast<std::ptrdiff_t>(row + count));
        ASSERT_TRUE(BuildIndexFile(part, build, "/tmp/" + file).ok());
        scratch_files.push_back("/tmp/" + file);
        manifest.shards.push_back(storage::ManifestShard{
            file, static_cast<std::uint64_t>(count), 36});
        row += count;
      }
      ASSERT_TRUE(storage::WriteManifest(manifest, manifest_path).ok());

      for (const Composition& c : MakeCascades(kind, base[0].size())) {
        ShardedOptions options;
        options.pool_pages = 4;
        options.engine.kind = kind;
        options.engine.band = 4;
        options.engine = c.Into(options.engine);
        StatusOr<std::unique_ptr<ShardedIndex>> opened =
            ShardedIndex::Open(manifest_path, options);
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        ShardedIndex& index = **opened;

        // Three cumulative mutation stages: pristine shards, plus delta
        // inserts, plus tombstones over both shard and delta rows.
        std::vector<Series> all_rows = rows;
        std::vector<bool> dead(rows.size(), false);
        for (int stage = 0; stage < 3; ++stage) {
          if (stage == 1) {
            for (const Series& s : inserts) {
              ASSERT_TRUE(index.Insert(s).ok());
              all_rows.push_back(s);
              dead.push_back(false);
            }
          } else if (stage == 2) {
            // On the tie input, ids 3 and 22 are both shard copies of
            // base[2]: its 1-NN moves to the delta copy.
            for (const std::uint64_t id : {3u, 15u, 22u}) {
              ASSERT_TRUE(index.Remove(id).ok());
              dead[id] = true;
            }
          }

          // Monolithic reference over the live rows, ordinal order.
          std::vector<Series> live;
          std::vector<int> live_ids;
          for (std::size_t i = 0; i < all_rows.size(); ++i) {
            if (dead[i]) continue;
            live.push_back(all_rows[i]);
            live_ids.push_back(static_cast<int>(i));
          }
          const FlatDataset flat = FlatDataset::FromItems(live);
          Composition id_order = c;
          id_order.stages.erase(
              std::remove(id_order.stages.begin(), id_order.stages.end(),
                          StageKind::kSignatureIndex),
              id_order.stages.end());
          const QueryEngine reference(flat, id_order.Into(options.engine));
          const QueryEngine walked(flat, options.engine);
          const auto expect_same = [&](const std::vector<Neighbor>& got,
                                       const std::vector<Neighbor>& want,
                                       const std::vector<Neighbor>& walk,
                                       const std::string& label) {
            ASSERT_EQ(got.size(), want.size()) << label;
            ASSERT_EQ(got.size(), walk.size()) << label;
            for (std::size_t r = 0; r < got.size(); ++r) {
              EXPECT_EQ(got[r].index,
                        live_ids[static_cast<std::size_t>(want[r].index)])
                  << label << " rank " << r;
              EXPECT_EQ(got[r].distance, want[r].distance)
                  << label << " rank " << r;
              EXPECT_EQ(got[r].shift, want[r].shift)
                  << label << " rank " << r;
              EXPECT_EQ(got[r].mirrored, want[r].mirrored)
                  << label << " rank " << r;
              EXPECT_EQ(got[r].distance, walk[r].distance)
                  << label << " rank " << r;
            }
          };
          const auto best = [](const ScanResult& r) {
            return std::vector<Neighbor>{{r.best_index, r.best_distance,
                                          r.best_shift, r.best_mirrored}};
          };

          for (const std::size_t qi : kQueries) {
            const Series& query = base[qi];
            const std::string label =
                std::string(DistanceKindName(kind)) + "/" + input + "/s" +
                std::to_string(shard_count) + "/" + c.Name() + "/stage" +
                std::to_string(stage) + "/q" + std::to_string(qi);

            const ScanResult ref = reference.Search(query);
            StatusOr<ScanResult> got = index.Search(query);
            ASSERT_TRUE(got.ok()) << label;
            ASSERT_GE(ref.best_index, 0) << label;
            expect_same(best(*got), best(ref), best(walked.Search(query)),
                        label + " 1-NN");
            EXPECT_EQ(got->counter.total_steps(), ref.counter.total_steps())
                << label;

            const auto ref_knn = reference.Knn(query, 3);
            StatusOr<std::vector<Neighbor>> knn = index.Knn(query, 3);
            ASSERT_TRUE(knn.ok()) << label;
            expect_same(*knn, ref_knn, walked.Knn(query, 3),
                        label + " k-NN");

            const double radius = ref_knn.back().distance * 1.01;
            StatusOr<std::vector<Neighbor>> range =
                index.Range(query, radius);
            ASSERT_TRUE(range.ok()) << label;
            expect_same(*range, reference.Range(query, radius),
                        walked.Range(query, radius), label + " range");
          }
        }
      }
    }
  }
  for (const std::string& path : scratch_files) std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Kinds, ShardEquivalenceTest,
                         ::testing::Values(DistanceKind::kEuclidean,
                                           DistanceKind::kDtw),
                         [](const ::testing::TestParamInfo<DistanceKind>& p) {
                           return std::string(DistanceKindName(p.param));
                         });

INSTANTIATE_TEST_SUITE_P(Kinds, BackendEquivalenceTest,
                         ::testing::Values(DistanceKind::kEuclidean,
                                           DistanceKind::kDtw),
                         [](const ::testing::TestParamInfo<DistanceKind>& p) {
                           return std::string(DistanceKindName(p.param));
                         });

INSTANTIATE_TEST_SUITE_P(
    KindsAndMirror, EngineEquivalenceTest,
    ::testing::Combine(::testing::Values(DistanceKind::kEuclidean,
                                         DistanceKind::kDtw),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<DistanceKind, bool>>& p) {
      std::string name = DistanceKindName(std::get<0>(p.param));
      name += std::get<1>(p.param) ? "_mirror" : "_plain";
      return name;
    });

}  // namespace
}  // namespace rotind

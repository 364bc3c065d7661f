/// Micro-benchmarks (google-benchmark) of the hot kernels: Euclidean
/// distance, early abandoning, banded DTW, LB_Keogh, envelopes, FFT, the
/// data-page checksums, wedge-tree construction, and the QueryEngine
/// layers (contiguous rotation views, cascade search, batch fan-out).
/// These measure
/// wall-clock of the implementations themselves, complementing the
/// implementation-free step counts used by the figure benches.
///
/// Machine-readable output: pass --benchmark_out=FILE
/// --benchmark_out_format=json (CI uploads this as an artifact).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "src/core/flat_dataset.h"
#include "src/core/random.h"
#include "src/datasets/synthetic.h"
#include "src/distance/dtw.h"
#include "src/distance/euclidean.h"
#include "src/distance/lcss.h"
#include "src/envelope/wedge_tree.h"
#include "src/fourier/fft.h"
#include "src/fourier/spectral.h"
#include "src/io/bytes.h"
#include "src/search/engine.h"
#include "src/envelope/lower_bound.h"

namespace rotind {
namespace {

Series MakeSeries(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Series s(n);
  for (double& v : s) v = rng.Gaussian(0.0, 1.0);
  return s;
}

void BM_Euclidean(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Series a = MakeSeries(n, 1);
  const Series b = MakeSeries(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquaredEuclidean(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(n));
}
BENCHMARK(BM_Euclidean)->Arg(251)->Arg(1024);

void BM_EarlyAbandonEuclideanTightLimit(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Series a = MakeSeries(n, 1);
  const Series b = MakeSeries(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EarlyAbandonEuclidean(a.data(), b.data(), n, 0.5));
  }
}
BENCHMARK(BM_EarlyAbandonEuclideanTightLimit)->Arg(251)->Arg(1024);

void BM_DtwBanded(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const int band = static_cast<int>(state.range(1));
  const Series a = MakeSeries(n, 3);
  const Series b = MakeSeries(n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DtwDistance(a.data(), b.data(), n, band));
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(DtwCellCount(n, band)));
}
BENCHMARK(BM_DtwBanded)->Args({251, 5})->Args({1024, 5})->Args({251, 25});

void BM_Lcss(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Series a = MakeSeries(n, 5);
  const Series b = MakeSeries(n, 6);
  LcssOptions opts;
  opts.delta = 5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LcssLength(a.data(), b.data(), n, opts));
  }
}
BENCHMARK(BM_Lcss)->Arg(251);

void BM_LbKeogh(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Envelope env = Envelope::FromSeries(MakeSeries(n, 7));
  env.MergeSeries(MakeSeries(n, 8).data(), n);
  const Series q = MakeSeries(n, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LbKeogh(q.data(), env));
  }
}
BENCHMARK(BM_LbKeogh)->Arg(251)->Arg(1024);

void BM_EnvelopeDtwExpansion(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Envelope env = Envelope::FromSeries(MakeSeries(n, 10));
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.ExpandedForDtw(5));
  }
}
BENCHMARK(BM_EnvelopeDtwExpansion)->Arg(1024);

void BM_Fft(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Series s = MakeSeries(n, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FftReal(s));
  }
}
// 1024 exercises radix-2; 251 (prime) exercises Bluestein.
BENCHMARK(BM_Fft)->Arg(251)->Arg(1024);

void BM_SpectralSignature(benchmark::State& state) {
  const Series s = MakeSeries(1024, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeSpectralSignature(s, 16));
  }
}
BENCHMARK(BM_SpectralSignature);

/// Verifying one data page: byte-wise FNV-1a (RIDX v1/v2) against the
/// lane-parallel checksum (RIDX v3), at the default 4 KiB page. Arg 0 is
/// FNV-1a, arg 1 the lane checksum.
void BM_PageChecksum(benchmark::State& state) {
  std::uint64_t (*const checksum)(const void*, std::size_t) =
      state.range(0) == 0 ? Fnv1a64 : LaneChecksum64;
  state.SetLabel(state.range(0) == 0 ? "fnv1a64" : "lane_checksum64");
  const std::size_t bytes = static_cast<std::size_t>(state.range(1));
  const Series noise = MakeSeries(bytes / sizeof(double), 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(checksum(noise.data(), bytes));
  }
  state.SetBytesProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(bytes));
}
BENCHMARK(BM_PageChecksum)->Args({0, 4096})->Args({1, 4096});

void BM_WedgeTreeBuild(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Series q = MakeSeries(n, 13);
  for (auto _ : state) {
    StepCounter counter;
    WedgeTree tree(q, {}, 0, &counter);
    benchmark::DoNotOptimize(tree.root());
  }
}
BENCHMARK(BM_WedgeTreeBuild)->Arg(251)->Arg(512);

// --- QueryEngine layers ---------------------------------------------------

/// All-rotations Euclidean via a doubled buffer (the trick RotationSet
/// plays for the query): each shift is a pointer offset into contiguous
/// storage, no per-rotation copy.
void BM_RotationScanDoubledViews(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Series doubled = Doubled(MakeSeries(n, 14));
  const Series q = MakeSeries(n, 15);
  for (auto _ : state) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t shift = 0; shift < n; ++shift) {
      best = std::min(best,
                      SquaredEuclidean(q.data(), doubled.data() + shift, n));
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_RotationScanDoubledViews)->Arg(251)->Arg(1024);

/// The same scan paying for a materialized copy of every rotation
/// (RotateLeft), what rotating without a doubled buffer costs.
void BM_RotationScanMaterialized(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Series item = MakeSeries(n, 14);
  const Series q = MakeSeries(n, 15);
  for (auto _ : state) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t shift = 0; shift < n; ++shift) {
      const Series rotated = RotateLeft(item, static_cast<long>(shift));
      best = std::min(best, SquaredEuclidean(q.data(), rotated.data(), n));
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_RotationScanMaterialized)->Arg(251)->Arg(1024);

/// End-to-end 1-NN through the wedge cascade on contiguous storage.
void BM_EngineSearchWedge(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 251;
  const FlatDataset db =
      FlatDataset::FromItems(MakeProjectilePointsDatabase(m, n, 16));
  const QueryEngine engine(db);
  const Series q = db.Materialize(m / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Search(q).best_distance);
  }
}
BENCHMARK(BM_EngineSearchWedge)->Arg(100)->Arg(400);

/// Batch 1-NN over the worker pool; threads is the benchmark argument, so
/// the scaling curve is visible in one report.
void BM_EngineSearchBatch(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const std::size_t m = 200;
  const std::size_t n = 251;
  const FlatDataset db =
      FlatDataset::FromItems(MakeProjectilePointsDatabase(m, n, 17));
  const QueryEngine engine(db);
  std::vector<Series> queries;
  for (std::size_t i = 0; i < 16; ++i) queries.push_back(db.Materialize(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.SearchBatch(queries, threads).size());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(queries.size()));
}
BENCHMARK(BM_EngineSearchBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace
}  // namespace rotind

BENCHMARK_MAIN();

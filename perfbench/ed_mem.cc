// Workload ed-mem: in-memory exact Euclidean search, the path
// `rotind search --db` takes. The only workload where core, fourier and the
// ED kernels do most of the work while storage, index and serve do nothing.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/core/flat_dataset.h"
#include "src/datasets/synthetic.h"
#include "src/io/serialize.h"
#include "src/search/engine.h"

namespace perfbench {
namespace {

using rotind::Dataset;
using rotind::EngineOptions;
using rotind::FlatDataset;
using rotind::QueryEngine;
using rotind::StageKind;

// Request classes, stored as the label of each generated query.
enum Class { kNearest = 0, kKnn = 1, kRange = 2, kFiltered = 3 };
const char* const kClassNames[] = {"nn", "knn", "range", "filtered_nn"};

struct Scale {
  std::size_t rows, length, setups, checks;
};
Scale ScaleOf(const Config& cfg) {
  return cfg.tiny ? Scale{600, 64, 3, 1000} : Scale{20000, 128, 7, 48};
}

constexpr int kK = 8;
constexpr double kRadius = 2.0;
/// Queries a run can use per second (ten times more at self-test scale);
/// a run that uses them all stops early and says so.
constexpr double kMaxQps = 200.0;

/// The request mix per block of 20: nn, knn, range, filtered. The filtered
/// class is the slowest by far and stays a 10% minority, so p95 falls
/// near its median while p50 falls inside the default classes.
const std::vector<int> kMix = {10, 4, 4, 2};

EngineOptions Options(std::vector<StageKind> stages, std::size_t length) {
  EngineOptions options;
  options.cascade.stages = std::move(stages);
  options.vec_sig_dims = length / 2;
  return options;
}

/// What set-up builds; the engines borrow `flat`.
struct System {
  FlatDataset flat;
  std::unique_ptr<QueryEngine> plain;
  std::unique_ptr<QueryEngine> filtered;
};

}  // namespace

int GenEdMem(const Config& cfg) {
  const Scale s = ScaleOf(cfg);
  Dataset db;
  db.items =
      rotind::MakeProjectilePointsDatabase(s.rows, s.length, kDatabaseSeed);
  rotind::Rng rng(cfg.seed);
  Dataset queries;
  const auto count = static_cast<std::size_t>(
      cfg.seconds * kMaxQps * (cfg.tiny ? 10 : 1) + 16);
  queries.labels = StratifiedClasses(count, kMix, &rng);
  for (std::size_t row : StratifiedRows(count, db.size(), &rng)) {
    queries.items.push_back(NoisyRotation(db.items[row], &rng));
  }
  for (const auto& [data, name] : {std::pair{&db, "db.rind"},
                                   std::pair{&queries, "queries.rind"}}) {
    const rotind::Status saved =
        rotind::SaveDatasetBinaryStatus(*data, cfg.dir + "/" + name);
    if (!saved.ok()) {
      Log("cannot write %s: %s", name, saved.ToString().c_str());
      return 2;
    }
  }
  return 0;
}

int RunEdMem(const Config& cfg, Report* report) {
  const Scale s = ScaleOf(cfg);
  rotind::StatusOr<Dataset> loaded =
      rotind::LoadDatasetBinaryStatus(cfg.dir + "/queries.rind");
  if (!loaded.ok()) {
    Log("cannot read queries: %s", loaded.status().ToString().c_str());
    return 2;
  }
  const Dataset queries = *std::move(loaded);
  Tracer tracer(cfg.trace);
  const double probe_before = HostProbeMs();

  // Set-up, repeated: load, flatten, build the engines. The last one stays.
  std::vector<double> setup_s, load_ms, flat_ms;
  std::unique_ptr<System> sys;
  for (std::size_t rep = 0; rep < s.setups; ++rep) {
    sys.reset();
    if (rep + 1 == s.setups) ResetPeakRss();  // the peak of the kept set-up
    const std::uint64_t span = tracer.Open("setup", 0, 0);
    const Clock::time_point t0 = Clock::now();
    rotind::StatusOr<Dataset> db =
        rotind::LoadDatasetBinaryStatus(cfg.dir + "/db.rind");
    const Clock::time_point t1 = Clock::now();
    if (!db.ok()) {
      Log("cannot load dataset: %s", db.status().ToString().c_str());
      return 2;
    }
    auto next = std::make_unique<System>();
    next->flat = FlatDataset::FromDataset(*db);
    const Clock::time_point t2 = Clock::now();
    next->plain = std::make_unique<QueryEngine>(
        next->flat, Options({StageKind::kWedge}, s.length));
    next->filtered = std::make_unique<QueryEngine>(
        next->flat,
        Options({StageKind::kVecSignature, StageKind::kWedge}, s.length));
    const Clock::time_point t3 = Clock::now();
    tracer.Close(span);
    tracer.Add("io.load", span, 0, tracer.ToNs(t0), tracer.ToNs(t1));
    tracer.Add("core.flat_build", span, 0, tracer.ToNs(t1), tracer.ToNs(t2));
    setup_s.push_back(std::chrono::duration<double>(t3 - t0).count());
    load_ms.push_back(MillisBetween(t0, t1));
    flat_ms.push_back(MillisBetween(t1, t2));
    sys = std::move(next);
  }

  const auto run_one = [&](std::size_t i, rotind::obs::QueryMetrics* m,
                           rotind::StepCounter* counter) {
    const Series& q = queries.items[i];
    switch (queries.labels[i]) {
      case kKnn:
        return sys->plain->Knn(q, kK, counter, m);
      case kRange:
        return sys->plain->Range(q, kRadius, counter, m);
      default: {
        const QueryEngine& engine =
            queries.labels[i] == kFiltered ? *sys->filtered : *sys->plain;
        rotind::ScanResult r = engine.Search(q, m);
        if (counter != nullptr) *counter = r.counter;
        return AsNeighbors(r);
      }
    }
  };

  // Two warm-up queries, then the measured phase: one closed-loop client
  // walking the seeded query sequence for cfg.seconds.
  constexpr std::size_t kWarmup = 2;
  for (std::size_t i = 0; i < kWarmup; ++i) run_one(i, nullptr, nullptr);
  LatencySamples lat;
  std::vector<int> lat_class;
  std::vector<std::vector<Neighbor>> answers;
  rotind::obs::QueryMetrics merged;
  std::uint64_t traced = 0, traced_filtered = 0, unbalanced = 0;
  OverheadMeter overhead;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  std::size_t i = kWarmup;
  for (; i < queries.items.size() && Clock::now() < deadline; ++i) {
    const bool trace_op = cfg.trace && overhead.NextTraced(queries.labels[i]);
    const Clock::time_point t0 = Clock::now();
    if (trace_op) {
      const std::uint64_t span =
          tracer.Open(std::string("search.") + kClassNames[queries.labels[i]],
                      0, i);
      rotind::obs::QueryMetrics m;
      answers.push_back(run_one(i, &m, nullptr));
      tracer.Close(span);
      tracer.AddStageChildren(m, span, i, tracer.ToNs(t0));
      unbalanced += UnbalancedStages(m);
      merged += m;
      ++traced;
      if (queries.labels[i] == kFiltered) ++traced_filtered;
    } else {
      answers.push_back(run_one(i, nullptr, nullptr));
    }
    const Clock::time_point t1 = Clock::now();
    lat.ms.push_back(MillisBetween(t0, t1));
    lat_class.push_back(queries.labels[i]);
    if (cfg.trace) {
      overhead.Record(trace_op, std::chrono::duration<double>(t1 - t0).count());
    }
  }
  const double wall = SecondsSince(start);
  const double rss = PeakRssMiB();
  const double probe_after = HostProbeMs();
  if (i == queries.items.size()) Log("ran out of generated queries");

  // Answer gate, outside the timed phase and after the RSS reading: a
  // seeded sample against the exact_scan cascade over the same rows.
  const std::size_t done = answers.size();
  const std::vector<std::size_t> sample =
      SampleIndices(done, s.checks, cfg.seed + 17);
  const QueryEngine reference(sys->flat,
                              Options({StageKind::kExactScan}, s.length));
  std::vector<std::vector<Neighbor>> want(sample.size());
  rotind::ParallelFor(sample.size(), AvailableCpus(), [&](std::size_t j) {
    const std::size_t at = kWarmup + sample[j];
    const Series& q = queries.items[at];
    switch (queries.labels[at]) {
      case kKnn:
        want[j] = reference.Knn(q, kK);
        break;
      case kRange:
        want[j] = reference.Range(q, kRadius);
        break;
      default:
        want[j] = AsNeighbors(reference.Search(q));
    }
  });
  if (cfg.corrupt_reference && !want.empty() && !want[0].empty()) {
    want[0][0].distance += 1.0;
  }
  std::uint64_t wrong = 0;
  for (std::size_t j = 0; j < sample.size(); ++j) {
    std::string why;
    if (!SameAnswer(answers[sample[j]], want[j], &why)) {
      ++wrong;
      Log("ed-mem query %zu (%s): %s", kWarmup + sample[j],
          kClassNames[queries.labels[kWarmup + sample[j]]], why.c_str());
    }
  }

  // Traced runs: instrumentation must not change the work done.
  std::uint64_t step_mismatches = 0;
  if (cfg.trace) {
    for (std::size_t j = 0; j < std::min<std::size_t>(done, 8); ++j) {
      rotind::StepCounter plain, instrumented;
      rotind::obs::QueryMetrics m;
      run_one(kWarmup + j, nullptr, &plain);
      run_one(kWarmup + j, &m, &instrumented);
      if (plain.total_steps() != instrumented.total_steps() ||
          m.attributed_total_steps() != plain.total_steps()) {
        ++step_mismatches;
      }
    }
  }

  report->attempted = done;
  report->failed = wrong;
  EmitSetup(setup_s, report);
  report->Metric("qps", static_cast<double>(done) / wall, "1/s", done);
  lat.Emit(report);
  report->Metric("peak_rss_mb", rss, "MiB", 1);
  if (cfg.trace) {
    report->Metric("io.load_ms", Quantile(load_ms, 0.5), "ms", load_ms.size());
    report->Metric("core.flat_build_ms", Quantile(flat_ms, 0.5), "ms",
                   flat_ms.size());
    EmitEngineLayers(merged, traced, traced_filtered, report);
    report->Metric("search.self_ms_per_query", tracer.MeanSelfMs("search."),
                   "ms", traced);
    overhead.Emit(report);
  }
  report->Context("class_latency_ms",
                  ClassLatencies(lat_class, lat.ms,
                                 {kClassNames, kClassNames + 4}));
  report->Context("rows", std::to_string(s.rows));
  report->Context("length", std::to_string(s.length));
  report->Context("checked_answers", std::to_string(sample.size()));
  return FinishRun(cfg, tracer, wrong, unbalanced, step_mismatches,
                   probe_before, probe_after, report);
}

}  // namespace perfbench

/// End-to-end scan benchmark with machine-readable output.
///
/// Runs every cascade composition (the paper's rival scans plus the
/// vec-signature filter in front of each terminal) over a synthetic
/// projectile-points workload under Euclidean and DTW, then times the
/// batch driver at 1 and
/// N threads. Results — implementation-free step counts, stage-attributed
/// observability metrics, AND wall-clock — are written as JSON so CI can
/// archive and diff them across commits.
///
///   engine_scan_bench [output.json] [--check baseline.json]
///                     [--tolerance FRAC]
///
/// --check compares the run's deterministic counters (step counts and
/// candidate-flow fields; never wall-clock or latency) against a committed
/// baseline and exits nonzero on drift beyond --tolerance (a fraction,
/// default 0 = exact; CI passes a small tolerance to absorb libm
/// differences across platforms that can shift prune counts near ties).
///
/// Scale: ROTIND_BENCH_SCALE=full for paper-sized inputs.

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/datasets/synthetic.h"
#include "src/obs/metrics.h"
#include "src/search/engine.h"
#include "src/simd/simd.h"

namespace rotind::bench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Row {
  std::string name;
  std::string kind;
  std::uint64_t total_steps = 0;
  double wall_seconds = 0.0;
  std::size_t queries = 0;
  obs::QueryMetrics metrics;
};

/// Runs `queries` leave-one-out 1-NN searches through one engine
/// configuration and records total steps, per-stage metrics, and wall time.
Row RunConfig(const std::string& name, const FlatDataset& db,
              const std::vector<std::size_t>& queries,
              const EngineOptions& options) {
  Row row;
  row.name = name;
  row.kind = DistanceKindName(options.kind);
  row.queries = queries.size();
  const QueryEngine engine(db, options);
  const auto t0 = Clock::now();
  for (std::size_t qi : queries) {
    const ScanResult r =
        engine.SearchLeaveOneOut(db.Materialize(qi), qi, &row.metrics);
    row.total_steps += r.counter.total_steps();
  }
  row.wall_seconds = Seconds(t0, Clock::now());
  return row;
}

/// The deterministic counter keys a --check run compares. Everything that
/// measures real time (wall_seconds, *_nanos, speedup) is deliberately
/// absent: only step counts and candidate/wedge/index flow are stable
/// across runs.
bool IsCounterKey(const std::string& key) {
  static const char* const kKeys[] = {
      "total_steps",     "attributed_total_steps",
      "queries",         "candidates_entered",
      "candidates_pruned", "candidates_survived",
      "steps",           "setup_steps",
      "early_abandons",  "wedges_tested",
      "wedges_pruned",   "wedges_descended",
      "leaves_evaluated", "leaves_abandoned",
      "adapt_probes",    "signature_evals",
      "object_fetches",  "page_reads",
      "refinements",
  };
  for (const char* k : kKeys) {
    if (key == k) return true;
  }
  return false;
}

struct CounterSample {
  std::string key;
  double value = 0.0;
};

/// Extracts every `"key": <number>` pair whose key is a deterministic
/// counter, in document order. A full JSON parser is overkill: both sides
/// of the diff are produced by this binary, so positional comparison of
/// the counter stream is exact.
std::vector<CounterSample> ExtractCounters(const std::string& text) {
  std::vector<CounterSample> out;
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '"') {
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < text.size() && text[j] != '"') ++j;
    if (j >= text.size()) break;
    const std::string key = text.substr(i + 1, j - i - 1);
    std::size_t k = j + 1;
    while (k < text.size() && std::isspace(static_cast<unsigned char>(text[k])))
      ++k;
    if (k < text.size() && text[k] == ':') {
      ++k;
      while (k < text.size() &&
             std::isspace(static_cast<unsigned char>(text[k])))
        ++k;
      if (k < text.size() &&
          (std::isdigit(static_cast<unsigned char>(text[k])) ||
           text[k] == '-')) {
        char* end = nullptr;
        const double v = std::strtod(text.c_str() + k, &end);
        if (end != text.c_str() + k) {
          if (IsCounterKey(key)) out.push_back({key, v});
          i = static_cast<std::size_t>(end - text.c_str());
          continue;
        }
      }
    }
    i = j + 1;
  }
  return out;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, got);
  std::fclose(f);
  return true;
}

/// Diffs the deterministic counters of `current_path` against
/// `baseline_path`. Returns 0 when every counter is within `tolerance`
/// (relative), 1 otherwise.
int CheckAgainstBaseline(const std::string& current_path,
                         const std::string& baseline_path, double tolerance) {
  std::string current_text;
  std::string baseline_text;
  if (!ReadFile(current_path, &current_text)) {
    std::fprintf(stderr, "check: cannot read %s\n", current_path.c_str());
    return 1;
  }
  if (!ReadFile(baseline_path, &baseline_text)) {
    std::fprintf(stderr, "check: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 1;
  }
  const std::vector<CounterSample> current = ExtractCounters(current_text);
  const std::vector<CounterSample> baseline = ExtractCounters(baseline_text);
  if (current.size() != baseline.size()) {
    std::fprintf(stderr,
                 "check FAILED: counter stream length differs (current %zu "
                 "vs baseline %zu) — schema or configuration drift\n",
                 current.size(), baseline.size());
    return 1;
  }
  int failures = 0;
  for (std::size_t i = 0; i < current.size(); ++i) {
    if (current[i].key != baseline[i].key) {
      std::fprintf(stderr,
                   "check FAILED at counter %zu: key '%s' vs baseline '%s'\n",
                   i, current[i].key.c_str(), baseline[i].key.c_str());
      return 1;
    }
    const double base = baseline[i].value;
    const double diff = std::fabs(current[i].value - base);
    const double allowed = tolerance * std::fabs(base);
    if (diff > allowed) {
      std::fprintf(stderr,
                   "check FAILED: counter %zu '%s' = %.0f, baseline %.0f "
                   "(|diff| %.0f > allowed %.0f)\n",
                   i, current[i].key.c_str(), current[i].value, base, diff,
                   allowed);
      ++failures;
    }
  }
  if (failures > 0) return 1;
  std::printf("baseline check passed: %zu counters within %.2f%% of %s\n",
              current.size(), 100.0 * tolerance, baseline_path.c_str());
  return 0;
}

int Run(int argc, char** argv) {
  std::string out_path = "BENCH_scan.json";
  std::string baseline_path;
  double tolerance = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      tolerance = std::atof(argv[++i]);
    } else {
      out_path = argv[i];
    }
  }
  const bool full = FullScale();
  const std::size_t n = 251;
  const std::size_t m = full ? 4000 : 400;
  const std::size_t num_queries = full ? 20 : 8;

  const FlatDataset db =
      FlatDataset::FromItems(MakeProjectilePointsDatabase(m, n, 2006));
  const QuerySet qs = PickQueries(m, num_queries, 42);

  // Every composition the engine can express for each measure. The names
  // spell out the cascade so the JSON is self-describing.
  struct Config {
    const char* name;
    DistanceKind kind;
    CascadeSpec cascade;
    /// Spectral bins kVecSignature compares (0 = the engine default, 8).
    /// The unmarked vecsig rows run all n/2 = 125 bins, the paper's
    /// FFT-magnitude bound; the @8 row runs the default prefix. The
    /// in-memory engine compares resident rows it built on first use, so
    /// a comparison costs O(dims) wall time at any width; the step
    /// counters still price it as one FFT (DESIGN.md §14).
    std::size_t vec_sig_dims = 0;
  };
  const std::vector<Config> configs = {
      {"ed/full-scan", DistanceKind::kEuclidean, {{StageKind::kFullScan}}},
      {"ed/early-abandon", DistanceKind::kEuclidean,
       {{StageKind::kExactScan}}},
      {"ed/wedge", DistanceKind::kEuclidean, {{StageKind::kWedge}}},
      {"ed/vecsig+wedge", DistanceKind::kEuclidean,
       {{StageKind::kVecSignature, StageKind::kWedge}},
       /*vec_sig_dims=*/125},
      {"ed/vecsig+early-abandon", DistanceKind::kEuclidean,
       {{StageKind::kVecSignature, StageKind::kExactScan}},
       /*vec_sig_dims=*/125},
      {"ed/vecsig@8+wedge", DistanceKind::kEuclidean,
       {{StageKind::kVecSignature, StageKind::kWedge}}},
      {"dtw/full-scan-banded", DistanceKind::kDtw,
       {{StageKind::kFullScanBanded}}},
      {"dtw/early-abandon", DistanceKind::kDtw, {{StageKind::kExactScan}}},
      {"dtw/wedge", DistanceKind::kDtw, {{StageKind::kWedge}}},
  };

  bool attribution_exact = true;
  std::vector<Row> rows;
  for (const Config& c : configs) {
    EngineOptions options;
    options.kind = c.kind;
    options.band = 5;
    options.cascade = c.cascade;
    if (c.vec_sig_dims != 0) options.vec_sig_dims = c.vec_sig_dims;
    rows.push_back(RunConfig(c.name, db, qs.query_indices, options));
    const Row& row = rows.back();
    if (row.metrics.attributed_total_steps() != row.total_steps) {
      std::fprintf(stderr,
                   "  %s: stage attribution leak — %llu attributed vs %llu "
                   "counted\n",
                   row.name.c_str(),
                   static_cast<unsigned long long>(
                       row.metrics.attributed_total_steps()),
                   static_cast<unsigned long long>(row.total_steps));
      attribution_exact = false;
    }
    // Per-stage pruning power: what fraction of the candidates entering
    // each stage it removed — the paper's Figure 19-23 metric, per stage
    // instead of per cascade. Terminals never prune (they decide), so
    // only stages that pruned at least once are shown.
    std::string pruning;
    for (std::size_t s = 0; s < obs::kNumStages; ++s) {
      const obs::StageStats& st = row.metrics.stages[s];
      if (!st.used || st.candidates_entered == 0 ||
          st.candidates_pruned == 0) {
        continue;
      }
      char cell[64];
      std::snprintf(cell, sizeof cell, "  %s=%.1f%%",
                    obs::StageName(static_cast<obs::StageId>(s)),
                    100.0 * static_cast<double>(st.candidates_pruned) /
                        static_cast<double>(st.candidates_entered));
      pruning += cell;
    }
    std::printf("  %-40s %14llu steps  %8.3f s%s\n", row.name.c_str(),
                static_cast<unsigned long long>(row.total_steps),
                row.wall_seconds, pruning.c_str());
  }

  // Batch driver scaling: the same wedge workload at 1 thread vs the
  // machine's parallelism, with bit-identical results by construction.
  std::vector<Series> batch_queries;
  for (std::size_t qi : qs.query_indices) {
    batch_queries.push_back(db.Materialize(qi));
  }
  const QueryEngine engine(db);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int threads = hw > 1 ? hw : 2;
  obs::QueryMetrics serial_metrics;
  obs::QueryMetrics parallel_metrics;
  const auto t1 = Clock::now();
  const auto serial = engine.SearchBatch(batch_queries, 1, nullptr,
                                         &serial_metrics);
  const auto t2 = Clock::now();
  const auto parallel = engine.SearchBatch(batch_queries, threads, nullptr,
                                           &parallel_metrics);
  const auto t3 = Clock::now();
  const double serial_s = Seconds(t1, t2);
  const double parallel_s = Seconds(t2, t3);
  bool identical = serial.size() == parallel.size() &&
                   serial_metrics.attributed_total_steps() ==
                       parallel_metrics.attributed_total_steps();
  for (std::size_t i = 0; identical && i < serial.size(); ++i) {
    identical = serial[i].best_index == parallel[i].best_index &&
                serial[i].best_distance == parallel[i].best_distance &&
                serial[i].counter.total_steps() ==
                    parallel[i].counter.total_steps();
  }
  std::printf("  batch: %zu queries  1 thread %.3f s, %d threads %.3f s "
              "(%.2fx, identical=%s)\n",
              batch_queries.size(), serial_s, threads, parallel_s,
              parallel_s > 0.0 ? serial_s / parallel_s : 0.0,
              identical ? "yes" : "NO");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"dataset\": {\"generator\": \"projectile-points\", "
               "\"m\": %zu, \"n\": %zu, \"queries\": %zu, "
               "\"simd\": \"%s\"},\n",
               m, n, num_queries, simd::ActiveTierName());
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"kind\": \"%s\", "
                 "\"total_steps\": %llu, \"wall_seconds\": %.6f, "
                 "\"queries\": %zu,\n"
                 "     \"metrics\":\n%s}%s\n",
                 rows[i].name.c_str(), rows[i].kind.c_str(),
                 static_cast<unsigned long long>(rows[i].total_steps),
                 rows[i].wall_seconds, rows[i].queries,
                 rows[i].metrics.ToJson(5).c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"batch\": {\"queries\": %zu, \"threads\": %d, "
               "\"serial_seconds\": %.6f, \"parallel_seconds\": %.6f, "
               "\"speedup\": %.3f, \"bit_identical\": %s,\n"
               "   \"metrics\":\n%s}\n",
               batch_queries.size(), threads, serial_s, parallel_s,
               parallel_s > 0.0 ? serial_s / parallel_s : 0.0,
               identical ? "true" : "false",
               serial_metrics.ToJson(3).c_str());
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  if (!identical || !attribution_exact) return 1;
  if (!baseline_path.empty()) {
    return CheckAgainstBaseline(out_path, baseline_path, tolerance);
  }
  return 0;
}

}  // namespace
}  // namespace rotind::bench

int main(int argc, char** argv) { return rotind::bench::Run(argc, argv); }

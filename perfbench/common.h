#ifndef ROTIND_PERFBENCH_COMMON_H_
#define ROTIND_PERFBENCH_COMMON_H_

// Shared pieces of the rotind benchmark: run configuration, the report it
// prints, percentile and span helpers, the answer gate, and the host probe.
// Everything here measures rotind from outside: it times calls into the
// library's public API and reads the counters those calls return.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/random.h"
#include "src/core/series.h"
#include "src/obs/metrics.h"
#include "src/search/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using rotind::Neighbor;
using rotind::Series;

/// Command-line configuration of one `gen` or `run` invocation.
struct Config {
  std::string mode;      ///< "gen" or "run".
  std::string workload;  ///< ed-mem | serve-rw.
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool tiny = false;  ///< Self-test scale: every workload in seconds.
  bool trace = false;
  std::string dir;        ///< Input and data directory of this run.
  std::string trace_out;  ///< Span file written by a traced run.
  /// Self-test hook: flips one reference answer so the gate must fail.
  bool corrupt_reference = false;
};

double SecondsSince(Clock::time_point t0);
double MillisBetween(Clock::time_point a, Clock::time_point b);

/// Nearest-rank quantile (q in (0, 1]) of `v`; 0 for an empty vector.
double Quantile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);

/// The metrics, counts and run context one workload run reports.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              std::uint64_t samples);
  void Context(const std::string& key, const std::string& value);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False on any wrong answer or broken trace invariant.
  bool correct = true;

  /// One-line JSON: {"correct":..,"attempted":..,"failed":..,
  /// "metrics":{name:{"value","unit","samples"}},"context":{..}}.
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::uint64_t samples;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;
};

/// Latency samples of the measured phase and the end-to-end metrics
/// derived from them.
struct LatencySamples {
  std::vector<double> ms;  ///< One per completed read, in completion order.
  std::uint64_t missed = 0;  ///< Failed reads: they miss every limit.

  /// Adds p50_ms and p95_ms. A failed read counts as +infinity.
  void Emit(Report* report) const;
};

/// "nn=p50/p95 knn=p50/p95 ...": latency quantiles per request class, so
/// a reader can see which class p50_ms and p95_ms fall in.
std::string ClassLatencies(const std::vector<int>& classes,
                           const std::vector<double>& ms,
                           const std::vector<std::string>& names);

/// Median of repeated set-ups, reported as setup_s.
void EmitSetup(const std::vector<double>& setup_seconds, Report* report);

/// Peak resident set of this process (VmHWM) in MiB.
double PeakRssMiB();
/// Returns freed heap memory to the OS and resets the resident-set
/// high-water mark to the current RSS, so what the benchmark loaded or set
/// up and freed before (its inputs, earlier repeats of set-up) does not
/// count. Best effort.
void ResetPeakRss();

/// Fixed compute loop (no rotind code), median milliseconds of five runs.
/// Recorded before and after each workload so a reader can tell host drift
/// from a program change; never used to scale a metric.
double HostProbeMs();

// ---------------------------------------------------------------------------
// Traced runs.

/// In-memory span log: name, start, end, parent span and request id.
/// Thread-safe; written to JSON when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  std::int64_t Now() const { return ToNs(Clock::now()); }
  std::int64_t ToNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  /// Records a finished span; returns its id (0 when disabled).
  std::uint64_t Add(const std::string& name, std::uint64_t parent,
                    std::uint64_t request, std::int64_t start_ns,
                    std::int64_t end_ns);
  /// Opens a span ending at Close(); returns its id (0 when disabled).
  std::uint64_t Open(const std::string& name, std::uint64_t parent,
                     std::uint64_t request);
  void Close(std::uint64_t id);

  /// Adds the stage stats of one query as child spans of `parent`, laid
  /// back to back from `start_ns` (a stage's time is interleaved across
  /// candidates, so only its total is known).
  void AddStageChildren(const rotind::obs::QueryMetrics& metrics,
                        std::uint64_t parent, std::uint64_t request,
                        std::int64_t start_ns);

  /// Sum of self time (span minus the part its children cover) and span
  /// count per span name.
  struct SelfTime {
    std::string name;
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::uint64_t count = 0;
  };
  std::vector<SelfTime> SelfTimes() const;
  /// Mean self time of the spans whose name starts with `prefix`.
  double MeanSelfMs(const std::string& prefix) const;

  /// Writes {"spans":[...],"self_times":[...]} to `path`.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // id = index + 1
};

/// Per-layer metrics read from merged engine stage stats of `queries`
/// queries: search, envelope, simd, storage and fourier (each only when
/// its stage ran).
void EmitEngineLayers(const rotind::obs::QueryMetrics& m,
                      std::uint64_t queries, std::uint64_t filtered_queries,
                      Report* report);

/// Counts stages whose flow does not balance (entered != pruned +
/// survived).
std::uint64_t UnbalancedStages(const rotind::obs::QueryMetrics& m);

/// Splits a traced run's operations into traced and untraced halves and
/// reports obs.trace_overhead_frac = 1 - traced qps / untraced qps.
class OverheadMeter {
 public:
  static constexpr std::size_t kBlock = 8;
  /// For concurrent operations: op `op` of the sequence runs traced when
  /// it falls in an odd block of kBlock operations.
  static bool TracedBlock(std::size_t op) { return (op / kBlock) % 2 == 1; }
  /// For one closed-loop client: the operations of each request class
  /// alternate traced and untraced, so both halves see the same mix.
  bool NextTraced(int request_class) {
    if (seen_.size() <= static_cast<std::size_t>(request_class)) {
      seen_.resize(static_cast<std::size_t>(request_class) + 1);
    }
    return seen_[static_cast<std::size_t>(request_class)]++ % 2 == 1;
  }
  void Record(bool traced, double seconds, std::uint64_t ops = 1) {
    (traced ? traced_s_ : plain_s_) += seconds;
    (traced ? traced_n_ : plain_n_) += ops;
  }
  void Emit(Report* report) const;

 private:
  std::vector<std::uint64_t> seen_;
  double traced_s_ = 0.0, plain_s_ = 0.0;
  std::uint64_t traced_n_ = 0, plain_n_ = 0;
};

// ---------------------------------------------------------------------------
// Inputs and the answer gate.

/// The database every seed searches. Only the operations (queries, ids,
/// writes) come from --seed, so run-to-run spread measures the host and the
/// program, not how hard one generated database happens to be.
inline constexpr std::uint64_t kDatabaseSeed = 2006;

/// `count` request classes drawn in shuffled blocks that each hold exactly
/// `per_block[c]` requests of class c, so every stretch of the sequence has
/// the same mix and p50/p95 stay inside one class from run to run.
std::vector<int> StratifiedClasses(std::size_t count,
                                   const std::vector<int>& per_block,
                                   rotind::Rng* rng);

/// `count` source rows for queries: each shuffled block of 32 takes one
/// row at random from each 32nd of [0, rows), so every run's queries cover
/// the database evenly, whatever the seed.
std::vector<std::size_t> StratifiedRows(std::size_t count, std::size_t rows,
                                        rotind::Rng* rng);

/// A noisy rotation of `row` (random shift, Gaussian noise sigma 0.05,
/// z-normalised): the way bench/fig24_disk_access builds its queries, so a
/// query is never a database member.
Series NoisyRotation(const Series& row, rotind::Rng* rng);

/// Compares an answer with its reference, both ordered by (distance, id):
/// ids and distances must match exactly. On mismatch fills `why`.
bool SameAnswer(std::vector<Neighbor> got, std::vector<Neighbor> want,
                std::string* why);

std::vector<Neighbor> AsNeighbors(const rotind::ScanResult& r);

/// Seeded sample of `count` distinct positions in [0, n), ascending.
std::vector<std::size_t> SampleIndices(std::size_t n, std::size_t count,
                                       std::uint64_t seed);

/// Threads the benchmark may use: the CPUs this process may run on.
int AvailableCpus();

/// Closes a run: sets `correct` from the wrong answers and broken trace
/// invariants, records the host probe, and writes a traced run's spans.
/// Returns the exit code: 0 correct, 1 not, 2 when the spans cannot be
/// written.
int FinishRun(const Config& cfg, const Tracer& tracer, std::uint64_t wrong,
              std::uint64_t unbalanced, std::uint64_t step_mismatches,
              double probe_before, double probe_after, Report* report);

/// Sum of regular file sizes in `dir` (non-recursive).
std::uint64_t DirectoryBytes(const std::string& dir);

/// Logs to stderr with a workload prefix.
void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Workload entry points.
int GenEdMem(const Config& cfg);
int RunEdMem(const Config& cfg, Report* report);
int GenServeRw(const Config& cfg);
int RunServeRw(const Config& cfg, Report* report);

}  // namespace perfbench

#endif  // ROTIND_PERFBENCH_COMMON_H_

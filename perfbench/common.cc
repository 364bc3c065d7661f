#include "perfbench/common.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "src/core/series.h"

namespace perfbench {

namespace obs = rotind::obs;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

namespace {

/// Samples beyond the nearest-rank q-quantile of n samples.
std::size_t SamplesBeyond(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(rank, n);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, std::uint64_t samples) {
  metrics_.push_back(Entry{name, value, unit, samples});
}

void Report::Context(const std::string& key, const std::string& value) {
  context_.emplace_back(key, value);
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    out << (i == 0 ? "" : ", ") << '"' << JsonEscape(e.name)
        << "\": {\"value\": " << Number(e.value) << ", \"unit\": \""
        << JsonEscape(e.unit) << "\", \"samples\": " << e.samples << '}';
  }
  out << "}, \"context\": {";
  for (std::size_t i = 0; i < context_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << '"' << JsonEscape(context_[i].first)
        << "\": \"" << JsonEscape(context_[i].second) << '"';
  }
  out << "}}";
  return out.str();
}

void LatencySamples::Emit(Report* report) const {
  std::vector<double> all = ms;
  all.insert(all.end(), missed, std::numeric_limits<double>::infinity());
  report->Metric("p50_ms", Quantile(all, 0.50), "ms", all.size());
  report->Metric("p95_ms", Quantile(all, 0.95), "ms", all.size());
  report->Context("p95_samples_beyond",
                  std::to_string(SamplesBeyond(all.size(), 0.95)));
}

std::string ClassLatencies(const std::vector<int>& classes,
                           const std::vector<double>& ms,
                           const std::vector<std::string>& names) {
  std::string out;
  for (std::size_t c = 0; c < names.size(); ++c) {
    std::vector<double> mine;
    for (std::size_t i = 0; i < ms.size() && i < classes.size(); ++i) {
      if (classes[i] == static_cast<int>(c)) mine.push_back(ms[i]);
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s%s=%.1f/%.1f(n=%zu)",
                  out.empty() ? "" : " ", names[c].c_str(),
                  Quantile(mine, 0.5), Quantile(mine, 0.95), mine.size());
    out += buf;
  }
  return out;
}

void EmitSetup(const std::vector<double>& setup_seconds, Report* report) {
  report->Metric("setup_s", Quantile(setup_seconds, 0.5), "s",
                 setup_seconds.size());
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  if (clear) clear << "5";
}

namespace {
volatile double g_probe_sink = 0.0;
}  // namespace

double HostProbeMs() {
  std::vector<double> runs;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t x = 88172645463325252ull;
    double acc = 0.0;
    for (int i = 0; i < 4'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x >> 11) * 0x1.0p-53;
    }
    runs.push_back(SecondsSince(t0) * 1e3);
    g_probe_sink = acc;
  }
  return Quantile(runs, 0.5);
}

// ---------------------------------------------------------------------------
// Tracer

std::uint64_t Tracer::Add(const std::string& name, std::uint64_t parent,
                          std::uint64_t request, std::int64_t start_ns,
                          std::int64_t end_ns) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, parent, request, start_ns, end_ns});
  return spans_.size();
}

std::uint64_t Tracer::Open(const std::string& name, std::uint64_t parent,
                           std::uint64_t request) {
  if (!enabled_) return 0;
  const std::int64_t now = Now();
  return Add(name, parent, request, now, now);
}

void Tracer::Close(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const std::int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
}

namespace {

/// The layer a cascade stage's time belongs to.
const char* StageLayer(obs::StageId id) {
  switch (id) {
    case obs::StageId::kFftFilter:
    case obs::StageId::kVecSignature:
    case obs::StageId::kSignatureFilter:
      return "fourier";
    case obs::StageId::kWedge:
    case obs::StageId::kLbImproved:
      return "envelope";
    case obs::StageId::kDiskFetch:
      return "storage";
    default:
      return "distance";
  }
}

}  // namespace

void Tracer::AddStageChildren(const obs::QueryMetrics& metrics,
                              std::uint64_t parent, std::uint64_t request,
                              std::int64_t start_ns) {
  if (!enabled_) return;
  std::int64_t t = start_ns;
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    const auto id = static_cast<obs::StageId>(i);
    const obs::StageStats& s = metrics.stage(id);
    if (!s.used) continue;
    const auto dur = static_cast<std::int64_t>(s.wall_nanos);
    Add(std::string(StageLayer(id)) + "." + obs::StageName(id), parent,
        request, t, t + dur);
    t += dur;
  }
}

std::vector<Tracer::SelfTime> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::size_t>> children(spans_.size() + 1);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    children[spans_[i].parent].push_back(i);
  }
  std::vector<SelfTime> out;
  const auto slot = [&out](const std::string& name) -> SelfTime& {
    for (SelfTime& s : out) {
      if (s.name == name) return s;
    }
    out.push_back(SelfTime{name});
    return out.back();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (std::size_t c : children[i + 1]) {
      const std::int64_t a = std::max(spans_[c].start_ns, span.start_ns);
      const std::int64_t b = std::min(spans_[c].end_ns, span.end_ns);
      if (a < b) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0, reach = span.start_ns;
    for (const auto& [a, b] : cover) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    SelfTime& s = slot(span.name);
    const double total = static_cast<double>(span.end_ns - span.start_ns);
    s.total_ms += total / 1e6;
    s.self_ms += (total - static_cast<double>(covered)) / 1e6;
    ++s.count;
  }
  return out;
}

double Tracer::MeanSelfMs(const std::string& prefix) const {
  double self = 0.0;
  std::uint64_t count = 0;
  for (const SelfTime& s : SelfTimes()) {
    if (s.name.rfind(prefix, 0) == 0) {
      self += s.self_ms;
      count += s.count;
    }
  }
  return count == 0 ? 0.0 : self / static_cast<double>(count);
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::vector<SelfTime> self = SelfTimes();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [";
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i + 1
          << ", \"parent\": " << s.parent << ", \"req\": " << s.request
          << ", \"name\": \"" << JsonEscape(s.name)
          << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << '}';
    }
  }
  out << "\n], \"self_times\": [";
  for (std::size_t i = 0; i < self.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \""
        << JsonEscape(self[i].name) << "\", \"count\": " << self[i].count
        << ", \"total_ms\": " << Number(self[i].total_ms)
        << ", \"self_ms\": " << Number(self[i].self_ms) << '}';
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Per-layer metrics from engine counters.

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

bool IsTerminal(obs::StageId id) {
  return id == obs::StageId::kWedge || id == obs::StageId::kExactScan ||
         id == obs::StageId::kFullScan || id == obs::StageId::kFullScanBanded;
}

}  // namespace

void EmitEngineLayers(const obs::QueryMetrics& m, std::uint64_t queries,
                      std::uint64_t filtered_queries, Report* report) {
  if (queries == 0) return;
  const double q = static_cast<double>(queries);
  std::uint64_t abandons = 0, terminal_steps = 0, terminal_nanos = 0;
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    const auto id = static_cast<obs::StageId>(i);
    const obs::StageStats& s = m.stage(id);
    abandons += s.early_abandons;
    if (IsTerminal(id)) {
      terminal_steps += s.steps;
      terminal_nanos += s.wall_nanos;
    }
  }
  report->Metric("search.steps_per_query",
                 static_cast<double>(m.attributed_total_steps()) / q, "steps",
                 queries);
  report->Metric("search.early_abandons_per_query",
                 static_cast<double>(abandons) / q, "count", queries);
  const obs::StageStats& wedge = m.stage(obs::StageId::kWedge);
  if (wedge.used) {
    report->Metric("search.wedge.ms_per_query",
                   static_cast<double>(wedge.wall_nanos) / 1e6 / q, "ms",
                   queries);
    report->Metric("search.wedge.prune_ratio",
                   Ratio(static_cast<double>(wedge.candidates_pruned),
                         static_cast<double>(wedge.candidates_entered)),
                   "ratio", queries);
  }
  if (terminal_steps > 0) {
    report->Metric("simd.ns_per_step",
                   static_cast<double>(terminal_nanos) /
                       static_cast<double>(terminal_steps),
                   "ns", queries);
  }
  if (m.wedge.wedges_tested > 0) {
    report->Metric("envelope.wedges_tested_per_query",
                   static_cast<double>(m.wedge.wedges_tested) / q, "count",
                   queries);
    report->Metric("envelope.wedge_prune_ratio",
                   Ratio(static_cast<double>(m.wedge.wedges_pruned),
                         static_cast<double>(m.wedge.wedges_tested)),
                   "ratio", queries);
    report->Metric("envelope.leaves_per_query",
                   static_cast<double>(m.wedge.leaves_evaluated) / q, "count",
                   queries);
  }
  const obs::StageStats& fetch = m.stage(obs::StageId::kDiskFetch);
  if (fetch.used) {
    report->Metric("storage.fetch_ms_per_query",
                   static_cast<double>(fetch.wall_nanos) / 1e6 / q, "ms",
                   queries);
    report->Metric("storage.pool_hit_ratio",
                   Ratio(static_cast<double>(fetch.pool_hits),
                         static_cast<double>(fetch.pool_hits +
                                             fetch.pages_read)),
                   "ratio", queries);
    report->Metric("storage.pages_read_per_query",
                   static_cast<double>(fetch.pages_read) / q, "count",
                   queries);
    report->Metric("storage.io_kib_per_query",
                   static_cast<double>(fetch.io_bytes) / 1024.0 / q, "KiB",
                   queries);
  }
  const obs::StageStats& sig = m.stage(obs::StageId::kVecSignature);
  if (sig.used && filtered_queries > 0) {
    report->Metric("fourier.filter_ms_per_query",
                   static_cast<double>(sig.wall_nanos) / 1e6 /
                       static_cast<double>(filtered_queries),
                   "ms", filtered_queries);
    report->Metric("fourier.filter_prune_ratio",
                   Ratio(static_cast<double>(sig.candidates_pruned),
                         static_cast<double>(sig.candidates_entered)),
                   "ratio", filtered_queries);
    report->Metric("fourier.filter_ns_per_candidate",
                   Ratio(static_cast<double>(sig.wall_nanos),
                         static_cast<double>(sig.candidates_entered)),
                   "ns", filtered_queries);
  }
}

std::uint64_t UnbalancedStages(const obs::QueryMetrics& m) {
  std::uint64_t bad = 0;
  for (const obs::StageStats& s : m.stages) {
    if (s.candidates_entered != s.candidates_pruned + s.candidates_survived) {
      ++bad;
    }
  }
  return bad;
}

void OverheadMeter::Emit(Report* report) const {
  if (traced_n_ == 0 || plain_n_ == 0 || traced_s_ <= 0 || plain_s_ <= 0) {
    return;
  }
  const double traced_qps = static_cast<double>(traced_n_) / traced_s_;
  const double plain_qps = static_cast<double>(plain_n_) / plain_s_;
  report->Metric("obs.trace_overhead_frac", 1.0 - traced_qps / plain_qps,
                 "ratio", traced_n_ + plain_n_);
}

// ---------------------------------------------------------------------------
// Inputs and the answer gate.

Series NoisyRotation(const Series& row, rotind::Rng* rng) {
  Series q = rotind::RotateLeft(
      row, static_cast<long>(rng->NextBounded(row.size())));
  for (double& v : q) v += rng->Gaussian(0.0, 0.05);
  rotind::ZNormalize(&q);
  return q;
}

std::vector<int> StratifiedClasses(std::size_t count,
                                   const std::vector<int>& per_block,
                                   rotind::Rng* rng) {
  std::vector<int> block;
  for (std::size_t c = 0; c < per_block.size(); ++c) {
    block.insert(block.end(), per_block[c], static_cast<int>(c));
  }
  std::vector<int> out;
  while (out.size() < count) {
    for (std::size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng->NextBounded(i)]);
    }
    out.insert(out.end(), block.begin(), block.end());
  }
  out.resize(count);
  return out;
}

std::vector<std::size_t> StratifiedRows(std::size_t count, std::size_t rows,
                                        rotind::Rng* rng) {
  constexpr std::size_t kStrata = 32;
  std::vector<std::size_t> out;
  while (out.size() < count) {
    const std::size_t first = out.size();
    for (std::size_t s = 0; s < kStrata; ++s) {
      const std::size_t lo = s * rows / kStrata;
      const std::size_t hi = std::max(lo + 1, (s + 1) * rows / kStrata);
      out.push_back(std::min(rows - 1, lo + rng->NextBounded(hi - lo)));
    }
    for (std::size_t i = kStrata; i > 1; --i) {
      std::swap(out[first + i - 1], out[first + rng->NextBounded(i)]);
    }
  }
  out.resize(count);
  return out;
}

bool SameAnswer(std::vector<Neighbor> got, std::vector<Neighbor> want,
                std::string* why) {
  const auto by_distance = [](const Neighbor& a, const Neighbor& b) {
    return a.distance != b.distance ? a.distance < b.distance
                                    : a.index < b.index;
  };
  std::sort(got.begin(), got.end(), by_distance);
  std::sort(want.begin(), want.end(), by_distance);
  char buf[160];
  if (got.size() != want.size()) {
    std::snprintf(buf, sizeof(buf), "%zu results, reference has %zu",
                  got.size(), want.size());
    *why = buf;
    return false;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].distance != want[i].distance ||
        got[i].index != want[i].index) {
      std::snprintf(buf, sizeof(buf),
                    "result %zu is (%d, %.17g), reference (%d, %.17g)", i,
                    got[i].index, got[i].distance, want[i].index,
                    want[i].distance);
      *why = buf;
      return false;
    }
  }
  return true;
}

std::vector<Neighbor> AsNeighbors(const rotind::ScanResult& r) {
  if (r.best_index < 0) return {};
  return {Neighbor{r.best_index, r.best_distance, r.best_shift,
                   r.best_mirrored}};
}

std::vector<std::size_t> SampleIndices(std::size_t n, std::size_t count,
                                       std::uint64_t seed) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  if (count < n) {
    rotind::Rng rng(seed);
    for (std::size_t i = 0; i < count; ++i) {
      std::swap(all[i], all[i + rng.NextBounded(n - i)]);
    }
    all.resize(count);
  }
  std::sort(all.begin(), all.end());
  return all;
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

int FinishRun(const Config& cfg, const Tracer& tracer, std::uint64_t wrong,
              std::uint64_t unbalanced, std::uint64_t step_mismatches,
              double probe_before, double probe_after, Report* report) {
  report->correct = wrong == 0 && unbalanced == 0 && step_mismatches == 0;
  if (unbalanced + step_mismatches > 0) {
    Log("trace invariants broken: %llu unbalanced stages, %llu step "
        "mismatches",
        static_cast<unsigned long long>(unbalanced),
        static_cast<unsigned long long>(step_mismatches));
  }
  report->Context("host_probe_ms_before", std::to_string(probe_before));
  report->Context("host_probe_ms_after", std::to_string(probe_after));
  if (cfg.trace && !tracer.WriteJson(cfg.trace_out)) {
    Log("cannot write trace %s", cfg.trace_out.c_str());
    return 2;
  }
  return report->correct ? 0 : 1;
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

void Log(const char* fmt, ...) {
  std::fputs("perfbench: ", stderr);
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace perfbench

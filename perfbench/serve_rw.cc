// Workload serve-rw: the `rotind serve` request path with online updates.
// A QueryServer over ShardedIndex::SnapshotEngine() answers protocol lines
// while the same generator inserts and removes rows, triggers background
// compaction every N writes, and swaps the server onto each new generation
// (the in-process form of the `reload` verb). Per-shard pools are much
// smaller than a shard, so every query misses in the pool. The only
// workload that exercises serve, the index write/compaction/reload path,
// and pool misses.
//
// The operation sequence is fixed by the seed and sized from --seconds, so
// both commits of a comparison do the same writes and compactions and end
// with the same shard count; the measured phase lasts as long as the
// sequence takes.

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.h"
#include "src/core/flat_dataset.h"
#include "src/datasets/synthetic.h"
#include "src/index/index_io.h"
#include "src/index/sharded_index.h"
#include "src/io/serialize.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/storage/manifest.h"

namespace perfbench {
namespace {

using rotind::Dataset;
using rotind::QueryEngine;
using rotind::ShardedIndex;
namespace serve = rotind::serve;

struct Scale {
  std::size_t rows, length, pool_pages, setups, checks;
  double reads_per_second;  ///< Sizes the sequence: reads = this * seconds.
};
Scale ScaleOf(const Config& cfg) {
  return cfg.tiny ? Scale{400, 64, 8, 2, 1000, 40.0}
                  : Scale{6000, 128, 64, 5, 48, 48.0};
}

constexpr std::size_t kShards = 4;
constexpr std::size_t kReadsPerWrite = 4;
constexpr std::size_t kCompactions = 4;
/// k-NN : range = 7 : 3 in every block of ten reads.
const std::vector<int> kMix = {7, 3};
constexpr double kRadius = 2.0;

/// One line of the generated operation file.
struct Op {
  enum Kind { kRead, kInsert, kRemove, kCompact } kind = kRead;
  std::string line;     ///< kRead: the protocol line.
  std::uint64_t arg = 0;  ///< kInsert: row of inserts.rind; kRemove: id.
};

/// Builds `shards` contiguous RIDX shards of `db` (BuildIndexFile) and
/// their manifest (storage::WriteManifest) in `dir`: the set-up's index
/// builds. Returns the manifest path, or "" on failure. The summed build
/// time goes to `build_ms`, spans to `tracer` under `parent`.
std::string BuildShardSet(const Dataset& db, std::size_t shards,
                          const std::string& dir, Tracer* tracer,
                          std::uint64_t parent, double* build_ms) {
  rotind::storage::Manifest manifest;
  manifest.generation = 1;
  *build_ms = 0.0;
  const std::size_t per = (db.size() + shards - 1) / shards;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t begin = s * per;
    const std::size_t end = std::min(db.size(), begin + per);
    Dataset part;
    part.items.assign(db.items.begin() + static_cast<std::ptrdiff_t>(begin),
                      db.items.begin() + static_cast<std::ptrdiff_t>(end));
    const std::string file = "shard-" + std::to_string(s) + ".ridx";
    const Clock::time_point t0 = Clock::now();
    const rotind::Status built =
        rotind::BuildIndexFile(part, {}, dir + "/" + file);
    const Clock::time_point t1 = Clock::now();
    tracer->Add("index.build_shard", parent, 0, tracer->ToNs(t0),
                tracer->ToNs(t1));
    *build_ms += MillisBetween(t0, t1);
    if (!built.ok()) {
      Log("shard build failed: %s", built.ToString().c_str());
      return "";
    }
    manifest.shards.push_back({file, end - begin, db.length()});
  }
  const std::string path = dir + "/index.rman";
  const Clock::time_point t0 = Clock::now();
  const rotind::Status wrote = rotind::storage::WriteManifest(manifest, path);
  tracer->Add("storage.write_manifest", parent, 0, tracer->ToNs(t0),
              tracer->Now());
  if (!wrote.ok()) {
    Log("manifest write failed: %s", wrote.ToString().c_str());
    return "";
  }
  return path;
}

/// Everything set-up builds; destroyed in reverse order (server first).
struct System {
  std::unique_ptr<ShardedIndex> index;
  std::unique_ptr<serve::QueryServer> server;
  ~System() {
    if (server) server->Shutdown();
  }
};

/// One read request and what came back.
struct Read {
  serve::Request request;
  Clock::time_point submitted, done;
  /// Engines (by swap count) that may have answered: the server resolves
  /// the engine at dequeue, somewhere between these two.
  std::uint64_t engine_lo = 0, engine_hi = 0;
  bool completed = false;
  serve::Response response;
};

}  // namespace

int GenServeRw(const Config& cfg) {
  const Scale s = ScaleOf(cfg);
  Dataset db;
  db.items =
      rotind::MakeProjectilePointsDatabase(s.rows, s.length, kDatabaseSeed);
  const auto reads = static_cast<std::size_t>(s.reads_per_second *
                                              cfg.seconds) + 8;
  const std::size_t writes = reads / kReadsPerWrite;
  const std::size_t per_pass = std::max<std::size_t>(1, writes / kCompactions);
  // Reads address live ordinals of the serving snapshot. Writes alternate
  // insert / remove, so a snapshot always holds at least `rows` live rows
  // and every id below `rows` is valid. Removes pick live rows of the
  // initial shards, whose global ids never change across compactions.
  rotind::Rng rng(cfg.seed);
  const std::vector<int> classes = StratifiedClasses(reads, kMix, &rng);
  Dataset inserts;  // fresh rows: noisy rotations of random rows
  for (std::size_t i = 0; i < writes / 2 + 1; ++i) {
    inserts.items.push_back(
        NoisyRotation(db.items[rng.NextBounded(db.items.size())], &rng));
  }
  std::vector<std::uint64_t> live(s.rows);
  for (std::size_t i = 0; i < s.rows; ++i) live[i] = i;
  std::ostringstream ops;
  std::size_t inserted = 0, written = 0;
  for (std::size_t r = 0; r < reads; ++r) {
    const std::uint64_t id = rng.NextBounded(s.rows);
    if (classes[r] == 1) {
      ops << "R range " << id << ' ' << kRadius << '\n';
    } else {
      ops << "R knn " << id << ' ' << 2 + rng.NextBounded(7) << '\n';
    }
    if ((r + 1) % kReadsPerWrite != 0) continue;
    if (written % 2 == 0) {
      ops << "I " << inserted++ << '\n';
    } else {
      const std::size_t at = rng.NextBounded(live.size());
      ops << "D " << live[at] << '\n';
      live[at] = live.back();
      live.pop_back();
    }
    if (++written % per_pass == 0 && written / per_pass <= kCompactions) {
      ops << "C\n";
    }
  }
  for (const auto& [data, name] : {std::pair{&db, "db.rind"},
                                   std::pair{&inserts, "inserts.rind"}}) {
    const rotind::Status saved =
        rotind::SaveDatasetBinaryStatus(*data, cfg.dir + "/" + name);
    if (!saved.ok()) {
      Log("cannot write %s: %s", name, saved.ToString().c_str());
      return 2;
    }
  }
  std::ofstream out(cfg.dir + "/ops.txt");
  out << ops.str();
  return out ? 0 : 2;
}

int RunServeRw(const Config& cfg, Report* report) {
  const Scale s = ScaleOf(cfg);
  rotind::StatusOr<Dataset> inserts_or =
      rotind::LoadDatasetBinaryStatus(cfg.dir + "/inserts.rind");
  std::vector<Op> ops;
  {
    std::ifstream in(cfg.dir + "/ops.txt");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      Op op;
      switch (line[0]) {
        case 'R':
          op.line = line.substr(2);
          break;
        case 'I':
          op.kind = Op::kInsert;
          op.arg = std::stoull(line.substr(2));
          break;
        case 'D':
          op.kind = Op::kRemove;
          op.arg = std::stoull(line.substr(2));
          break;
        default:
          op.kind = Op::kCompact;
      }
      ops.push_back(std::move(op));
    }
  }
  if (!inserts_or.ok() || ops.empty()) {
    Log("cannot read the generated operations");
    return 2;
  }
  for (const Op& op : ops) {
    if (op.kind == Op::kRead && !serve::ParseRequest(op.line).ok()) {
      Log("bad request line '%s'", op.line.c_str());
      return 2;
    }
  }
  const Dataset inserts = *std::move(inserts_or);
  const std::string data = cfg.dir + "/data";
  // Server workers + generator + compactor fit the CPUs we may use.
  const int workers = std::max(1, AvailableCpus() - 2);
  const std::size_t outstanding_limit = 2 * static_cast<std::size_t>(workers);
  Tracer tracer(cfg.trace);
  const double probe_before = HostProbeMs();

  // Set-up, repeated: load rows, build shards + manifest, open with small
  // pools, snapshot an engine, start the server. The last one stays.
  std::vector<double> setup_s, load_ms, build_ms, open_ms, snapshot_ms;
  std::unique_ptr<System> sys;
  std::vector<std::shared_ptr<const QueryEngine>> engines;
  for (std::size_t rep = 0; rep < s.setups; ++rep) {
    sys.reset();
    engines.clear();
    if (rep + 1 == s.setups) ResetPeakRss();  // the peak of the kept set-up
    std::filesystem::remove_all(data);
    std::filesystem::create_directories(data);
    const std::uint64_t span = tracer.Open("setup", 0, 0);
    const Clock::time_point t0 = Clock::now();
    rotind::StatusOr<Dataset> db =
        rotind::LoadDatasetBinaryStatus(cfg.dir + "/db.rind");
    const Clock::time_point t1 = Clock::now();
    tracer.Add("io.load", span, 0, tracer.ToNs(t0), tracer.ToNs(t1));
    if (!db.ok()) {
      Log("cannot load dataset: %s", db.status().ToString().c_str());
      return 2;
    }
    double build = 0.0;
    const std::string manifest =
        BuildShardSet(*db, kShards, data, &tracer, span, &build);
    if (manifest.empty()) return 2;
    rotind::ShardedOptions options;
    options.pool_pages = s.pool_pages;
    const Clock::time_point t2 = Clock::now();
    auto opened = ShardedIndex::Open(manifest, options);
    const Clock::time_point t3 = Clock::now();
    tracer.Add("index.open", span, 0, tracer.ToNs(t2), tracer.ToNs(t3));
    if (!opened.ok()) {
      Log("open failed: %s", opened.status().ToString().c_str());
      return 2;
    }
    auto next = std::make_unique<System>();
    next->index = *std::move(opened);
    engines.push_back(next->index->SnapshotEngine());
    const Clock::time_point t4 = Clock::now();
    tracer.Add("index.snapshot_engine", span, 0, tracer.ToNs(t3),
               tracer.ToNs(t4));
    serve::ServerOptions server_options;
    server_options.num_workers = workers;
    next->server = std::make_unique<serve::QueryServer>(
        engines.back(), server_options, next->index->generation());
    next->server->Start();
    const Clock::time_point t5 = Clock::now();
    tracer.Add("serve.start", span, 0, tracer.ToNs(t4), tracer.ToNs(t5));
    tracer.Close(span);
    setup_s.push_back(std::chrono::duration<double>(t5 - t0).count());
    load_ms.push_back(MillisBetween(t0, t1));
    build_ms.push_back(build);
    open_ms.push_back(MillisBetween(t2, t3));
    snapshot_ms.push_back(MillisBetween(t3, t4));
    sys = std::move(next);
  }
  ShardedIndex& index = *sys->index;
  serve::QueryServer& server = *sys->server;
  const std::uint64_t data_bytes_before = DirectoryBytes(data);

  // Warm-up straight on the engine, so server stats cover only the
  // measured reads.
  for (std::size_t id = 0; id < 2; ++id) {
    const QueryEngine& engine = *engines.back();
    auto row = engine.backend()->TryFetch(id, nullptr);
    if (row.ok()) {
      engine.Knn(Series(row->data(), row->data() + row->length()), 2);
    }
  }

  std::size_t read_count = 0;
  for (const Op& op : ops) read_count += op.kind == Op::kRead ? 1 : 0;
  std::vector<Read> reads(read_count);
  std::mutex mu;  // guards `outstanding`
  std::condition_variable cv;
  std::size_t outstanding = 0;
  std::atomic<std::uint64_t> swaps_started{0}, swaps_done{0};
  std::vector<double> parse_us, format_us, insert_us, remove_us, swap_ms,
      compact_ms;
  std::uint64_t write_failures = 0, shed = 0, inserted = 0;

  rotind::BackgroundCompactor compactor(index, {});
  std::thread watcher;
  std::atomic<bool> pass_done{false};
  Clock::time_point pass_start;
  const auto finish_pass = [&] {
    watcher.join();
    pass_done = false;
    compact_ms.push_back(MillisBetween(pass_start, Clock::now()));
    const std::int64_t c0 = tracer.Now();
    if (!compactor.last_status().ok()) {
      Log("compaction failed: %s",
          compactor.last_status().ToString().c_str());
      ++write_failures;
      return;
    }
    tracer.Add("index.compact", 0, 0, tracer.ToNs(pass_start), c0);
    const Clock::time_point t0 = Clock::now();
    engines.push_back(index.SnapshotEngine());
    const Clock::time_point t1 = Clock::now();
    ++swaps_started;
    const rotind::Status swapped =
        server.SwapEngine(engines.back(), index.generation());
    ++swaps_done;
    const Clock::time_point t2 = Clock::now();
    tracer.Add("index.snapshot_engine", 0, 0, tracer.ToNs(t0),
               tracer.ToNs(t1));
    tracer.Add("serve.swap", 0, 0, tracer.ToNs(t1), tracer.ToNs(t2));
    snapshot_ms.push_back(MillisBetween(t0, t1));
    swap_ms.push_back(MillisBetween(t1, t2));
    if (!swapped.ok()) {
      Log("swap failed: %s", swapped.ToString().c_str());
      ++write_failures;
    }
  };

  OverheadMeter overhead;
  Clock::time_point block_start = Clock::now();
  const Clock::time_point start = block_start;
  std::size_t next_read = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const bool trace_op = cfg.trace && OverheadMeter::TracedBlock(i);
    if (cfg.trace && i > 0 && i % OverheadMeter::kBlock == 0) {
      const Clock::time_point now = Clock::now();
      overhead.Record(OverheadMeter::TracedBlock(i - 1),
                      std::chrono::duration<double>(now - block_start).count(),
                      OverheadMeter::kBlock);
      block_start = now;
    }
    if (pass_done) finish_pass();
    const Op& op = ops[i];
    switch (op.kind) {
      case Op::kRead: {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return outstanding < outstanding_limit; });
          ++outstanding;
        }
        Read& read = reads[next_read++];
        const Clock::time_point p0 = Clock::now();
        rotind::StatusOr<serve::Request> parsed = serve::ParseRequest(op.line);
        const Clock::time_point p1 = Clock::now();
        if (trace_op) parse_us.push_back(MillisBetween(p0, p1) * 1e3);
        read.request = *parsed;  // every line parsed once before set-up
        read.engine_lo = swaps_done;
        read.submitted = Clock::now();
        const std::uint64_t req = next_read;
        const rotind::Status admitted = server.Submit(
            read.request,
            [&, trace_op, req, &read = read](const serve::Request& request,
                                             const serve::Response& response) {
              read.done = Clock::now();
              read.engine_hi = swaps_started;
              read.response = response;
              const Clock::time_point f0 = Clock::now();
              const std::string line = serve::FormatResponse(request, response);
              const Clock::time_point f1 = Clock::now();
              if (trace_op) {
                const std::uint64_t span =
                    tracer.Add(std::string("serve.") +
                                   serve::OpName(request.op),
                               0, req, tracer.ToNs(read.submitted),
                               tracer.ToNs(read.done));
                tracer.Add("serve.server", span, req,
                           tracer.ToNs(read.done - response.latency),
                           tracer.ToNs(read.done));
              }
              std::lock_guard<std::mutex> lock(mu);
              read.completed = true;
              if (trace_op) format_us.push_back(MillisBetween(f0, f1) * 1e3);
              --outstanding;
              cv.notify_all();
            });
        if (!admitted.ok()) {
          ++shed;
          std::lock_guard<std::mutex> lock(mu);
          --outstanding;
        }
        break;
      }
      case Op::kInsert: {
        const Series& row = inserts.items[op.arg];
        const Clock::time_point t0 = Clock::now();
        const auto id = index.Insert(row);
        const Clock::time_point t1 = Clock::now();
        if (trace_op) {
          insert_us.push_back(MillisBetween(t0, t1) * 1e3);
          tracer.Add("index.insert", 0, 0, tracer.ToNs(t0), tracer.ToNs(t1));
        }
        if (id.ok()) {
          ++inserted;
        } else {
          ++write_failures;
        }
        break;
      }
      case Op::kRemove: {
        const Clock::time_point t0 = Clock::now();
        const rotind::Status removed = index.Remove(op.arg);
        const Clock::time_point t1 = Clock::now();
        if (trace_op) {
          remove_us.push_back(MillisBetween(t0, t1) * 1e3);
          tracer.Add("index.remove", 0, 0, tracer.ToNs(t0), tracer.ToNs(t1));
        }
        if (!removed.ok()) ++write_failures;
        break;
      }
      case Op::kCompact:
        // One pass at a time: a trigger waits for the previous pass, so
        // every run makes the same number of passes.
        if (watcher.joinable()) finish_pass();
        pass_start = Clock::now();
        watcher = std::thread([&] {
          compactor.Trigger();
          compactor.WaitIdle();
          pass_done = true;
        });
        break;
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return outstanding == 0; });
  }
  if (watcher.joinable()) finish_pass();
  const double wall = SecondsSince(start);
  const double rss = PeakRssMiB();
  const double probe_after = HostProbeMs();
  const serve::ServerStats stats = server.stats();

  // Answer gate: a seeded sample of reads against the exact_scan cascade
  // over the live rows of each engine that may have answered (before or
  // after a reload). One engine's rows are materialized at a time.
  const std::vector<std::size_t> sample =
      SampleIndices(read_count, s.checks, cfg.seed + 17);
  std::vector<char> matched(sample.size(), 0);
  LatencySamples lat;
  std::uint64_t failed_reads = shed;
  std::vector<double> server_ms;
  std::vector<int> lat_class;
  for (const Read& read : reads) {
    if (read.completed && read.response.status.ok()) {
      lat.ms.push_back(MillisBetween(read.submitted, read.done));
      lat_class.push_back(read.request.op == serve::RequestOp::kRange);
      server_ms.push_back(
          std::chrono::duration<double, std::milli>(read.response.latency)
              .count());
    } else if (read.completed) {
      ++failed_reads;
    }
  }
  lat.missed = failed_reads;
  for (std::size_t e = 0; e < engines.size(); ++e) {
    std::vector<std::size_t> todo;
    for (std::size_t j = 0; j < sample.size(); ++j) {
      const Read& read = reads[sample[j]];
      if (!matched[j] && read.engine_lo <= e && e <= read.engine_hi) {
        todo.push_back(j);
      }
    }
    if (todo.empty()) continue;
    const rotind::storage::StorageBackend& rows = *engines[e]->backend();
    std::vector<Series> items(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      auto h = rows.TryFetch(r, nullptr);
      if (!h.ok()) return 2;
      items[r].assign(h->data(), h->data() + h->length());
    }
    const rotind::FlatDataset flat = rotind::FlatDataset::FromItems(items);
    rotind::EngineOptions exact;
    exact.cascade.stages = {rotind::StageKind::kExactScan};
    const QueryEngine reference(flat, exact);
    rotind::ParallelFor(todo.size(), AvailableCpus(), [&](std::size_t t) {
      const std::size_t j = todo[t];
      const Read& read = reads[sample[j]];
      if (!read.completed || !read.response.status.ok()) return;
      const Series& q = items[read.request.query_id];
      std::vector<Neighbor> want =
          read.request.op == serve::RequestOp::kRange
              ? reference.Range(q, read.request.radius)
              : reference.Knn(q, read.response.effective_k);
      if (cfg.corrupt_reference && j == 0 && !want.empty()) {
        want[0].distance += 1.0;
      }
      std::string why;
      matched[j] = SameAnswer(read.response.neighbors, want, &why);
    });
  }
  std::uint64_t wrong = 0;
  for (std::size_t j = 0; j < sample.size(); ++j) {
    const Read& read = reads[sample[j]];
    if (read.completed && read.response.status.ok() && !matched[j]) {
      ++wrong;
      Log("serve-rw read %zu '%s %zu' matches no engine in [%llu, %llu]",
          sample[j], serve::OpName(read.request.op), read.request.query_id,
          static_cast<unsigned long long>(read.engine_lo),
          static_cast<unsigned long long>(read.engine_hi));
    }
  }

  // Traced runs: the served engine is a serial scan; instrumentation must
  // not change its step counts.
  std::uint64_t step_mismatches = 0;
  const std::uint64_t unbalanced = UnbalancedStages(stats.engine_metrics);
  if (cfg.trace) {
    const QueryEngine& engine = *engines.back();
    for (std::size_t id = 0; id < 4; ++id) {
      auto row = engine.backend()->TryFetch(id, nullptr);
      if (!row.ok()) return 2;
      const Series q(row->data(), row->data() + row->length());
      rotind::StepCounter plain, instrumented;
      rotind::obs::QueryMetrics m;
      engine.Knn(q, 4, &plain);
      engine.Knn(q, 4, &instrumented, &m);
      if (plain.total_steps() != instrumented.total_steps() ||
          m.attributed_total_steps() != plain.total_steps()) {
        ++step_mismatches;
      }
    }
  }

  const std::size_t writes = ops.size() - read_count;
  report->attempted = read_count + writes;
  report->failed = failed_reads + write_failures + wrong;
  EmitSetup(setup_s, report);
  report->Metric("qps", static_cast<double>(lat.ms.size()) / wall, "1/s",
                 lat.ms.size());
  lat.Emit(report);
  report->Metric("peak_rss_mb", rss, "MiB", 1);
  if (cfg.trace) {
    const double row_bytes =
        static_cast<double>(s.length * sizeof(double));
    const double engine_ms =
        stats.engine_metrics.latency.count() == 0
            ? 0.0
            : static_cast<double>(stats.engine_metrics.latency.total_nanos()) /
                  1e6 /
                  static_cast<double>(stats.engine_metrics.latency.count());
    const std::uint64_t added = DirectoryBytes(data) - data_bytes_before;
    report->Metric("io.load_ms", Quantile(load_ms, 0.5), "ms", load_ms.size());
    report->Metric("index.build_ms", Quantile(build_ms, 0.5), "ms",
                   build_ms.size());
    report->Metric("index.open_ms", Quantile(open_ms, 0.5), "ms",
                   open_ms.size());
    report->Metric("index.insert_us_p50", Quantile(insert_us, 0.5), "us",
                   insert_us.size());
    report->Metric("index.remove_us_p50", Quantile(remove_us, 0.5), "us",
                   remove_us.size());
    report->Metric("index.snapshot_engine_ms_p50", Quantile(snapshot_ms, 0.5),
                   "ms", snapshot_ms.size());
    report->Metric("index.compact_ms_p50", Quantile(compact_ms, 0.5), "ms",
                   compact_ms.size());
    report->Metric("index.compactions",
                   static_cast<double>(compactor.passes()), "count", 1);
    report->Metric("index.shards_end",
                   static_cast<double>(index.shard_count()), "count", 1);
    report->Metric("index.write_amp",
                   inserted > 0 ? static_cast<double>(added) /
                                      (static_cast<double>(inserted) *
                                       row_bytes)
                                : 0.0,
                   "ratio", inserted);
    report->Metric("index.space_amp",
                   static_cast<double>(DirectoryBytes(data)) /
                       (static_cast<double>(index.live_size()) * row_bytes),
                   "ratio", 1);
    report->Metric("serve.queue_wait_ms_mean", Mean(server_ms) - engine_ms,
                   "ms", server_ms.size());
    report->Metric("serve.engine_ms_mean", engine_ms, "ms",
                   stats.engine_metrics.latency.count());
    report->Metric("serve.client_self_ms_mean", Mean(lat.ms) - Mean(server_ms),
                   "ms", lat.ms.size());
    report->Metric("serve.swap_ms_p50", Quantile(swap_ms, 0.5), "ms",
                   swap_ms.size());
    report->Metric("serve.parse_us_p50", Quantile(parse_us, 0.5), "us",
                   parse_us.size());
    report->Metric("serve.format_us_p50", Quantile(format_us, 0.5), "us",
                   format_us.size());
    report->Metric("serve.reloads", static_cast<double>(stats.reloads),
                   "count", 1);
    report->Metric("serve.shed", static_cast<double>(stats.shed), "count", 1);
    EmitEngineLayers(stats.engine_metrics, stats.completed_ok, 0, report);
    overhead.Emit(report);
  }
  report->Context("class_latency_ms",
                  ClassLatencies(lat_class, lat.ms, {"knn", "range"}));
  report->Context("rows", std::to_string(s.rows));
  report->Context("length", std::to_string(s.length));
  report->Context("server_workers", std::to_string(workers));
  report->Context("outstanding_requests", std::to_string(outstanding_limit));
  report->Context("pool_pages_per_shard", std::to_string(s.pool_pages));
  report->Context("measured_seconds", std::to_string(wall));
  report->Context("checked_answers", std::to_string(sample.size()));
  return FinishRun(cfg, tracer, wrong, unbalanced, step_mismatches,
                   probe_before, probe_after, report);
}

}  // namespace perfbench

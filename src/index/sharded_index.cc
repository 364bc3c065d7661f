#include "src/index/sharded_index.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <queue>
#include <string>
#include <utility>

#include "src/core/contracts.h"

namespace rotind {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoHoldout = std::numeric_limits<std::size_t>::max();

/// Sorted-ascending union of two sorted-ascending tombstone lists
/// (duplicates collapse — a row deleted both in the manifest and in the
/// delta is dead once).
std::vector<std::uint64_t> MergeTombstones(
    const std::vector<std::uint64_t>& a, const std::vector<std::uint64_t>& b) {
  std::vector<std::uint64_t> merged;
  merged.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(merged));
  return merged;
}

/// A non-empty part of a snapshot's live-ordinal space.
struct PartRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

std::vector<PartRange> NonEmptyParts(const ShardedSnapshot& snap) {
  std::vector<PartRange> parts;
  for (std::size_t p = 0; p + 1 < snap.part_offsets.size(); ++p) {
    if (snap.part_offsets[p + 1] > snap.part_offsets[p]) {
      parts.push_back({snap.part_offsets[p], snap.part_offsets[p + 1]});
    }
  }
  return parts;
}

/// Replays the union of per-part k-NN results (already mapped to live
/// ordinals, already sorted by ordinal — the monolithic scan order)
/// through the exact acceptance rule QueryEngine's KnnCollector uses: a
/// max-heap of size k, strict-< admission against the k-th-best distance.
/// The distance multiset is provably the global top k (any candidate
/// missing from its part's local top k is at or beyond the local k-th
/// distance, which is at or beyond the global k-th). When distinct rows
/// TIE exactly at the k-th distance, which tied ROW is reported may
/// differ from the serial scan (heap eviction among equal keys is
/// structural) — distances never do.
std::vector<Neighbor> ReplayKnn(std::vector<Neighbor> by_ordinal, int k) {
  struct FurtherFirst {
    bool operator()(const Neighbor& a, const Neighbor& b) const {
      return a.distance < b.distance;
    }
  };
  std::priority_queue<Neighbor, std::vector<Neighbor>, FurtherFirst> heap;
  for (const Neighbor& n : by_ordinal) {
    const double threshold =
        static_cast<int>(heap.size()) < k ? kInf : heap.top().distance;
    if (n.distance >= threshold) continue;
    heap.push(n);
    if (static_cast<int>(heap.size()) > k) heap.pop();
  }
  std::vector<Neighbor> out;
  out.reserve(heap.size());
  while (!heap.empty()) {
    out.push_back(heap.top());
    heap.pop();
  }
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotView

SnapshotView::SnapshotView(std::shared_ptr<const ShardedSnapshot> snapshot,
                           std::size_t begin, std::size_t end)
    : snapshot_(std::move(snapshot)), begin_(begin), end_(end) {
  ROTIND_CONTRACT(snapshot_ != nullptr, "SnapshotView over a null snapshot");
  ROTIND_CONTRACT(begin_ <= end_ && end_ <= snapshot_->live_total(),
                  "SnapshotView range outside the snapshot's live ordinals");
}

std::size_t SnapshotView::PartOf(std::size_t ordinal) const {
  const auto& offsets = snapshot_->part_offsets;
  // upper_bound lands one past the part whose [offset, next) holds the
  // ordinal; empty parts (equal adjacent offsets) are skipped naturally.
  const auto it =
      std::upper_bound(offsets.begin(), offsets.end(), ordinal);
  return static_cast<std::size_t>(it - offsets.begin()) - 1;
}

storage::SeriesHandle SnapshotView::Fetch(std::size_t i,
                                          storage::FetchStats* stats,
                                          storage::PageHold* hold) const {
  const std::size_t ordinal = begin_ + i;
  const std::size_t part = PartOf(ordinal);
  const std::size_t at = ordinal - snapshot_->part_offsets[part];
  if (part < snapshot_->shards.size()) {
    return snapshot_->shards[part]->Fetch(snapshot_->shard_live[part][at],
                                          stats, hold);
  }
  // Delta rows live in the snapshot's flattened buffer, which this view
  // keeps alive — a zero-copy borrow, no I/O to account.
  return storage::SeriesHandle::Borrowed(snapshot_->delta->row(at),
                                         snapshot_->length);
}

int SnapshotView::label(std::size_t i) const {
  const std::size_t ordinal = begin_ + i;
  const std::size_t part = PartOf(ordinal);
  const std::size_t at = ordinal - snapshot_->part_offsets[part];
  if (part < snapshot_->shards.size()) {
    return snapshot_->shards[part]->label(snapshot_->shard_live[part][at]);
  }
  return snapshot_->delta->labels[at];
}

Status SnapshotView::error() const {
  for (const auto& shard : snapshot_->shards) {
    Status s = shard->error();
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

void SnapshotView::ClearError() const {
  for (const auto& shard : snapshot_->shards) shard->ClearError();
}

// ---------------------------------------------------------------------------
// ShardedIndex

ShardedIndex::ShardedIndex(
    Private, std::string manifest_path, std::string dir,
    const ShardedOptions& options, storage::Manifest manifest,
    std::vector<std::shared_ptr<storage::FileBackend>> shards)
    : manifest_path_(std::move(manifest_path)),
      dir_(std::move(dir)),
      options_(options),
      length_(manifest.shards.front().length),
      delta_(length_),
      manifest_(std::move(manifest)),
      shards_(std::move(shards)) {}

StatusOr<std::unique_ptr<ShardedIndex>> ShardedIndex::Open(
    const std::string& manifest_path, const ShardedOptions& options) {
  StatusOr<storage::Manifest> manifest = storage::LoadManifest(manifest_path);
  if (!manifest.ok()) return manifest.status();
  if (manifest->shards.empty()) {
    return Status::InvalidArgument(
        "manifest " + manifest_path +
        " names no shards; a sharded index needs at least one");
  }
  const std::string dir = DirOf(manifest_path);
  std::vector<std::shared_ptr<storage::FileBackend>> shards;
  shards.reserve(manifest->shards.size());
  for (const storage::ManifestShard& entry : manifest->shards) {
    StatusOr<std::unique_ptr<storage::FileBackend>> backend =
        storage::FileBackend::Open(dir + "/" + entry.file, options.pool_pages,
                                   options.eviction, options.tuning);
    if (!backend.ok()) return backend.status();
    // The manifest is the source of truth; a shard that disagrees with its
    // entry is a torn deployment, not a smaller index.
    if ((*backend)->size() != entry.count ||
        (*backend)->length() != entry.length) {
      return Status(StatusCode::kCorruptHeader,
                    "shard " + entry.file + " holds " +
                        std::to_string((*backend)->size()) + " x " +
                        std::to_string((*backend)->length()) +
                        ", manifest says " + std::to_string(entry.count) +
                        " x " + std::to_string(entry.length));
    }
    shards.push_back(std::move(*backend));
  }
  return std::make_unique<ShardedIndex>(Private{}, manifest_path, dir,
                                        options, *std::move(manifest),
                                        std::move(shards));
}

std::uint64_t ShardedIndex::generation() const {
  MutexLock lock(view_mutex_);
  return manifest_.generation;
}

std::size_t ShardedIndex::shard_count() const {
  MutexLock lock(view_mutex_);
  return shards_.size();
}

std::uint64_t ShardedIndex::shard_total() const {
  MutexLock lock(view_mutex_);
  return manifest_.total_count();
}

std::size_t ShardedIndex::live_size() const { return Snapshot()->live_total(); }

StatusOr<std::uint64_t> ShardedIndex::Insert(const Series& values, int label) {
  // One critical section for the append AND the id computation: a
  // compaction swap completing in between would shift the delta ordinal
  // and the shard total out from under the sum, returning an id that
  // names a different row.
  MutexLock lock(view_mutex_);
  StatusOr<std::size_t> ordinal = delta_.Insert(values, label);
  if (!ordinal.ok()) return ordinal.status();
  return manifest_.total_count() + *ordinal;
}

Status ShardedIndex::Remove(std::uint64_t global_id) {
  MutexLock lock(view_mutex_);
  const std::uint64_t total = manifest_.total_count();
  if (global_id < total) {
    delta_.TombstoneShardRow(global_id);
    return Status::Ok();
  }
  return delta_.TombstoneDeltaRow(static_cast<std::size_t>(global_id - total));
}

std::shared_ptr<const ShardedSnapshot> ShardedIndex::Snapshot() const {
  MutexLock lock(view_mutex_);
  std::shared_ptr<const DeltaSnapshot> delta = delta_.Snapshot();
  if (cached_ != nullptr && cached_->generation == manifest_.generation &&
      cached_->delta == delta) {
    return cached_;
  }
  auto snap = std::make_shared<ShardedSnapshot>();
  snap->generation = manifest_.generation;
  snap->length = length_;
  snap->shards = shards_;
  snap->delta = delta;
  const std::vector<std::uint64_t> dead =
      MergeTombstones(manifest_.tombstones, delta->shard_tombstones);
  snap->shard_live.resize(shards_.size());
  snap->part_offsets.assign(1, 0);
  std::uint64_t base = 0;
  std::size_t dead_pos = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::uint64_t count = manifest_.shards[s].count;
    std::vector<std::size_t>& live = snap->shard_live[s];
    live.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t r = 0; r < count; ++r) {
      const std::uint64_t gid = base + r;
      while (dead_pos < dead.size() && dead[dead_pos] < gid) ++dead_pos;
      if (dead_pos < dead.size() && dead[dead_pos] == gid) continue;
      live.push_back(static_cast<std::size_t>(r));
      snap->global_ids.push_back(gid);
    }
    snap->part_offsets.push_back(snap->part_offsets.back() + live.size());
    base += count;
  }
  for (std::size_t i = 0; i < delta->live_count(); ++i) {
    snap->global_ids.push_back(base + delta->ordinals[i]);
  }
  snap->part_offsets.push_back(snap->part_offsets.back() +
                               delta->live_count());
  cached_ = std::move(snap);
  return cached_;
}

std::shared_ptr<const QueryEngine> ShardedIndex::SnapshotEngine() const {
  std::shared_ptr<const ShardedSnapshot> snap = Snapshot();
  const std::size_t total = snap->live_total();
  return std::make_shared<const QueryEngine>(
      std::make_unique<SnapshotView>(std::move(snap), 0, total),
      options_.engine);
}

Status ShardedIndex::TakeShardError(const ShardedSnapshot& snap) const {
  for (const auto& shard : snap.shards) {
    Status s = shard->error();
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

StatusOr<ScanResult> ShardedIndex::Search(const Series& query,
                                          obs::QueryMetrics* metrics) const {
  std::shared_ptr<const ShardedSnapshot> snap = Snapshot();
  if (options_.parallel_search) return SearchParallel(snap, query, metrics);
  QueryEngine engine(
      std::make_unique<SnapshotView>(snap, 0, snap->live_total()),
      options_.engine);
  StatusOr<ScanResult> result = engine.SearchChecked(query, nullptr, metrics);
  if (!result.ok()) return result.status();
  ScanResult mapped = *std::move(result);
  if (mapped.best_index >= 0) {
    mapped.best_index = static_cast<int>(
        snap->global_ids[static_cast<std::size_t>(mapped.best_index)]);
  }
  return mapped;
}

StatusOr<std::vector<Neighbor>> ShardedIndex::Knn(
    const Series& query, int k, StepCounter* counter,
    obs::QueryMetrics* metrics) const {
  std::shared_ptr<const ShardedSnapshot> snap = Snapshot();
  if (options_.parallel_search) {
    return KnnParallel(snap, query, k, counter, metrics);
  }
  QueryEngine engine(
      std::make_unique<SnapshotView>(snap, 0, snap->live_total()),
      options_.engine);
  StatusOr<std::vector<Neighbor>> result =
      engine.KnnChecked(query, k, counter, nullptr, metrics);
  if (!result.ok()) return result.status();
  for (Neighbor& n : *result) {
    n.index =
        static_cast<int>(snap->global_ids[static_cast<std::size_t>(n.index)]);
  }
  return result;
}

StatusOr<std::vector<Neighbor>> ShardedIndex::Range(
    const Series& query, double radius, StepCounter* counter,
    obs::QueryMetrics* metrics) const {
  std::shared_ptr<const ShardedSnapshot> snap = Snapshot();
  if (options_.parallel_search) {
    return RangeParallel(snap, query, radius, counter, metrics);
  }
  QueryEngine engine(
      std::make_unique<SnapshotView>(snap, 0, snap->live_total()),
      options_.engine);
  StatusOr<std::vector<Neighbor>> result =
      engine.RangeChecked(query, radius, counter, nullptr, metrics);
  if (!result.ok()) return result.status();
  for (Neighbor& n : *result) {
    n.index =
        static_cast<int>(snap->global_ids[static_cast<std::size_t>(n.index)]);
  }
  return result;
}

StatusOr<ScanResult> ShardedIndex::SearchParallel(
    const std::shared_ptr<const ShardedSnapshot>& snap, const Series& query,
    obs::QueryMetrics* metrics) const {
  const std::vector<PartRange> parts = NonEmptyParts(*snap);
  // Validation parity with the serial path: same engine, same messages.
  QueryEngine probe(
      std::make_unique<SnapshotView>(snap, 0, snap->live_total()),
      options_.engine);
  Status valid = probe.ValidateQuery(query);
  if (!valid.ok()) return valid;
  if (parts.empty()) return ScanResult{};

  std::vector<std::unique_ptr<QueryEngine>> engines;
  engines.reserve(parts.size());
  for (const PartRange& part : parts) {
    engines.push_back(std::make_unique<QueryEngine>(
        std::make_unique<SnapshotView>(snap, part.begin, part.end),
        options_.engine));
  }
  SharedBound shared;
  std::vector<ScanResult> results(parts.size());
  std::vector<obs::QueryMetrics> part_metrics(
      metrics != nullptr ? parts.size() : 0);
  ParallelFor(parts.size(), options_.num_threads, [&](std::size_t i) {
    results[i] = engines[i]->SearchShared(
        query, kNoHoldout, &shared,
        metrics != nullptr ? &part_metrics[i] : nullptr);
  });
  Status io = TakeShardError(*snap);
  if (!io.ok()) return io;

  // Deterministic merge: replay part winners in part order under the same
  // strict-< rule BestCollector uses. Parts cover ascending ordinal
  // ranges, so the first part attaining the global minimum holds the
  // monolithic scan's winner — bit-identical, ties included (a foreign
  // bound only ever pruned candidates strictly worse than the winner).
  ScanResult merged;
  double best = kInf;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    merged.counter += results[i].counter;
    if (results[i].best_index >= 0 && results[i].best_distance < best) {
      best = results[i].best_distance;
      merged.best_index = static_cast<int>(
          snap->global_ids[parts[i].begin +
                           static_cast<std::size_t>(results[i].best_index)]);
      merged.best_distance = results[i].best_distance;
      merged.best_shift = results[i].best_shift;
      merged.best_mirrored = results[i].best_mirrored;
    }
  }
  if (metrics != nullptr) {
    for (const obs::QueryMetrics& m : part_metrics) *metrics += m;
  }
  return merged;
}

StatusOr<std::vector<Neighbor>> ShardedIndex::KnnParallel(
    const std::shared_ptr<const ShardedSnapshot>& snap, const Series& query,
    int k, StepCounter* counter, obs::QueryMetrics* metrics) const {
  QueryEngine probe(
      std::make_unique<SnapshotView>(snap, 0, snap->live_total()),
      options_.engine);
  Status valid = probe.ValidateQuery(query);
  if (!valid.ok()) return valid;
  if (k < 1) {
    return Status::InvalidArgument("k must be >= 1, got " + std::to_string(k));
  }
  const std::vector<PartRange> parts = NonEmptyParts(*snap);
  if (parts.empty()) return std::vector<Neighbor>{};

  std::vector<std::unique_ptr<QueryEngine>> engines;
  engines.reserve(parts.size());
  for (const PartRange& part : parts) {
    engines.push_back(std::make_unique<QueryEngine>(
        std::make_unique<SnapshotView>(snap, part.begin, part.end),
        options_.engine));
  }
  SharedBound shared;
  std::vector<std::vector<Neighbor>> results(parts.size());
  std::vector<StepCounter> counters(parts.size());
  std::vector<obs::QueryMetrics> part_metrics(
      metrics != nullptr ? parts.size() : 0);
  ParallelFor(parts.size(), options_.num_threads, [&](std::size_t i) {
    results[i] = engines[i]->KnnShared(
        query, k, kNoHoldout, &shared, &counters[i],
        metrics != nullptr ? &part_metrics[i] : nullptr);
  });
  Status io = TakeShardError(*snap);
  if (!io.ok()) return io;

  // Union of the per-part top k, restored to live-ordinal (= monolithic
  // scan) order, replayed through the collector's exact acceptance rule.
  std::vector<Neighbor> pool;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (counter != nullptr) *counter += counters[i];
    for (const Neighbor& n : results[i]) {
      Neighbor mapped = n;
      mapped.index =
          static_cast<int>(parts[i].begin + static_cast<std::size_t>(n.index));
      pool.push_back(mapped);
    }
  }
  std::sort(pool.begin(), pool.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.index < b.index;
            });
  std::vector<Neighbor> merged = ReplayKnn(std::move(pool), k);
  for (Neighbor& n : merged) {
    n.index =
        static_cast<int>(snap->global_ids[static_cast<std::size_t>(n.index)]);
  }
  if (metrics != nullptr) {
    for (const obs::QueryMetrics& m : part_metrics) *metrics += m;
  }
  return merged;
}

StatusOr<std::vector<Neighbor>> ShardedIndex::RangeParallel(
    const std::shared_ptr<const ShardedSnapshot>& snap, const Series& query,
    double radius, StepCounter* counter, obs::QueryMetrics* metrics) const {
  QueryEngine probe(
      std::make_unique<SnapshotView>(snap, 0, snap->live_total()),
      options_.engine);
  Status valid = probe.ValidateQuery(query);
  if (!valid.ok()) return valid;
  if (!std::isfinite(radius) || radius < 0.0) {
    return Status::InvalidArgument("radius must be finite and >= 0, got " +
                                   std::to_string(radius));
  }
  const std::vector<PartRange> parts = NonEmptyParts(*snap);
  if (parts.empty()) return std::vector<Neighbor>{};

  std::vector<std::unique_ptr<QueryEngine>> engines;
  engines.reserve(parts.size());
  for (const PartRange& part : parts) {
    engines.push_back(std::make_unique<QueryEngine>(
        std::make_unique<SnapshotView>(snap, part.begin, part.end),
        options_.engine));
  }
  // A radius is a fixed threshold — nothing improves, nothing to share.
  std::vector<std::vector<Neighbor>> results(parts.size());
  std::vector<StepCounter> counters(parts.size());
  std::vector<obs::QueryMetrics> part_metrics(
      metrics != nullptr ? parts.size() : 0);
  ParallelFor(parts.size(), options_.num_threads, [&](std::size_t i) {
    results[i] = engines[i]->Range(
        query, radius, &counters[i],
        metrics != nullptr ? &part_metrics[i] : nullptr);
  });
  Status io = TakeShardError(*snap);
  if (!io.ok()) return io;

  // Restore monolithic scan order (live-ordinal), then apply the exact
  // sort RangeCollector::Take applies — same comparator over the same
  // sequence, so the result is bit-identical to the serial path.
  std::vector<Neighbor> merged;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (counter != nullptr) *counter += counters[i];
    for (const Neighbor& n : results[i]) {
      Neighbor mapped = n;
      mapped.index =
          static_cast<int>(parts[i].begin + static_cast<std::size_t>(n.index));
      merged.push_back(mapped);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.index < b.index;
            });
  std::sort(merged.begin(), merged.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance < b.distance;
            });
  for (Neighbor& n : merged) {
    n.index =
        static_cast<int>(snap->global_ids[static_cast<std::size_t>(n.index)]);
  }
  if (metrics != nullptr) {
    for (const obs::QueryMetrics& m : part_metrics) *metrics += m;
  }
  return merged;
}

StatusOr<std::uint64_t> ShardedIndex::Compact(const IndexBuildOptions& build,
                                              storage::ManifestWriteFault
                                                  fault) {
  {
    MutexLock lock(view_mutex_);
    if (compacting_) {
      return Status::InvalidArgument("a compaction is already running");
    }
    compacting_ = true;
  }

  // Everything below runs lock-free against queries: they keep scanning
  // their snapshots while the new shard is built and the manifest swapped.
  std::shared_ptr<const DeltaSnapshot> delta = delta_.Snapshot();
  if (pause_after_snapshot_for_tests_) pause_after_snapshot_for_tests_();
  storage::Manifest next;
  {
    MutexLock lock(view_mutex_);
    next = manifest_;
  }
  next.generation += 1;
  next.tombstones = MergeTombstones(next.tombstones, delta->shard_tombstones);

  StatusOr<std::uint64_t> outcome = next.generation;
  std::shared_ptr<storage::FileBackend> opened;
  if (delta->live_count() > 0) {
    Dataset db;
    db.items.reserve(delta->live_count());
    db.labels = delta->labels;
    for (std::size_t i = 0; i < delta->live_count(); ++i) {
      const double* row = delta->row(i);
      db.items.emplace_back(row, row + delta->length);
    }
    const std::string shard_file =
        "shard-g" + std::to_string(next.generation) + ".ridx";
    const std::string shard_path = dir_ + "/" + shard_file;
    // kFsync: the shard's pages and its directory entry are on stable
    // storage before the manifest below names it, so a power cut cannot
    // leave a published manifest pointing at a shard that never landed.
    Status built =
        BuildIndexFile(db, build, shard_path, WriteDurability::kFsync);
    if (built.ok()) {
      StatusOr<std::unique_ptr<storage::FileBackend>> backend =
          storage::FileBackend::Open(shard_path, options_.pool_pages,
                                     options_.eviction, options_.tuning);
      if (backend.ok()) {
        opened = std::move(*backend);
        next.shards.push_back(
            {shard_file, delta->live_count(), delta->length});
      } else {
        outcome = backend.status();
      }
    } else {
      outcome = built;
    }
  }
  if (outcome.ok()) {
    // The publication point: temp write + atomic rename. On failure (or
    // an injected crash) the manifest on disk still names the PREVIOUS
    // generation, which stays fully queryable.
    Status wrote = storage::WriteManifest(next, manifest_path_, fault);
    if (!wrote.ok()) outcome = wrote;
  }
  if (outcome.ok()) {
    // Swap and retire ATOMICALLY under view_mutex_ (kShardView nests over
    // kDeltaSegment): a Snapshot() taken at any instant sees either the
    // old manifest with the full delta or the new manifest with the delta
    // drained — never the new shard PLUS the un-retired delta rows it was
    // built from, which would double-count every compacted row. Rows
    // inserted and deletes issued after the snapshot survive in the delta
    // with shifted ordinals; everything the new generation absorbed is
    // retired, and a post-snapshot delete of a compacted row follows it
    // into the new shard as a tombstone of its new global id.
    MutexLock lock(view_mutex_);
    const std::uint64_t new_shard_base = manifest_.total_count();
    manifest_ = std::move(next);
    if (opened != nullptr) shards_.push_back(std::move(opened));
    cached_.reset();
    delta_.DropCompacted(*delta, new_shard_base);
  }
  {
    MutexLock lock(view_mutex_);
    compacting_ = false;
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// BackgroundCompactor

BackgroundCompactor::BackgroundCompactor(ShardedIndex& index,
                                         const IndexBuildOptions& build)
    : index_(index), build_(build), worker_([this] { Loop(); }) {}

BackgroundCompactor::~BackgroundCompactor() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
    wake_.NotifyAll();
  }
  worker_.join();
}

void BackgroundCompactor::Trigger() {
  MutexLock lock(mutex_);
  pending_ = true;
  wake_.NotifyAll();
}

void BackgroundCompactor::WaitIdle() {
  MutexLock lock(mutex_);
  while (pending_ || running_) idle_.Wait(mutex_);
}

Status BackgroundCompactor::last_status() const {
  MutexLock lock(mutex_);
  return last_;
}

std::uint64_t BackgroundCompactor::passes() const {
  MutexLock lock(mutex_);
  return passes_;
}

void BackgroundCompactor::Loop() {
  for (;;) {
    {
      MutexLock lock(mutex_);
      while (!pending_ && !stopping_) wake_.Wait(mutex_);
      if (!pending_ && stopping_) return;
      pending_ = false;
      running_ = true;
    }
    // The pass runs with no compactor lock held: Trigger() stays
    // non-blocking and coalesces into `pending_` for a follow-up pass.
    StatusOr<std::uint64_t> pass = index_.Compact(build_);
    {
      MutexLock lock(mutex_);
      running_ = false;
      last_ = pass.ok() ? Status::Ok() : pass.status();
      ++passes_;
      if (!pending_) idle_.NotifyAll();
      if (stopping_ && !pending_) return;
    }
  }
}

}  // namespace rotind

#include "src/index/sharded_index.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "src/core/contracts.h"

namespace rotind {
namespace {

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

/// Rewrites each result's live ordinal as the snapshot's global id.
StatusOr<std::vector<Neighbor>> ToGlobalIds(
    const ShardedSnapshot& snap, StatusOr<std::vector<Neighbor>> result) {
  if (!result.ok()) return result.status();
  for (Neighbor& n : *result) {
    n.index =
        static_cast<int>(snap.global_ids[static_cast<std::size_t>(n.index)]);
  }
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotView

SnapshotView::SnapshotView(std::shared_ptr<const ShardedSnapshot> snapshot)
    : snapshot_(std::move(snapshot)) {
  ROTIND_CONTRACT(snapshot_ != nullptr, "SnapshotView over a null snapshot");
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
  const std::size_t part = PartOf(i);
  const std::size_t at = i - snapshot_->part_offsets[part];
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
  const std::size_t part = PartOf(i);
  const std::size_t at = i - snapshot_->part_offsets[part];
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
  return std::make_shared<const QueryEngine>(
      std::make_unique<SnapshotView>(Snapshot()), options_.engine);
}

StatusOr<ScanResult> ShardedIndex::Search(const Series& query,
                                          obs::QueryMetrics* metrics) const {
  std::shared_ptr<const ShardedSnapshot> snap = Snapshot();
  const QueryEngine engine(std::make_unique<SnapshotView>(snap),
                           options_.engine);
  StatusOr<ScanResult> result = engine.SearchChecked(query, nullptr, metrics);
  if (result.ok() && result->best_index >= 0) {
    result->best_index = static_cast<int>(
        snap->global_ids[static_cast<std::size_t>(result->best_index)]);
  }
  return result;
}

StatusOr<std::vector<Neighbor>> ShardedIndex::Knn(
    const Series& query, int k, StepCounter* counter,
    obs::QueryMetrics* metrics) const {
  std::shared_ptr<const ShardedSnapshot> snap = Snapshot();
  const QueryEngine engine(std::make_unique<SnapshotView>(snap),
                           options_.engine);
  return ToGlobalIds(*snap,
                     engine.KnnChecked(query, k, counter, nullptr, metrics));
}

StatusOr<std::vector<Neighbor>> ShardedIndex::Range(
    const Series& query, double radius, StepCounter* counter,
    obs::QueryMetrics* metrics) const {
  std::shared_ptr<const ShardedSnapshot> snap = Snapshot();
  const QueryEngine engine(std::make_unique<SnapshotView>(snap),
                           options_.engine);
  return ToGlobalIds(
      *snap, engine.RangeChecked(query, radius, counter, nullptr, metrics));
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

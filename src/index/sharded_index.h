#ifndef ROTIND_INDEX_SHARDED_INDEX_H_
#define ROTIND_INDEX_SHARDED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/series.h"
#include "src/core/status.h"
#include "src/core/step_counter.h"
#include "src/core/sync.h"
#include "src/index/delta.h"
#include "src/index/index_io.h"
#include "src/obs/metrics.h"
#include "src/search/engine.h"
#include "src/storage/backend.h"
#include "src/storage/manifest.h"

namespace rotind {

/// Knobs for a ShardedIndex beyond what the manifest dictates.
struct ShardedOptions {
  /// BufferPool capacity PER SHARD (each shard is its own paged file with
  /// its own pool, so shards never evict each other's hot pages).
  std::size_t pool_pages = 64;
  storage::EvictionPolicy eviction = storage::EvictionPolicy::kLru;
  storage::FileBackend::Tuning tuning;
  /// Cascade / measure configuration for every query. The `storage` field
  /// is ignored — storage is what the manifest names.
  EngineOptions engine;
};

/// An immutable, self-contained view of one (generation, delta epoch)
/// instant of a ShardedIndex. shared_ptr-owned: queries resolve one
/// snapshot up front and are unaffected by concurrent inserts, deletes, or
/// a compaction publishing a new generation.
///
/// Live-ordinal space: the live (not tombstoned) rows of every part,
/// concatenated in part order — shards in manifest order, then the delta
/// segment. `part_offsets` maps parts to ordinal ranges; `global_ids`
/// maps each live ordinal back to the stable global id callers speak
/// (shard rows number 0..total-1 in manifest order; delta row with
/// ordinal d is total + d). Compaction renumbers: delta rows move into a
/// new shard and tombstoned ids vanish, so global ids are stable only
/// within a generation.
struct ShardedSnapshot {
  std::uint64_t generation = 0;
  std::size_t length = 0;
  /// Shard backends, manifest order. Shared with the owning ShardedIndex —
  /// a snapshot taken just before a compaction keeps pre-compaction shards
  /// alive for queries still running against them.
  std::vector<std::shared_ptr<storage::FileBackend>> shards;
  /// Per shard: the live PHYSICAL rows (ascending). shard_live[s][i] is
  /// the shard-local row behind live ordinal part_offsets[s] + i.
  std::vector<std::vector<std::size_t>> shard_live;
  /// The delta state this snapshot saw (never null; may be empty).
  std::shared_ptr<const DeltaSnapshot> delta;
  /// Part -> first live ordinal; size shards.size() + 2, last entry =
  /// total live rows. Parts are the shards plus one trailing delta part.
  std::vector<std::size_t> part_offsets;
  /// Live ordinal -> global id, ascending within each part.
  std::vector<std::uint64_t> global_ids;

  std::size_t live_total() const {
    return part_offsets.empty() ? 0 : part_offsets.back();
  }
};

/// StorageBackend over a ShardedSnapshot's live rows in live-ordinal
/// order: shard rows are fetched through the shard's paged FileBackend,
/// which gets the caller's PageHold (a fetch from another shard releases a
/// page the hold pins in this one), and delta rows are zero-copy borrows
/// from the snapshot's flattened values. This is what lets ONE unmodified
/// QueryEngine search all live rows — the engine never learns the
/// database is sharded.
///
/// Keeps its snapshot alive via shared_ptr, so borrowed delta pointers and
/// shard backends outlive every handle. Thread-safe like every backend
/// (routing state is immutable; shard backends synchronize internally).
class SnapshotView final : public storage::StorageBackend {
 public:
  explicit SnapshotView(std::shared_ptr<const ShardedSnapshot> snapshot);

  storage::BackendKind backend_kind() const override {
    return storage::BackendKind::kFile;
  }
  const char* name() const override { return "sharded"; }
  std::size_t size() const override { return snapshot_->live_total(); }
  std::size_t length() const override { return snapshot_->length; }
  storage::SeriesHandle Fetch(std::size_t i, storage::FetchStats* stats,
                              storage::PageHold* hold) const override;
  int label(std::size_t i) const override;
  /// First latched error across the shard backends (delta fetches cannot
  /// fail).
  [[nodiscard]] Status error() const override;
  void ClearError() const override;

  const ShardedSnapshot& snapshot() const { return *snapshot_; }

 private:
  /// The part holding live ordinal `ordinal`.
  std::size_t PartOf(std::size_t ordinal) const;

  const std::shared_ptr<const ShardedSnapshot> snapshot_;
};

/// A manifest-driven shard set with online updates. N immutable RIDX
/// shards (paged FileBackends) plus one mutable DeltaSegment are searched
/// together through one QueryEngine over the concatenated live view (a
/// SnapshotView), and compaction folds the delta into a new shard under a
/// new manifest generation, published by atomic rename.
///
/// Exactness: every query runs one QueryEngine over the live rows in
/// live-ordinal order — the collector, scan order and step counts of a
/// monolithic engine scanning the same rows in id order — so answers are
/// bit-identical to it by construction, exact distance ties included. (A
/// SnapshotView has no resident signatures, so an index cascade scans it
/// in id order too.)
///
/// Thread-safety: all methods are safe to call concurrently. Queries are
/// wait-free with respect to mutations (they run on snapshots); Compact
/// serializes against itself — a concurrent Compact is rejected with
/// kInvalidArgument rather than queued.
class ShardedIndex {
 public:
  /// Passkey: constructors are usable only through Open().
  struct Private {
    explicit Private() = default;
  };

  /// Opens every shard the manifest at `manifest_path` names (relative to
  /// the manifest's directory) and cross-checks each RIDX against its
  /// manifest entry (count and length must match; kCorruptHeader
  /// otherwise). The manifest must name at least one shard.
  [[nodiscard]] static StatusOr<std::unique_ptr<ShardedIndex>> Open(
      const std::string& manifest_path, const ShardedOptions& options = {});

  const std::string& manifest_path() const { return manifest_path_; }
  const ShardedOptions& options() const { return options_; }
  /// Common series length (fixed for the index's lifetime).
  std::size_t length() const { return length_; }

  std::uint64_t generation() const;
  std::size_t shard_count() const;
  /// Total rows named by the manifest (live + tombstoned), excluding delta.
  std::uint64_t shard_total() const;
  /// Live rows visible to a query right now (shards minus tombstones, plus
  /// live delta rows).
  std::size_t live_size() const;

  /// Appends a row to the delta segment; returns its global id under the
  /// CURRENT generation (shard_total() + delta ordinal). kInvalidArgument
  /// on length mismatch, kBadValue on non-finite values.
  [[nodiscard]] StatusOr<std::uint64_t> Insert(const Series& values,
                                               int label = 0);

  /// Tombstones the row with global id `global_id` (shard or delta row).
  /// Idempotent for shard rows; kOutOfRange for ids beyond the delta.
  [[nodiscard]] Status Remove(std::uint64_t global_id);

  /// The current (generation, delta epoch) view; cached — cheap when
  /// nothing changed since the last call.
  [[nodiscard]] std::shared_ptr<const ShardedSnapshot> Snapshot() const;

  /// A self-contained engine over the full live view of the current
  /// snapshot, for callers that drive QueryEngine directly (the serve
  /// layer swaps these atomically on reload). The engine owns its
  /// SnapshotView, which owns the snapshot — safe to outlive this index's
  /// next compaction.
  [[nodiscard]] std::shared_ptr<const QueryEngine> SnapshotEngine() const;

  /// 1-NN over all live rows. result.best_index is a GLOBAL id (or -1,
  /// with best_distance +inf, on an index with no live rows).
  /// result.counter equals a monolithic id-order engine's, bit for bit.
  [[nodiscard]] StatusOr<ScanResult> Search(
      const Series& query, obs::QueryMetrics* metrics = nullptr) const;

  /// k-NN over all live rows, ascending by distance, global ids.
  [[nodiscard]] StatusOr<std::vector<Neighbor>> Knn(
      const Series& query, int k, StepCounter* counter = nullptr,
      obs::QueryMetrics* metrics = nullptr) const;

  /// Range query over all live rows, ascending by distance, global ids.
  [[nodiscard]] StatusOr<std::vector<Neighbor>> Range(
      const Series& query, double radius, StepCounter* counter = nullptr,
      obs::QueryMetrics* metrics = nullptr) const;

  /// Folds the current delta snapshot into a new RIDX shard
  /// (`shard-g<gen+1>.ridx` beside the manifest, built by BuildIndexFile),
  /// publishes manifest generation gen+1 (old shards + the new one, delta
  /// shard-tombstones absorbed into the manifest tombstone list) by atomic
  /// temp-write + rename, then swaps the new shard set in and retires the
  /// compacted delta prefix in ONE critical section — a concurrent
  /// Snapshot() never sees the compacted rows both in the new shard and in
  /// the delta. Mutations racing the compaction are preserved: inserts and
  /// deletes landing after the delta snapshot was captured carry over into
  /// the new generation (a delete of a row the compaction absorbed becomes
  /// a tombstone of that row's new global id). With an empty delta and no
  /// new tombstones this
  /// still publishes a (trivial) new generation. Returns the new
  /// generation. On any failure the previous generation remains intact and
  /// fully queryable. `fault` injects a crash at the manifest swap point
  /// (tests only).
  [[nodiscard]] StatusOr<std::uint64_t> Compact(
      const IndexBuildOptions& build,
      storage::ManifestWriteFault fault = storage::ManifestWriteFault::kNone);

  ShardedIndex(Private, std::string manifest_path, std::string dir,
               const ShardedOptions& options, storage::Manifest manifest,
               std::vector<std::shared_ptr<storage::FileBackend>> shards);

  /// Test-only: runs inside Compact right after the delta snapshot is
  /// captured, with no locks held — the window where online mutations race
  /// the compaction. Set before any compaction is triggered (unsynchronized
  /// by design; it is test scaffolding, not API).
  void set_pause_after_snapshot_for_tests(std::function<void()> hook) {
    pause_after_snapshot_for_tests_ = std::move(hook);
  }

 private:
  const std::string manifest_path_;
  /// Directory shard file names resolve against.
  const std::string dir_;
  const ShardedOptions options_;
  const std::size_t length_;
  /// SYNC-EXEMPT: internally synchronized (LockRank::kDeltaSegment).
  DeltaSegment delta_;

  mutable Mutex view_mutex_{LockRank::kShardView};
  storage::Manifest manifest_ ROTIND_GUARDED_BY(view_mutex_);
  std::vector<std::shared_ptr<storage::FileBackend>> shards_
      ROTIND_GUARDED_BY(view_mutex_);
  /// Rejects a second concurrent Compact.
  bool compacting_ ROTIND_GUARDED_BY(view_mutex_) = false;
  /// SYNC-EXEMPT: test scaffolding, set once before compactions start.
  std::function<void()> pause_after_snapshot_for_tests_;
  mutable std::shared_ptr<const ShardedSnapshot> cached_
      ROTIND_GUARDED_BY(view_mutex_);
};

/// Owns a worker thread that runs ShardedIndex::Compact when triggered —
/// the "background compaction" half of the online-update story. One
/// compaction runs at a time; triggers during a run coalesce into one
/// follow-up pass. The destructor drains and joins.
class BackgroundCompactor {
 public:
  /// `index` must outlive the compactor.
  BackgroundCompactor(ShardedIndex& index, const IndexBuildOptions& build);
  ~BackgroundCompactor();

  BackgroundCompactor(const BackgroundCompactor&) = delete;
  BackgroundCompactor& operator=(const BackgroundCompactor&) = delete;

  /// Requests a compaction pass; returns immediately.
  void Trigger();

  /// Blocks until no pass is running and no trigger is pending.
  void WaitIdle();

  /// Status of the most recent completed pass (Ok before the first).
  [[nodiscard]] Status last_status() const;
  /// Completed passes.
  [[nodiscard]] std::uint64_t passes() const;

 private:
  void Loop();

  /// SYNC-EXEMPT: ShardedIndex is internally synchronized; the reference
  /// itself is set once in the constructor and never reseated.
  ShardedIndex& index_;
  const IndexBuildOptions build_;

  mutable Mutex mutex_{LockRank::kLeaf};
  CondVar wake_;  ///< Trigger arrived / stopping.
  CondVar idle_;  ///< Pass finished with nothing pending.
  bool pending_ ROTIND_GUARDED_BY(mutex_) = false;
  bool running_ ROTIND_GUARDED_BY(mutex_) = false;
  bool stopping_ ROTIND_GUARDED_BY(mutex_) = false;
  Status last_ ROTIND_GUARDED_BY(mutex_);
  std::uint64_t passes_ ROTIND_GUARDED_BY(mutex_) = 0;
  /// SYNC-EXEMPT: joined in the destructor, touched by no one else.
  std::thread worker_;
};

}  // namespace rotind

#endif  // ROTIND_INDEX_SHARDED_INDEX_H_

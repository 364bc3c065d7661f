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
  /// Worker threads for the parallel shard search.
  int num_threads = 4;
  /// Search mode. Parallel searches every part (shard or delta)
  /// concurrently with a SharedBound best-so-far exchange and merges
  /// deterministically; serial runs ONE engine over the concatenated live
  /// view, bit-identical (answers AND total_steps) to a monolithic engine
  /// over the same live rows.
  bool parallel_search = true;
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
  /// Part -> first live ordinal; size parts() + 1, last entry = total
  /// live rows. Parts are the shards plus one trailing delta part.
  std::vector<std::size_t> part_offsets;
  /// Live ordinal -> global id, ascending within each part.
  std::vector<std::uint64_t> global_ids;

  std::size_t parts() const { return shards.size() + 1; }
  std::size_t live_total() const {
    return part_offsets.empty() ? 0 : part_offsets.back();
  }
};

/// StorageBackend over a contiguous live-ordinal range [begin, end) of a
/// ShardedSnapshot: shard rows are fetched through the shard's paged
/// FileBackend, which gets the caller's PageHold (a fetch from another
/// shard releases a page the hold pins in this one), and delta rows are
/// zero-copy borrows from the snapshot's flattened values. This is what
/// lets ONE unmodified QueryEngine search "all live rows" (serial mode) or
/// "one part" (parallel mode) — the engine never learns the database is
/// sharded.
///
/// Keeps its snapshot alive via shared_ptr, so borrowed delta pointers and
/// shard backends outlive every handle. Thread-safe like every backend
/// (routing state is immutable; shard backends synchronize internally).
class SnapshotView final : public storage::StorageBackend {
 public:
  SnapshotView(std::shared_ptr<const ShardedSnapshot> snapshot,
               std::size_t begin, std::size_t end);

  storage::BackendKind backend_kind() const override {
    return storage::BackendKind::kFile;
  }
  const char* name() const override { return "sharded"; }
  std::size_t size() const override { return end_ - begin_; }
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
  const std::size_t begin_;
  const std::size_t end_;
};

/// The tentpole: a manifest-driven shard set with online updates. N
/// immutable RIDX shards (paged FileBackends) plus one mutable DeltaSegment
/// are searched together — serially through one engine over the
/// concatenated live view, or in parallel with a SharedBound best-so-far
/// exchange across parts — and compaction folds the delta into a new shard
/// under a new manifest generation, published by atomic rename.
///
/// Exactness: both modes return exactly the answers a monolithic engine
/// over the live rows would. Serial mode IS that engine (same collector,
/// same scan order, same step counts — bit-identical by construction).
/// Parallel mode re-derives the monolithic result from per-part results
/// by deterministic replay: part-order strict-< for 1-NN and
/// ordinal-then-distance sort for range are bit-identical ties included
/// (a foreign bound prunes only candidates strictly worse than the
/// winner — see SharedBound); k-NN replays the union of per-part top-k in
/// ordinal order, which is distance-exact always, and index-exact except
/// when distinct rows tie exactly at the k-th distance (heap eviction
/// among equal keys is structural, so WHICH tied row is reported may
/// differ from the serial scan).
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

  /// 1-NN over all live rows. result.best_index is a GLOBAL id (or -1 on
  /// an empty index). result.counter carries total_steps: in serial mode
  /// bit-identical to the monolithic engine; in parallel mode the sum over
  /// parts (pruning differs by interleaving, answers do not).
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
  /// Parallel-mode cores (serial mode drives one engine directly).
  [[nodiscard]] StatusOr<ScanResult> SearchParallel(
      const std::shared_ptr<const ShardedSnapshot>& snap, const Series& query,
      obs::QueryMetrics* metrics) const;
  [[nodiscard]] StatusOr<std::vector<Neighbor>> KnnParallel(
      const std::shared_ptr<const ShardedSnapshot>& snap, const Series& query,
      int k, StepCounter* counter, obs::QueryMetrics* metrics) const;
  [[nodiscard]] StatusOr<std::vector<Neighbor>> RangeParallel(
      const std::shared_ptr<const ShardedSnapshot>& snap, const Series& query,
      double radius, StepCounter* counter, obs::QueryMetrics* metrics) const;

  /// First latched error across `snap`'s shards.
  [[nodiscard]] Status TakeShardError(const ShardedSnapshot& snap) const;

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

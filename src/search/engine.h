#ifndef ROTIND_SEARCH_ENGINE_H_
#define ROTIND_SEARCH_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "src/core/cancel.h"
#include "src/core/flat_dataset.h"
#include "src/core/series.h"
#include "src/core/status.h"
#include "src/core/step_counter.h"
#include "src/core/sync.h"
#include "src/distance/measure.h"
#include "src/distance/rotation.h"
#include "src/obs/metrics.h"
#include "src/search/hmerge.h"
#include "src/search/scan.h"
#include "src/storage/backend.h"

namespace rotind {

/// One stage of the pruning cascade. A cascade is an ordered list of
/// filters followed by one terminal (exact) evaluator: each filter is a
/// cheap lower bound that discards candidates provably at or above the
/// current threshold (Lemire's two-pass principle: bounds compose as
/// increasingly tight filters), and the terminal stage computes the exact
/// thresholded distance. Because every filter is a true lower bound
/// (Propositions 1-2), any composition returns exactly the same matches as
/// brute force — only the work differs.
enum class StageKind {
  /// Filter: rotation-invariant FFT-magnitude lower bound (paper Section
  /// 4.2). Sound for kEuclidean only; dropped for other measures.
  kFftMagnitude,
  /// Filter: band-pooled rotation/mirror-invariant vector embedding
  /// (fourier::VecSignature). Candidates are compared as resident rows
  /// where the engine has them — a file backend's RIDX v2 signature
  /// section, or, over an in-memory FlatDataset, one matrix the engine
  /// builds on its first vec-signature query — and embedded one FFT per
  /// candidate per query otherwise (see QueryEngine). Sound for
  /// kEuclidean only; dropped for other measures.
  kVecSignature,
  /// Filter: two-pass LB_Improved (Lemire) against the query's rotation
  /// wedge — the second-chance stage after LB_Keogh fails to prune. Sound
  /// for kEuclidean (band 0) and banded kDtw; dropped for kLcss and for
  /// the unconstrained-DTW terminal (kFullScan under kDtw), which a banded
  /// bound does not lower-bound.
  kLbImproved,
  /// Terminal: hierarchal LB_Keogh wedges + H-Merge + dynamic K (the
  /// paper's contribution). Exact.
  kWedge,
  /// Terminal: early-abandoning rotation scan (paper Table 2/3).
  kExactScan,
  /// Terminal: full evaluation of every rotation, no abandoning
  /// (unconstrained DTW for kDtw).
  kFullScan,
  /// Terminal: full evaluation with the Sakoe-Chiba band (kDtw); same as
  /// kFullScan for other measures.
  kFullScanBanded,
};

/// An ordered pruning pipeline. Invalid compositions are normalized, never
/// silently misinterpreted: filters that are unsound for the configured
/// measure are dropped, everything after the first terminal stage is
/// ignored, and a filter-only cascade gets kExactScan appended.
struct CascadeSpec {
  std::vector<StageKind> stages = {StageKind::kWedge};

  /// The composition equivalent to one legacy ScanAlgorithm under `kind`
  /// (e.g. kFftLowerBound + kEuclidean -> {kFftMagnitude, kExactScan}).
  static CascadeSpec ForAlgorithm(ScanAlgorithm algorithm, DistanceKind kind);

  /// Returns the normalized form described above.
  CascadeSpec Normalized(DistanceKind kind) const;
};

/// Blocked (structure-of-arrays, 8-candidates-at-a-time) scoring knobs for
/// the cascade terminals, fed by FlatDataset's aligned SoA tiles and the
/// src/simd/ kernels. Which kernel tier runs (AVX2 vs scalar) is a separate,
/// process-wide decision (simd::ActiveTier, ROTIND_SIMD) — these flags
/// choose the DRIVER shape, and every tier/driver combination returns
/// identical query answers.
struct SimdOptions {
  /// Blocked full-scan ED terminals (kFullScan/kFullScanBanded under
  /// kEuclidean). Observationally identical to the per-candidate path —
  /// same answers, same step counts, same per-stage attribution — so on by
  /// default.
  bool blocked_full_scan = true;
  /// Blocked early-abandoning ED terminal (kExactScan under kEuclidean).
  /// Answers are identical, but lanes abandon against the block-entry
  /// threshold instead of the live one, so step counts can drift from the
  /// scalar reference. Off by default to keep counter parity (benches,
  /// step-count tests); opt in where only answers and wall time matter.
  bool blocked_early_abandon = false;
};

/// Full engine configuration. Distance kind, band, and rotation options are
/// single-sourced here — the wedge policy cannot carry contradictory
/// copies (see WedgePolicy).
struct EngineOptions {
  DistanceKind kind = DistanceKind::kEuclidean;
  /// Sakoe-Chiba band for kDtw.
  int band = 5;
  /// LCSS knobs for kLcss (delta plays the band's role).
  LcssOptions lcss;
  RotationOptions rotation;
  WedgePolicy wedge;
  CascadeSpec cascade;
  SimdOptions simd;
  /// Dimensionality of the kVecSignature filter's pooled embedding when the
  /// backend has no stored RIDX v2 rows (clamped to n/2 per query); also
  /// the width of the rows an in-memory engine builds on first use. A
  /// file backend with a signature section overrides this: the stored
  /// dimensionality is authoritative, since both sides must agree.
  std::size_t vec_sig_dims = 8;
  /// Where candidate series live: in-memory borrow (default), the paper's
  /// simulated-disk accounting, or a paged RIDX index file behind a
  /// BufferPool (file selection requires QueryEngine::Open — the borrowing
  /// constructors cannot report an open failure).
  storage::StorageOptions storage;
};

/// Maps a legacy (algorithm, options) pair onto the engine configuration
/// that reproduces it exactly. Used by the scan.h adapters, benches, and
/// the CLI during migration.
EngineOptions EngineOptionsFrom(const ScanOptions& options,
                                ScanAlgorithm algorithm);

/// Runs fn(i) for every i in [0, count) across a small worker pool of
/// `num_threads` threads (clamped to [1, count], and additionally capped at
/// 256 — a std::thread costs a stack, and beyond the machine's core count
/// extra workers only add scheduling overhead; the CLI exposes the same
/// bound on --threads). Work items must be independent and write only to
/// per-index slots; completion order is unspecified. With num_threads <= 1
/// the loop runs inline, bit-identical to the threaded path by
/// construction.
///
/// Exception safety: if fn throws, the FIRST exception (by capture order)
/// is caught, the remaining queue is drained without running further items,
/// all workers are joined, and the exception is rethrown to the caller —
/// the process is never terminated by a worker-thread exception. Items
/// after the failure may or may not have run; their output slots are
/// unspecified.
void ParallelFor(std::size_t count, int num_threads,
                 const std::function<void(std::size_t)>& fn);

/// A best-so-far threshold shared across engines scanning DISJOINT
/// partitions of one database concurrently (ShardedIndex's parallel shard
/// search). Each worker publishes its local pruning threshold as it
/// improves; every worker's cascade prunes against
/// min(local, nextafter(shared, +inf)).
///
/// Exactness: a published value is always the distance of a REAL candidate
/// (or a k-th-best over real candidates), so it is >= the true global
/// answer d*. A candidate pruned against nextafter(shared) has
/// distance >= nextafter(shared) > shared >= d* — strictly worse than the
/// winner even under ties — so cross-partition pruning can never discard a
/// correct result. The one-ulp outward nudge keeps a candidate whose
/// distance EQUALS the foreign bound alive: local collectors break ties by
/// scan order, and a foreign tie carries no order information.
///
/// Lock-free by design (a mutex here would serialize the scans this class
/// exists to parallelize): one atomic double, monotonically non-increasing
/// under a CAS loop, relaxed ordering — the value is a pruning HINT whose
/// staleness only costs work, never correctness.
class SharedBound {
 public:
  SharedBound() = default;
  SharedBound(const SharedBound&) = delete;
  SharedBound& operator=(const SharedBound&) = delete;

  /// Current bound; +inf until the first Publish.
  double load() const { return bound_.load(std::memory_order_relaxed); }

  /// Monotonic CAS-min: the bound only ever tightens, regardless of the
  /// interleaving of concurrent publishers.
  void Publish(double candidate) {
    double current = bound_.load(std::memory_order_relaxed);
    while (candidate < current &&
           !bound_.compare_exchange_weak(current, candidate,
                                         std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<double> bound_{std::numeric_limits<double>::infinity()};
};

/// The layered query engine: FlatDataset storage -> Measure -> pruning
/// cascade -> one generic driver (parameterized by a result collector:
/// best-so-far, k-th-best heap, or radius) -> batch execution.
///
/// Observability: every search method also takes a nullable
/// `obs::QueryMetrics*`. When non-null, the engine attributes candidate
/// flow, step counts, early abandons, and wall time to each cascade stage,
/// records wedge-level H-Merge behavior and the dynamic-K trajectory, and
/// adds one end-to-end latency sample per query. Passing nullptr (the
/// default) skips all of it and reproduces the uninstrumented results
/// bit-for-bit — the same zero-cost-when-null contract StepCounter has.
/// Stage attribution is exact: per-stage steps + setup_steps sum to the
/// query's StepCounter::total_steps().
///
/// Candidate series are fetched through a storage::StorageBackend: a
/// zero-copy in-memory borrow by default, the paper's simulated-disk
/// accounting, or a real paged index file behind a BufferPool — selected by
/// EngineOptions::storage. The borrowed source (FlatDataset or legacy
/// vector<Series>) must outlive the engine. All search methods are const
/// and thread-compatible: concurrent calls on one engine are safe because
/// per-query state (rotation sets, wedge trees, the query's signatures) is
/// built per call, the backends are internally synchronized, and the one
/// piece of shared lazy state — the vec-signature row matrix of an
/// in-memory engine, built by its first kVecSignature query — is built
/// once under a mutex and read-only afterwards. That matrix describes the
/// borrowed FlatDataset as it was at first use, so the dataset must not
/// grow afterwards. This is what SearchBatch relies on.
class QueryEngine {
 public:
  /// Engine over contiguous storage (the fast path). Honors
  /// options.storage for the in-memory and simulated backends; asking for
  /// the file backend here is a contract violation (open can fail) — use
  /// Open().
  explicit QueryEngine(const FlatDataset& db,
                       const EngineOptions& options = {});

  /// Non-owning adapter over legacy storage; no copy is made. Prefer
  /// FlatDataset for cache-friendly scans. Always direct borrows
  /// (options.storage is ignored — ragged legacy storage predates the
  /// backend abstraction).
  explicit QueryEngine(const std::vector<Series>& db,
                       const EngineOptions& options = {});

  /// Engine owning an explicit backend (the composition root for tests and
  /// Open()).
  QueryEngine(std::unique_ptr<storage::StorageBackend> backend,
              const EngineOptions& options = {});

  /// Builds the backend options.storage asks for and the engine over it.
  /// This is the only way to get a file-backed engine: opening the index
  /// can fail (kNotFound, kBadMagic, ...) and the Status must reach the
  /// caller. `in_memory_source` feeds the in-memory/simulated kinds and is
  /// ignored for kFile.
  [[nodiscard]] static StatusOr<std::unique_ptr<QueryEngine>> Open(
      const EngineOptions& options,
      const FlatDataset* in_memory_source = nullptr);

  /// Borrowing a temporary database would dangle immediately; forbidden.
  explicit QueryEngine(FlatDataset&&, const EngineOptions& = {}) = delete;
  explicit QueryEngine(std::vector<Series>&&, const EngineOptions& = {}) =
      delete;

  const EngineOptions& options() const { return options_; }
  /// The storage candidates are fetched from (null only for the legacy
  /// vector<Series> adapter).
  const storage::StorageBackend* backend() const { return backend_.get(); }
  std::size_t database_size() const;
  /// Common series length of the database (0 when empty).
  std::size_t database_length() const;

  /// 1-NN: the rotation-invariant nearest neighbor of `query`.
  ScanResult Search(const Series& query,
                    obs::QueryMetrics* metrics = nullptr) const;

  /// 1-NN skipping database index `holdout` (leave-one-out protocols:
  /// classification, the benches' query-from-database methodology).
  /// Result indexes refer to the full database. holdout >= size() skips
  /// nothing.
  ScanResult SearchLeaveOneOut(const Series& query, std::size_t holdout,
                               obs::QueryMetrics* metrics = nullptr) const;

  /// k-NN, ascending by distance; the k-th best distance prunes.
  std::vector<Neighbor> Knn(const Series& query, int k,
                            StepCounter* counter = nullptr,
                            obs::QueryMetrics* metrics = nullptr) const;

  /// k-NN skipping database index `holdout` (see SearchLeaveOneOut).
  std::vector<Neighbor> KnnLeaveOneOut(const Series& query, int k,
                                       std::size_t holdout,
                                       StepCounter* counter = nullptr,
                                       obs::QueryMetrics* metrics = nullptr)
      const;

  /// Range query: every object within `radius`, ascending by distance.
  std::vector<Neighbor> Range(const Series& query, double radius,
                              StepCounter* counter = nullptr,
                              obs::QueryMetrics* metrics = nullptr) const;

  /// 1-NN with a cross-partition best-so-far exchange: behaves exactly
  /// like SearchLeaveOneOut over THIS engine's database, but additionally
  /// prunes against `shared` (one ulp outward, so foreign ties never
  /// displace a local winner) and publishes local improvements into it.
  /// Used by ShardedIndex to search disjoint shards in parallel with
  /// GLOBAL pruning power; with a fresh SharedBound it degenerates to
  /// SearchLeaveOneOut bit-for-bit. `shared` must be non-null.
  ScanResult SearchShared(const Series& query, std::size_t holdout,
                          SharedBound* shared,
                          obs::QueryMetrics* metrics = nullptr) const;

  /// k-NN variant of SearchShared: publishes the local k-th-best distance
  /// (a sound global bound — any candidate outside its own partition's
  /// top k is outside the global top k).
  std::vector<Neighbor> KnnShared(const Series& query, int k,
                                  std::size_t holdout, SharedBound* shared,
                                  StepCounter* counter = nullptr,
                                  obs::QueryMetrics* metrics = nullptr) const;

  /// Validates a query against this engine's database: non-empty, finite,
  /// and length-matching.
  [[nodiscard]] Status ValidateQuery(const Series& query) const;

  /// Checked variants: the validated public entry points. `cancel`, when
  /// non-null, is polled cooperatively at every cascade stage boundary
  /// (fetch / filter / terminal, per candidate); a fired token aborts the
  /// scan and the call returns the token's typed Status (kDeadlineExceeded
  /// or kCancelled) — NEVER a partial result presented as exact. `metrics`
  /// has the same contract as on the unchecked entry points.
  [[nodiscard]] StatusOr<ScanResult> SearchChecked(
      const Series& query, const CancelToken* cancel = nullptr,
      obs::QueryMetrics* metrics = nullptr) const;
  [[nodiscard]] StatusOr<std::vector<Neighbor>> KnnChecked(
      const Series& query, int k, StepCounter* counter = nullptr,
      const CancelToken* cancel = nullptr,
      obs::QueryMetrics* metrics = nullptr) const;
  [[nodiscard]] StatusOr<std::vector<Neighbor>> RangeChecked(
      const Series& query, double radius, StepCounter* counter = nullptr,
      const CancelToken* cancel = nullptr,
      obs::QueryMetrics* metrics = nullptr) const;

  /// Batch 1-NN over a worker pool. Results (including each per-query
  /// StepCounter) are BIT-IDENTICAL to running Search sequentially: queries
  /// are independent, each runs single-threaded, and `merged` accumulates
  /// per-query counters in query order regardless of which worker ran them.
  /// `metrics`, when given, is merged the same way (thread-local per-query
  /// metrics, folded in query order), so every count except wall time and
  /// latency is independent of the thread count.
  std::vector<ScanResult> SearchBatch(const std::vector<Series>& queries,
                                      int num_threads,
                                      StepCounter* merged = nullptr,
                                      obs::QueryMetrics* metrics = nullptr)
      const;

  /// Batch k-NN; same determinism guarantee as SearchBatch.
  std::vector<std::vector<Neighbor>> KnnSearchBatch(
      const std::vector<Series>& queries, int k, int num_threads,
      StepCounter* merged = nullptr,
      obs::QueryMetrics* metrics = nullptr) const;

  /// Batch range search; same determinism guarantee as SearchBatch.
  std::vector<std::vector<Neighbor>> RangeSearchBatch(
      const std::vector<Series>& queries, double radius, int num_threads,
      StepCounter* merged = nullptr,
      obs::QueryMetrics* metrics = nullptr) const;

 private:
  /// Scan cores shared by the unchecked entry points (cancel == nullptr)
  /// and the Checked ones. When `cancel` fires mid-scan its typed Status
  /// lands in `*interrupted` and the (partial, meaningless) value result
  /// must be discarded by the caller. `fetch_failed`, when non-null, is
  /// set if any candidate fetch of THIS query returned an invalid handle
  /// — a per-query signal, unlike the backend's shared error latch, so
  /// concurrent queries on one backend cannot mask each other's skipped
  /// candidates.
  /// `shared`, when non-null, wires the collector into a cross-partition
  /// best-so-far exchange (see SharedBound); null reproduces the
  /// single-engine behavior exactly.
  ScanResult SearchImpl(const Series& query, std::size_t holdout,
                        obs::QueryMetrics* metrics, const CancelToken* cancel,
                        Status* interrupted, bool* fetch_failed,
                        SharedBound* shared) const;
  std::vector<Neighbor> KnnImpl(const Series& query, int k,
                                std::size_t holdout, StepCounter* counter,
                                obs::QueryMetrics* metrics,
                                const CancelToken* cancel,
                                Status* interrupted,
                                bool* fetch_failed,
                                SharedBound* shared) const;
  std::vector<Neighbor> RangeImpl(const Series& query, double radius,
                                  StepCounter* counter,
                                  obs::QueryMetrics* metrics,
                                  const CancelToken* cancel,
                                  Status* interrupted,
                                  bool* fetch_failed) const;

  /// The FlatDataset whose SoA tiles the blocked drivers may scan
  /// directly, or nullptr when candidates must go through per-candidate
  /// fetches (legacy vector storage, simulated/file/fault-injecting
  /// backends — anything whose Fetch does accountable work).
  const FlatDataset* BlockedSource() const;

  /// One candidate fetch: a borrow for legacy vector storage, a backend
  /// fetch (with I/O accounting into `io`) otherwise.
  storage::SeriesHandle FetchCandidate(std::size_t i,
                                       storage::FetchStats* io) const;
  /// True when fetches do attributable I/O (simulated or file backend) —
  /// gates the kDiskFetch stage so purely in-memory runs keep their
  /// metrics shape.
  bool BackendDoesIo() const;

  /// Resident candidate rows for the kVecSignature filter: a count x dims
  /// matrix and the steps one row lookup charges. data == nullptr means
  /// the filter embeds each candidate itself (one FFT per candidate).
  struct VecSigRows {
    const double* data = nullptr;
    std::size_t dims = 0;
    std::uint64_t steps_per_row = 0;
  };

  /// The matrix an in-memory engine builds on its first kVecSignature
  /// query. `mutex` is kLeaf: the build acquires nothing under it, and
  /// holding it across the build makes concurrent first queries build
  /// once. Read-only once filled.
  struct VecSigCache {
    Mutex mutex;
    std::vector<double> rows ROTIND_GUARDED_BY(mutex);
  };

  /// Chooses the kVecSignature row source once (called by every
  /// constructor): a FileBackend's RIDX v2 section, else an empty
  /// VecSigCache when BlockedSource() is non-null, else neither — the
  /// simulated, fault-injecting, sharded-view and legacy vector<Series>
  /// engines keep embedding per candidate. Only cascades that contain
  /// kVecSignature get a source.
  void InitVecSigSource();

  /// The rows one query of `query_length` reads:
  ///   - stored RIDX rows when their dims fit the query (dims <= n/2),
  ///     charging dims steps per lookup;
  ///   - the VecSigCache rows when the query length equals the dataset
  ///     length, built here on first use, charging FftStepCost(n) per
  ///     lookup — the price of the embedding each row replaces, so
  ///     counters match the per-candidate path. The build charges no
  ///     steps; its wall time lands on `metrics`' kVecSignature stage;
  ///   - none otherwise.
  /// Distances are bit-identical on every path: each row holds exactly
  /// the doubles MakeVecSignature returns for that candidate.
  VecSigRows ResolveVecSigRows(std::size_t query_length,
                               obs::QueryMetrics* metrics) const;

  const std::vector<Series>* vec_ = nullptr;
  std::unique_ptr<storage::StorageBackend> backend_;
  EngineOptions options_;
  VecSigRows stored_vec_sigs_;
  std::unique_ptr<VecSigCache> vec_sig_cache_;
};

}  // namespace rotind

#endif  // ROTIND_SEARCH_ENGINE_H_

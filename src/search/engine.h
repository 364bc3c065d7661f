#ifndef ROTIND_SEARCH_ENGINE_H_
#define ROTIND_SEARCH_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
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
#include "src/envelope/paa.h"
#include "src/obs/metrics.h"
#include "src/search/hmerge.h"
#include "src/search/vptree.h"
#include "src/storage/backend.h"

namespace rotind {

/// One stage of the pruning cascade. A cascade is an optional visit order,
/// an optional filter and one terminal (exact) evaluator: the filter is a
/// cheap lower bound that discards candidates provably at or above the
/// current threshold (bounds compose as increasingly tight filters, in
/// front of the terminal's own LB_Keogh wedges), and the terminal stage
/// computes the exact thresholded distance. Because every bound is a true
/// lower bound (Propositions 1-2), any composition returns exactly the
/// same matches as brute force — only the work differs.
enum class StageKind {
  /// Visit order: the paper's disk index (Section 4.2, Table 7). Instead of
  /// testing each candidate, its lower bound picks which candidates the
  /// cascade sees, and in what order: a VP-tree walk over resident
  /// FFT-magnitude signatures for kEuclidean, and ascending LB_PAA against
  /// PAA-reduced wedge envelopes of the query (Niennattrakul et al.) for
  /// kDtw. The visit stops once every remaining bound reaches the
  /// threshold. Signatures come from a file backend's RIDX sections or,
  /// for the in-memory and simulated backends, are computed at engine
  /// construction (EngineOptions::index_dims); other backends visit in id
  /// order with identical answers. Normalization moves it to the front
  /// and drops it under kLcss and ahead of the unconstrained-DTW terminal
  /// (kFullScan under kDtw), which a banded bound does not lower-bound.
  kSignatureIndex,
  /// Filter: the first d = min(EngineOptions::vec_sig_dims, n/2) bins of
  /// the paper's rotation/mirror-invariant FFT-magnitude signature
  /// (Section 4.2, fourier::MakeSpectralSignature). Any subset of bins
  /// lower-bounds RED, and at d = n/2 this is the paper's FFT lower bound.
  /// d is the same on every backend. Candidates are compared as resident
  /// rows where the engine has them — the first d columns of a file
  /// backend's RIDX FFT section when it is at least d wide, or, over an
  /// in-memory FlatDataset, one matrix the engine builds on its first
  /// vec-signature query — and embedded one FFT per candidate per query
  /// otherwise (see QueryEngine). Sound for kEuclidean only; dropped for
  /// other measures.
  kVecSignature,
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
/// silently misinterpreted: a filter that is unsound for the configured
/// measure is dropped, everything after the first terminal stage is
/// ignored, a filter-only cascade gets kExactScan appended, kVecSignature
/// is kept once, and kSignatureIndex (which orders the visit rather than
/// filtering it) moves to the front, also once.
struct CascadeSpec {
  std::vector<StageKind> stages = {StageKind::kWedge};

  /// Returns the normalized form described above.
  CascadeSpec Normalized(DistanceKind kind) const;
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
  /// Spectral bins the kVecSignature filter compares, clamped to [1, n/2]
  /// per query (at n/2 the filter is the paper's FFT-magnitude bound).
  /// Every backend filters at this width; it is also the width of the
  /// rows an in-memory engine builds on first use.
  std::size_t vec_sig_dims = 8;
  /// Signature dimensionality of kSignatureIndex when the engine computes
  /// the signatures itself: FFT coefficients for kEuclidean (at most n/2),
  /// PAA segments for kDtw (at most n). A file backend's stored
  /// dimensionality wins.
  std::size_t index_dims = 16;
  /// Where candidate series live: in-memory borrow (default), the paper's
  /// simulated-disk accounting, or a paged RIDX index file behind a
  /// BufferPool (file selection requires QueryEngine::Open — the borrowing
  /// constructors cannot report an open failure).
  storage::StorageOptions storage;
};

/// Outcome of a 1-nearest-neighbor search.
struct ScanResult {
  int best_index = -1;
  double best_distance = 0.0;
  /// Shift of the winning rotation, in [0, n).
  int best_shift = 0;
  /// Whether the winning alignment was against the mirrored query.
  bool best_mirrored = false;
  /// Work done, including setup (wedge build / query FFT).
  StepCounter counter;
};

/// One neighbor of a k-NN / range result set.
struct Neighbor {
  int index = -1;
  double distance = 0.0;
  int shift = 0;
  bool mirrored = false;
};

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
/// EngineOptions::storage, or any backend the caller hands in. A borrowed
/// FlatDataset must outlive the engine. All search methods are const and
/// thread-compatible: concurrent calls on one engine are safe because
/// per-query state (rotation sets, wedge trees, the query's signatures) is
/// built per call, the backends are internally synchronized, the
/// kSignatureIndex signatures are built at construction and read-only
/// afterwards, and the one piece of shared lazy state — the vec-signature
/// row matrix of an in-memory engine, built by its first kVecSignature
/// query — is built once under a mutex and read-only afterwards. Both
/// describe the borrowed FlatDataset as it was when they were built, so
/// the dataset must not grow afterwards. This is what SearchBatch relies
/// on.
class QueryEngine {
 public:
  /// Engine over a borrowed FlatDataset (no copy is made). Honors
  /// options.storage for the in-memory and simulated backends; asking for
  /// the file backend here is a contract violation (open can fail) — use
  /// Open().
  explicit QueryEngine(const FlatDataset& db,
                       const EngineOptions& options = {});

  /// Engine owning an explicit backend (the composition root for tests and
  /// Open()).
  QueryEngine(std::unique_ptr<storage::StorageBackend> backend,
              const EngineOptions& options = {});

  /// Builds the backend options.storage asks for and the engine over it.
  /// This is the only way to get a file-backed engine: opening the index
  /// can fail (kNotFound, kBadMagic, ...) and the Status must reach the
  /// caller. `in_memory_source` feeds the in-memory/simulated kinds and is
  /// ignored for kFile. A cascade with kSignatureIndex is also checked
  /// here (kInvalidArgument): an empty database, objects shorter than 2
  /// samples, dims < 1, dims beyond the n/2 spectral coefficients
  /// (kEuclidean) or the n samples (kDtw), and an index file without the
  /// signature section the measure needs. The constructors check none of
  /// this; given such options, they visit in id order instead.
  [[nodiscard]] static StatusOr<std::unique_ptr<QueryEngine>> Open(
      const EngineOptions& options,
      const FlatDataset* in_memory_source = nullptr);

  /// Borrowing a temporary database would dangle immediately; forbidden.
  explicit QueryEngine(FlatDataset&&, const EngineOptions& = {}) = delete;

  const EngineOptions& options() const { return options_; }
  /// The storage candidates are fetched from; never null.
  const storage::StorageBackend* backend() const { return backend_.get(); }
  std::size_t database_size() const { return backend_->size(); }
  /// Common series length of the database (0 when empty).
  std::size_t database_length() const { return backend_->length(); }

  /// 1-NN: the rotation-invariant nearest neighbor of `query`.
  ScanResult Search(const Series& query,
                    obs::QueryMetrics* metrics = nullptr) const;

  /// 1-NN skipping database index `holdout` (leave-one-out protocols:
  /// classification, the benches' query-from-database methodology).
  /// Result indexes refer to the full database. holdout >= size() skips
  /// nothing.
  ScanResult SearchLeaveOneOut(const Series& query, std::size_t holdout,
                               obs::QueryMetrics* metrics = nullptr) const;

  /// k-NN, ascending by distance; the k-th best distance prunes. k < 1
  /// returns an empty result without scanning (as do KnnLeaveOneOut and
  /// KnnSearchBatch); KnnChecked rejects it instead.
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
  /// What one scan reports besides its collector's result: the typed
  /// Status of a cancel token that fired mid-scan (the partial result is
  /// then meaningless and must be discarded), and whether any candidate
  /// fetch of THIS query returned an invalid handle — a per-query signal,
  /// unlike the backend's shared error latch, so concurrent queries on one
  /// backend cannot mask each other's skipped candidates.
  struct ScanOutcome {
    Status interrupted;
    bool fetch_failed = false;
  };

  /// The one driver behind every search method: per-query cascade setup,
  /// the visit — the kSignatureIndex cursor when the engine's signatures
  /// describe this database at the query's length, SoA tile groups when
  /// the cascade can score them, id order otherwise — fetch accounting, and
  /// cancellation polling, feeding `collector` (best-so-far, k-th-best
  /// heap, or radius). `holdout` is skipped; `outcome` may be null for the
  /// unchecked entry points.
  template <typename Collector>
  void Scan(const Series& query, std::size_t holdout, Collector& collector,
            StepCounter* counter, obs::QueryMetrics* metrics,
            const CancelToken* cancel, ScanOutcome* outcome) const;

  /// Scan behind the Checked entry points: rejects an invalid query, then
  /// `argument_error` (the caller's own parameter check), then an
  /// already-fired token before any setup; returns a mid-scan cancel or
  /// storage failure as its typed Status.
  template <typename Collector>
  [[nodiscard]] Status ScanChecked(const Series& query,
                                   Status argument_error,
                                   Collector& collector, StepCounter* counter,
                                   const CancelToken* cancel,
                                   obs::QueryMetrics* metrics) const;

  /// The FlatDataset whose SoA tiles the blocked drivers may scan
  /// directly, or nullptr when candidates must go through per-candidate
  /// fetches (simulated, file, fault-injecting and sharded-view backends —
  /// anything whose Fetch does accountable work or may fail).
  const FlatDataset* BlockedSource() const;

  /// True when fetches do attributable I/O (simulated or file backend) —
  /// gates the kDiskFetch stage so purely in-memory runs keep their
  /// metrics shape.
  bool BackendDoesIo() const;

  /// Resident candidate rows for the kVecSignature filter: a count x
  /// stride matrix whose rows begin with the filter's d spectral values,
  /// and the steps one row lookup charges. data == nullptr means the
  /// filter embeds each candidate itself (one FFT per candidate).
  struct VecSigRows {
    const double* data = nullptr;
    std::size_t stride = 0;
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
  /// constructor): a FileBackend's RIDX FFT section when it holds at
  /// least d columns, else an empty VecSigCache when BlockedSource() is
  /// non-null, else neither — narrower files and the simulated,
  /// fault-injecting and sharded-view engines keep embedding per
  /// candidate. Only cascades that contain kVecSignature get a source.
  void InitVecSigSource();

  /// The rows one query of `query_length` reads (none unless the query
  /// length equals the database's):
  ///   - the first d columns of the stored FFT section, charging d steps
  ///     per lookup;
  ///   - the VecSigCache rows, built here on first use, charging
  ///     FftStepCost(n) per lookup — the price of the embedding each row
  ///     replaces, so counters match the per-candidate path. The build
  ///     charges no steps; its wall time lands on `metrics`'
  ///     kVecSignature stage.
  /// Distances are bit-identical on every path: each row begins with
  /// exactly the d doubles MakeSpectralSignature returns for that
  /// candidate.
  VecSigRows ResolveVecSigRows(std::size_t query_length,
                               obs::QueryMetrics* metrics) const;

  /// The kSignatureIndex signatures of every candidate, at one width:
  /// FFT magnitudes in a VP-tree (kEuclidean) or PAA rows (kDtw).
  struct SignatureIndex {
    std::size_t dims = 0;
    /// The database the signatures describe: its size and series length.
    std::size_t count = 0;
    std::size_t length = 0;
    std::unique_ptr<VpTree> vptree;
    std::vector<PaaPoint> paa;
  };

  /// Builds index_ once (called by every backend constructor) when the
  /// normalized cascade contains kSignatureIndex: from a FileBackend's
  /// RIDX sections, or by embedding the series of an in-memory or
  /// simulated backend. Other backends, and options Open would reject,
  /// leave it null — the engine then visits in id order.
  void InitSignatureIndex();

  std::unique_ptr<storage::StorageBackend> backend_;
  EngineOptions options_;
  VecSigRows stored_vec_sigs_;
  std::unique_ptr<VecSigCache> vec_sig_cache_;
  /// Read-only after construction, so concurrent queries share it.
  std::unique_ptr<const SignatureIndex> index_;
};

}  // namespace rotind

#endif  // ROTIND_SEARCH_ENGINE_H_

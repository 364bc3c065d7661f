#include "src/search/engine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <thread>

#include "src/core/contracts.h"
#include "src/core/sync.h"
#include "src/distance/euclidean.h"
#include "src/envelope/paa.h"
#include "src/fourier/spectral.h"
#include "src/search/lcss_search.h"
#include "src/simd/simd.h"

namespace rotind {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The blocked drivers hand FlatDataset tiles straight to the blocked ED
// kernels; the two lane widths are one constant seen from two layers.
static_assert(FlatDataset::kTileLanes == simd::kBlockLanes,
              "SoA tile width must match the simd kernel lane width");

bool IsTerminal(StageKind kind) {
  return kind != StageKind::kSignatureIndex &&
         kind != StageKind::kVecSignature;
}

bool HasStage(const CascadeSpec& cascade, StageKind kind) {
  return std::find(cascade.stages.begin(), cascade.stages.end(), kind) !=
         cascade.stages.end();
}

/// Observability bucket for each cascade stage.
obs::StageId StageIdFor(StageKind kind) {
  switch (kind) {
    case StageKind::kSignatureIndex: return obs::StageId::kSignatureFilter;
    case StageKind::kVecSignature: return obs::StageId::kVecSignature;
    case StageKind::kWedge: return obs::StageId::kWedge;
    case StageKind::kExactScan: return obs::StageId::kExactScan;
    case StageKind::kFullScan: return obs::StageId::kFullScan;
    case StageKind::kFullScanBanded: return obs::StageId::kFullScanBanded;
  }
  return obs::StageId::kExactScan;
}

using obs::QueryLatencyScope;
using obs::StageScope;

/// Per-candidate outcome of one cascade pass, in the thresholded contract
/// the drivers expect: found implies distance < the threshold passed in.
struct CandidateMatch {
  double distance = kInf;
  int shift = 0;
  bool mirrored = false;
  bool found = false;
};

/// The filter width on every backend: vec_sig_dims clamped to the n/2
/// spectral bins a length-n series has (and to at least one).
std::size_t FilterDims(std::size_t vec_sig_dims, std::size_t n) {
  return std::min(std::max<std::size_t>(vec_sig_dims, 1), n / 2);
}

/// The cascade's one filter: the first dims bins of the rotation/mirror-
/// invariant FFT-magnitude signature (MakeSpectralSignature). Any subset
/// of bins lower-bounds RED (paper Section 4.2), so the prefix does;
/// sound for Euclidean only. Prune returns true when the candidate
/// provably cannot beat `threshold`. Two candidate paths with
/// bit-identical distances: resident rows (an O(dims) lookup charged
/// `row_steps`, keyed by the candidate's database position `index`)
/// or an on-the-fly embedding (one FFT) — identical because every row
/// begins with the doubles MakeSpectralSignature returns for the same
/// candidate bytes, compared in the same order.
class SpectralPrefixFilter {
 public:
  SpectralPrefixFilter(const Series& query, std::size_t dims,
                       const double* rows, std::size_t stride,
                       std::uint64_t row_steps, StepCounter* counter)
      : n_(query.size()),
        rows_(rows),
        stride_(stride),
        row_steps_(row_steps) {
    if (n_ < 2) return;  // no spectrum; Prune never fires
    dims_ = FilterDims(dims, n_);
    signature_ = MakeSpectralSignature(query, dims_).values;
    AddSetupSteps(counter, FftStepCost(n_));
  }

  bool Prune(std::size_t index, const double* c, double threshold,
             StepCounter* counter) const {
    if (counter != nullptr) ++counter->lower_bound_evals;
    if (n_ < 2) return false;
    if (rows_ != nullptr) {
      AddSteps(counter, row_steps_);
      return Distance(rows_ + index * stride_) >= threshold;
    }
    AddSteps(counter, FftStepCost(n_));
    const SpectralSignature sig =
        MakeSpectralSignature(Series(c, c + n_), dims_);
    return Distance(sig.values.data()) >= threshold;
  }

 private:
  /// L2 distance from the query's signature to the first dims_ values of
  /// `row`, query minus candidate in ascending bin order (the order
  /// SignatureDistance uses).
  double Distance(const double* row) const {
    double acc = 0.0;
    for (std::size_t b = 0; b < dims_; ++b) {
      const double diff = signature_[b] - row[b];
      acc += diff * diff;
    }
    return std::sqrt(acc);
  }

  std::size_t n_;
  const double* rows_;       ///< count x stride_ resident matrix or null.
  std::size_t stride_;       ///< doubles from one row to the next.
  std::uint64_t row_steps_;  ///< steps charged per row lookup.
  std::size_t dims_ = 0;
  std::vector<double> signature_;
};

/// The exact terminal evaluator at the end of every cascade.
class TerminalStage {
 public:
  virtual ~TerminalStage() = default;
  virtual CandidateMatch Evaluate(const double* c, double threshold,
                                  StepCounter* counter) = 0;
  /// Hook fired by the driver when the collector's threshold improves
  /// (dynamic-K re-probing for wedges; no-op otherwise).
  virtual void NotifyImproved(const double* trigger, double best,
                              StepCounter* counter) {
    (void)trigger;
    (void)best;
    (void)counter;
  }

  /// Whether this terminal can score a whole SoA tile group at once.
  /// Default: per-candidate only.
  virtual bool SupportsBlocked() const { return false; }
  /// The wedge tree over the query's rotations, when this terminal builds
  /// one (kWedge under ED/DTW); the DTW signature index reuses it.
  virtual const WedgeTree* wedge_tree() const { return nullptr; }
  /// Scores the first `valid` lanes of one tile (FlatDataset::tile).
  /// out[l].distance must be the lane's exact distance with shift/mirrored
  /// resolved; out[l].found is left false — the DRIVER resolves it against
  /// the live threshold so the stats attribution matches the
  /// per-candidate path exactly.
  virtual void EvaluateBlock(const double* tile, std::size_t valid,
                             CandidateMatch* out, StepCounter* counter) {
    (void)tile;
    (void)valid;
    (void)out;
    (void)counter;
  }
};

/// LB_Keogh wedge H-Merge for ED/DTW (the paper's contribution).
class WedgeTerminal final : public TerminalStage {
 public:
  WedgeTerminal(const Series& query, const EngineOptions& options,
                StepCounter* counter, obs::WedgeStats* wedge_stats)
      : wedge_stats_(wedge_stats),
        searcher_(query, MakeWedgeOptions(options), counter) {}

  static WedgeSearchOptions MakeWedgeOptions(const EngineOptions& options) {
    WedgeSearchOptions w;
    static_cast<WedgePolicy&>(w) = options.wedge;
    w.kind = options.kind;
    w.band = options.band;
    w.rotation = options.rotation;
    return w;
  }

  CandidateMatch Evaluate(const double* c, double threshold,
                          StepCounter* counter) override {
    CandidateMatch out;
    const HMergeResult r =
        searcher_.Distance(c, threshold, counter, wedge_stats_);
    if (!r.abandoned) {
      const RotationSet& rots = searcher_.tree().rotations();
      out.distance = r.distance;
      out.shift = rots.shift_of(r.rotation_index);
      out.mirrored = rots.mirrored_of(r.rotation_index);
      out.found = true;
    }
    return out;
  }

  void NotifyImproved(const double* trigger, double best,
                      StepCounter* counter) override {
    searcher_.AdaptK(trigger, best, counter, wedge_stats_);
  }

  const WedgeTree* wedge_tree() const override { return &searcher_.tree(); }

 private:
  obs::WedgeStats* wedge_stats_;
  WedgeSearcher searcher_;
};

/// Wedge pruning in the LCSS similarity domain (paper Section 4.3): the
/// engine's distance threshold 1 - L/n converts to a required match count,
/// and the envelope bound prunes wedges that cannot reach it.
class LcssWedgeTerminal final : public TerminalStage {
 public:
  LcssWedgeTerminal(const Series& query, const LcssOptions& lcss,
                    const RotationOptions& rotation, StepCounter* counter)
      : n_(query.size()),
        lcss_(lcss),
        searcher_(query, lcss, rotation, counter) {}

  CandidateMatch Evaluate(const double* c, double threshold,
                          StepCounter* counter) override {
    CandidateMatch out;
    const double n = static_cast<double>(n_ == 0 ? 1 : n_);
    // Largest length whose distance is still >= threshold: Match must only
    // find lengths strictly beyond it. Guard the floor against FP rounding
    // at integer boundaries using the exact distance expression.
    long bound = -1;
    if (threshold <= 1.0) {
      bound = static_cast<long>(std::floor(n * (1.0 - threshold)));
      bound = std::clamp(bound, -1L, static_cast<long>(n_));
      while (bound >= 0 && 1.0 - static_cast<double>(bound) / n < threshold) {
        --bound;
      }
      while (bound < static_cast<long>(n_) &&
             1.0 - static_cast<double>(bound + 1) / n >= threshold) {
        ++bound;
      }
    }
    if (bound < 0) {
      // Even a zero-length match (distance exactly 1.0) beats the
      // threshold, so nothing can be pruned: every rotation ties at
      // distance <= 1.0 and an exact scan settles which wins.
      const RotationMatch m = RotationInvariantLcss(
          searcher_.tree().rotations(), c, lcss_, counter);
      out.distance = m.distance;
      out.shift = searcher_.tree().rotations().shift_of(m.rotation_index);
      out.mirrored =
          searcher_.tree().rotations().mirrored_of(m.rotation_index);
      out.found = m.distance < threshold;
      return out;
    }
    const LcssMatchResult r = searcher_.Match(
        c, static_cast<std::size_t>(bound), counter);
    if (!r.pruned) {
      const RotationSet& rots = searcher_.tree().rotations();
      out.distance = 1.0 - static_cast<double>(r.length) / n;
      out.shift = rots.shift_of(r.rotation_index);
      out.mirrored = rots.mirrored_of(r.rotation_index);
      out.found = true;
    }
    return out;
  }

 private:
  std::size_t n_;
  LcssOptions lcss_;
  LcssWedgeSearcher searcher_;
};

/// Rotation-scan terminal: full or early-abandoning evaluation of every
/// candidate rotation, dispatched through the unified Measure layer (with
/// the specialized ED/DTW kernels kept on the hot path for step parity
/// with the paper's Tables 1-3).
class ScanTerminal final : public TerminalStage {
 public:
  enum class Mode { kEarlyAbandon, kFull, kFullBanded };

  ScanTerminal(const Series& query, const EngineOptions& options, Mode mode)
      : mode_(mode),
        kind_(options.kind),
        band_(options.band),
        rotations_(query, options.rotation) {
    MeasureParams params;
    params.band = options.band;
    params.lcss = options.lcss;
    measure_ = MakeMeasure(options.kind, params);
  }

  CandidateMatch Evaluate(const double* c, double threshold,
                          StepCounter* counter) override {
    RotationMatch match;
    switch (kind_) {
      case DistanceKind::kEuclidean:
        match = mode_ == Mode::kEarlyAbandon
                    ? EarlyAbandonRotationEuclidean(rotations_, c, threshold,
                                                    counter)
                    : RotationInvariantEuclidean(rotations_, c, counter);
        break;
      case DistanceKind::kDtw:
        switch (mode_) {
          case Mode::kEarlyAbandon:
            match = EarlyAbandonRotationDtw(rotations_, c, band_, threshold,
                                            counter);
            break;
          case Mode::kFull:
            match = RotationInvariantDtw(rotations_, c, /*band=*/-1, counter);
            break;
          case Mode::kFullBanded:
            match = RotationInvariantDtw(rotations_, c, band_, counter);
            break;
        }
        break;
      case DistanceKind::kLcss:
        match = mode_ == Mode::kEarlyAbandon
                    ? MeasureRotationScan(c, threshold, counter)
                    : MeasureFullScan(c, counter);
        break;
    }

    // Full (non-abandoning) modes report any distance; translate into the
    // thresholded contract the drivers expect.
    CandidateMatch out;
    if (!match.abandoned && match.distance < threshold) {
      out.distance = match.distance;
      out.shift = rotations_.shift_of(match.rotation_index);
      out.mirrored = rotations_.mirrored_of(match.rotation_index);
      out.found = true;
    }
    return out;
  }

  bool SupportsBlocked() const override {
    return kind_ == DistanceKind::kEuclidean && mode_ != Mode::kEarlyAbandon;
  }

  // Blocked ED over one SoA tile, per-lane identical to the scalar
  // rotation drivers in src/distance/rotation.cc: each lane tracks its own
  // best SQUARED distance across rotations (strict <, first rotation wins
  // ties) and takes one sqrt at the end. Vectorizing across candidates
  // instead of within one keeps every lane's accumulation chain in scalar
  // order, so distances — and therefore answers — are bit-identical.
  void EvaluateBlock(const double* tile, std::size_t valid,
                     CandidateMatch* out, StepCounter* counter) override {
    const std::size_t n = rotations_.length();
    double sq_best[simd::kBlockLanes];
    std::size_t best_r[simd::kBlockLanes];
    double out_sq[simd::kBlockLanes];
    for (std::size_t l = 0; l < simd::kBlockLanes; ++l) {
      sq_best[l] = kInf;
      best_r[l] = 0;
    }
    for (std::size_t r = 0; r < rotations_.count(); ++r) {
      SquaredEuclideanBlock(rotations_.rotation(r), tile, n, valid, out_sq,
                            counter);
      if (counter != nullptr) counter->full_evals += valid;
      for (std::size_t l = 0; l < simd::kBlockLanes; ++l) {
        if (out_sq[l] < sq_best[l]) {
          sq_best[l] = out_sq[l];
          best_r[l] = r;
        }
      }
    }
    for (std::size_t l = 0; l < simd::kBlockLanes; ++l) {
      out[l] = CandidateMatch{};
      out[l].distance = std::sqrt(sq_best[l]);
      out[l].shift = rotations_.shift_of(best_r[l]);
      out[l].mirrored = rotations_.mirrored_of(best_r[l]);
    }
  }

 private:
  /// Generic early-abandoning scan over the Measure interface: the path a
  /// new distance measure gets for free.
  RotationMatch MeasureRotationScan(const double* c, double best_so_far,
                                    StepCounter* counter) const {
    RotationMatch best{best_so_far, 0, true};
    double limit = best_so_far;
    for (std::size_t r = 0; r < rotations_.count(); ++r) {
      const double d = measure_->Distance(rotations_.rotation(r), c,
                                          rotations_.length(), limit, counter);
      if (!std::isinf(d) && d < limit) {
        limit = d;
        best.distance = d;
        best.rotation_index = r;
        best.abandoned = false;
      }
    }
    if (best.abandoned) best.distance = kAbandoned;
    return best;
  }

  RotationMatch MeasureFullScan(const double* c, StepCounter* counter) const {
    RotationMatch best{kInf, 0, false};
    for (std::size_t r = 0; r < rotations_.count(); ++r) {
      const double d = measure_->FullDistance(
          rotations_.rotation(r), c, rotations_.length(), counter);
      if (d < best.distance) {
        best.distance = d;
        best.rotation_index = r;
      }
    }
    return best;
  }

  Mode mode_;
  DistanceKind kind_;
  int band_;
  RotationSet rotations_;
  std::unique_ptr<Measure> measure_;
};

/// A compiled per-query cascade: the optional filter then one terminal. When
/// `metrics` is non-null, every stage's candidate flow, step-count delta,
/// early abandons, and wall time are attributed to its obs::StageId —
/// including setup charged during construction — so the per-stage totals
/// sum exactly to the query's StepCounter.
class QueryCascade {
 public:
  /// `vec_sig_rows`/`vec_sig_stride`/`vec_sig_row_steps` feed the
  /// kVecSignature filter its resident rows and their per-lookup price
  /// (nullptr → embed candidates on the fly).
  QueryCascade(const Series& query, const EngineOptions& options,
               StepCounter* counter, obs::QueryMetrics* metrics = nullptr,
               const CancelToken* cancel = nullptr,
               const double* vec_sig_rows = nullptr,
               std::size_t vec_sig_stride = 0,
               std::uint64_t vec_sig_row_steps = 0)
      : metrics_(metrics), cancel_(cancel) {
    for (StageKind kind : options.cascade.stages) {
      if (IsTerminal(kind)) {
        terminal_id_ = StageIdFor(kind);
        StageScope scope(StatsFor(terminal_id_), counter);
        switch (kind) {
          case StageKind::kWedge:
            if (options.kind == DistanceKind::kLcss) {
              terminal_ = std::make_unique<LcssWedgeTerminal>(
                  query, options.lcss, options.rotation, counter);
            } else {
              terminal_ = std::make_unique<WedgeTerminal>(
                  query, options, counter,
                  metrics_ != nullptr ? &metrics_->wedge : nullptr);
            }
            break;
          case StageKind::kExactScan:
            terminal_ = std::make_unique<ScanTerminal>(
                query, options, ScanTerminal::Mode::kEarlyAbandon);
            break;
          case StageKind::kFullScan:
            terminal_ = std::make_unique<ScanTerminal>(
                query, options, ScanTerminal::Mode::kFull);
            break;
          case StageKind::kFullScanBanded:
            terminal_ = std::make_unique<ScanTerminal>(
                query, options, ScanTerminal::Mode::kFullBanded);
            break;
          case StageKind::kSignatureIndex:
          case StageKind::kVecSignature:
            break;  // not terminal
        }
        break;  // normalization guarantees the terminal is last
      }
      // kSignatureIndex orders the visit instead; the engine runs it.
      if (kind == StageKind::kVecSignature) {
        StageScope scope(StatsFor(obs::StageId::kVecSignature), counter);
        filter_.emplace(query, options.vec_sig_dims, vec_sig_rows,
                        vec_sig_stride, vec_sig_row_steps, counter);
      }
    }
    assert(terminal_ != nullptr && "cascade must be normalized");
  }

  CandidateMatch Compare(std::size_t index, const double* c, double threshold,
                         StepCounter* counter) {
    // Cooperative cancellation: the token is polled at every stage
    // boundary — before the filter and before the terminal — so a fired
    // deadline stops the cascade within one stage's work. Once fired, the
    // cascade stays cancelled and every later Compare is a no-op; the
    // driver checks cancelled() and abandons the scan.
    if (CheckCancelBoundary()) return CandidateMatch{};
    if (filter_.has_value()) {
      obs::StageStats* stats = StatsFor(obs::StageId::kVecSignature);
      bool pruned;
      {
        StageScope scope(stats, counter);
        pruned = filter_->Prune(index, c, threshold, counter);
      }
      if (stats != nullptr) {
        ++stats->candidates_entered;
        ++(pruned ? stats->candidates_pruned : stats->candidates_survived);
      }
      if (pruned) return CandidateMatch{};
      if (CheckCancelBoundary()) return CandidateMatch{};
    }
    obs::StageStats* stats = StatsFor(terminal_id_);
    CandidateMatch m;
    {
      StageScope scope(stats, counter);
      m = terminal_->Evaluate(c, threshold, counter);
    }
    if (stats != nullptr) {
      ++stats->candidates_entered;
      ++(m.found ? stats->candidates_survived : stats->candidates_pruned);
    }
    return m;
  }

  /// Whether the whole cascade can score SoA tile groups: no filter (a
  /// blocked pass would bypass it) and a terminal that opted in.
  bool SupportsBlocked() const {
    return !filter_.has_value() && terminal_->SupportsBlocked();
  }

  /// The terminal's wedge tree, or null (see TerminalStage::wedge_tree).
  const WedgeTree* wedge_tree() const { return terminal_->wedge_tree(); }

  /// Blocked counterpart of Compare for one tile group. Cancellation is
  /// polled once per group (the per-candidate path polls per candidate; a
  /// fired token still stops within one group's work). Stats attribution:
  /// step deltas land on the terminal stage here, and the DRIVER calls
  /// RecordTerminalOutcome per lane once it resolves found against the
  /// live threshold — summing to exactly the per-candidate totals.
  void CompareBlock(const double* tile, std::size_t valid,
                    CandidateMatch* out, StepCounter* counter) {
    if (CheckCancelBoundary()) return;
    StageScope scope(StatsFor(terminal_id_), counter);
    terminal_->EvaluateBlock(tile, valid, out, counter);
  }

  /// Candidate-flow bookkeeping for one blocked-scored lane.
  void RecordTerminalOutcome(bool found) {
    obs::StageStats* stats = StatsFor(terminal_id_);
    if (stats != nullptr) {
      ++stats->candidates_entered;
      ++(found ? stats->candidates_survived : stats->candidates_pruned);
    }
  }

  /// True once the token has fired; stays true (the scan result is void).
  bool cancelled() const { return !cancel_status_.ok(); }
  const Status& cancel_status() const { return cancel_status_; }

  void NotifyImproved(const double* trigger, double best,
                      StepCounter* counter) {
    StageScope scope(StatsFor(terminal_id_), counter);
    terminal_->NotifyImproved(trigger, best, counter);
  }

 private:
  obs::StageStats* StatsFor(obs::StageId id) {
    return metrics_ != nullptr ? &metrics_->stage(id) : nullptr;
  }

  /// Polls the token (if any), latches the first failure, and reports
  /// whether the cascade is (now) cancelled.
  bool CheckCancelBoundary() {
    if (cancel_ != nullptr && cancel_status_.ok()) {
      Status s = cancel_->Check();
      if (!s.ok()) cancel_status_ = std::move(s);
    }
    return !cancel_status_.ok();
  }

  obs::QueryMetrics* metrics_;
  const CancelToken* cancel_;
  Status cancel_status_;
  obs::StageId terminal_id_ = obs::StageId::kExactScan;
  std::optional<SpectralPrefixFilter> filter_;
  std::unique_ptr<TerminalStage> terminal_;
};

constexpr std::size_t kNoHoldout = std::numeric_limits<std::size_t>::max();

/// Folds a query's accumulated backend I/O into the observability layer:
/// object/page totals into IndexStats, pool activity into the kDiskFetch
/// stage. Called only for backends that do real I/O, so in-memory runs
/// keep their exact metrics shape.
void FoldFetchIo(const storage::FetchStats& io, obs::StageStats* fetch_stats,
                 obs::QueryMetrics* metrics) {
  if (metrics != nullptr) {
    metrics->index.object_fetches += io.object_fetches;
    metrics->index.page_reads += io.page_reads;
  }
  if (fetch_stats != nullptr) {
    fetch_stats->candidates_entered += io.object_fetches;
    fetch_stats->candidates_survived += io.object_fetches;
    fetch_stats->pool_hits += io.pool_hits;
    fetch_stats->pages_read += io.page_reads;
    fetch_stats->pool_evictions += io.pool_evictions;
    fetch_stats->io_bytes += io.bytes_read;
    fetch_stats->io_retries += io.retries;
    fetch_stats->io_faults_absorbed += io.faults_absorbed;
  }
}

/// Visits every candidate but `holdout` in database order: the scan every
/// cascade without kSignatureIndex runs. Templated into the driver, so the
/// visit compiles to a plain counting loop.
class IdOrderCursor {
 public:
  IdOrderCursor(std::size_t size, std::size_t holdout)
      : size_(size), holdout_(holdout) {}

  template <typename Collector>
  bool Next(const Collector& /*collector*/, std::size_t* id) {
    if (next_ == holdout_) ++next_;
    if (next_ >= size_) return false;
    *id = next_++;
    return true;
  }

 private:
  std::size_t size_;
  std::size_t holdout_;
  std::size_t next_ = 0;
};

/// kSignatureIndex under kEuclidean: the paper's VP-tree walk (Table 7)
/// over resident FFT-magnitude signatures, reading the collector's
/// threshold at every step. Its own work — the query's FFT, the metric
/// evaluations and the leaf sorts — lands on kSignatureFilter; nothing the
/// driver does between two Next calls is nested inside it.
class VpTreeCursor {
 public:
  VpTreeCursor(const VpTree& tree, const Series& query, std::size_t dims,
               std::size_t holdout, obs::StageStats* stats,
               StepCounter* counter)
      : holdout_(holdout),
        stats_(stats),
        counter_(counter),
        walk_(tree, QuerySignature(query, dims, stats, counter), counter) {}

  template <typename Collector>
  bool Next(const Collector& collector, std::size_t* id) {
    const StageScope scope(stats_, counter_);
    const double threshold = collector.threshold();
    int next;
    do {
      if (!walk_.Next(threshold, &next)) return false;
    } while (static_cast<std::size_t>(next) == holdout_);
    *id = static_cast<std::size_t>(next);
    ++visited_;
    return true;
  }

  std::uint64_t visited() const { return visited_; }
  std::uint64_t signature_evals() const { return walk_.metric_evals(); }

 private:
  static std::vector<double> QuerySignature(const Series& query,
                                            std::size_t dims,
                                            obs::StageStats* stats,
                                            StepCounter* counter) {
    const StageScope scope(stats, counter);
    AddSetupSteps(counter, FftStepCost(query.size()));
    return MakeSpectralSignature(query, dims).values;
  }

  std::size_t holdout_;
  obs::StageStats* stats_;
  StepCounter* counter_;
  VpTree::Walk walk_;
  std::uint64_t visited_ = 0;
};

/// kSignatureIndex under kDtw: the LB_PAA visit of exact DTW indexing
/// (Niennattrakul et al.; the paper's refs [16][37]). A candidate's bound is
/// the min of LB_PAA over the PAA-reduced, band-expanded envelopes of
/// kIndexWedges wedges of `tree`; all bounds are sorted once at
/// construction (on kSignatureFilter), and the visit stops at the first
/// bound >= the collector's threshold.
class PaaOrderCursor {
 public:
  /// Wedges whose PAA envelopes bound each candidate (min over wedges):
  /// more wedges, a tighter bound for more bound evaluations.
  static constexpr int kIndexWedges = 64;

  PaaOrderCursor(const std::vector<PaaPoint>& paa, std::size_t dims,
                 const WedgeTree& tree, std::size_t holdout,
                 obs::StageStats* stats, StepCounter* counter)
      : holdout_(holdout) {
    const StageScope scope(stats, counter);
    std::vector<PaaEnvelope> envelopes;
    for (int id : tree.WedgeSetForK(kIndexWedges)) {
      Envelope env;
      env.upper.assign(tree.Upper(id), tree.Upper(id) + tree.length());
      env.lower.assign(tree.Lower(id), tree.Lower(id) + tree.length());
      envelopes.push_back(PaaReduceEnvelope(env, dims));
    }
    order_.reserve(paa.size());
    for (std::size_t i = 0; i < paa.size(); ++i) {
      double lb = kInf;
      for (const PaaEnvelope& env : envelopes) {
        lb = std::min(lb, LbPaa(paa[i], env, counter));
      }
      order_.emplace_back(lb, i);
    }
    std::sort(order_.begin(), order_.end());
    signature_evals_ = paa.size() * envelopes.size();
  }

  template <typename Collector>
  bool Next(const Collector& collector, std::size_t* id) {
    for (; next_ < order_.size(); ++next_) {
      // Every later bound is at least as large: the visit is over.
      if (order_[next_].first >= collector.threshold()) return false;
      if (order_[next_].second == holdout_) continue;
      *id = order_[next_++].second;
      ++visited_;
      return true;
    }
    return false;
  }

  std::uint64_t visited() const { return visited_; }
  std::uint64_t signature_evals() const { return signature_evals_; }

 private:
  std::size_t holdout_;
  std::vector<std::pair<double, std::size_t>> order_;
  std::size_t next_ = 0;
  std::uint64_t visited_ = 0;
  std::uint64_t signature_evals_ = 0;
};

/// Candidate flow of one signature-index visit: every candidate enters
/// kSignatureFilter; the ones the cursor visited survive to the fetch and
/// the rest are pruned without I/O (IndexStats mirrors the same split).
void RecordIndexVisit(std::uint64_t entered, std::uint64_t visited,
                      std::uint64_t signature_evals,
                      obs::QueryMetrics* metrics) {
  if (metrics == nullptr) return;
  obs::StageStats& stats = metrics->stage(obs::StageId::kSignatureFilter);
  stats.candidates_entered += entered;
  stats.candidates_survived += visited;
  stats.candidates_pruned += entered - visited;
  metrics->index.signature_evals += signature_evals;
  metrics->index.candidates_pruned += entered - visited;
  metrics->index.refinements += visited;
}

/// Where kSignatureIndex gets its signatures over `backend`: the resident
/// RIDX sections of a file, or the series of an in-memory or simulated
/// backend. dynamic_casts, not kind checks: FaultInjectingBackend forwards
/// its inner backend_kind(), and neither it nor a sharded SnapshotView has
/// a signature source, so both visit in id order.
enum class SignatureSource { kNone, kFile, kSeries };

SignatureSource SignatureSourceOf(const storage::StorageBackend& backend) {
  if (dynamic_cast<const storage::FileBackend*>(&backend) != nullptr) {
    return SignatureSource::kFile;
  }
  if (dynamic_cast<const storage::InMemoryBackend*>(&backend) != nullptr ||
      dynamic_cast<const storage::SimulatedBackend*>(&backend) != nullptr) {
    return SignatureSource::kSeries;
  }
  return SignatureSource::kNone;
}

/// The signature width kSignatureIndex runs at over `backend`: the file's
/// stored width (both sides of a bound must share it), else
/// options.index_dims.
std::size_t SignatureDims(const EngineOptions& options,
                          const storage::StorageBackend& backend) {
  const auto* file = dynamic_cast<const storage::FileBackend*>(&backend);
  if (file == nullptr) return options.index_dims;
  return options.kind == DistanceKind::kEuclidean ? file->file().sig_dims()
                                                  : file->file().paa_dims();
}

/// Why kSignatureIndex cannot run over `backend` under the normalized
/// `options` — the cases the signature kernels would otherwise clamp or
/// mis-index on. OK when it can, when the cascade does not ask for it, or
/// when the backend has no signature source.
Status CheckSignatureIndex(const EngineOptions& options,
                           const storage::StorageBackend& backend) {
  const SignatureSource source = SignatureSourceOf(backend);
  if (!HasStage(options.cascade, StageKind::kSignatureIndex) ||
      source == SignatureSource::kNone) {
    return Status::Ok();
  }
  const bool euclidean = options.kind == DistanceKind::kEuclidean;
  const std::size_t dims = SignatureDims(options, backend);
  if (source == SignatureSource::kFile && dims == 0) {
    return Status::InvalidArgument(
        options.storage.index_path +
        (euclidean ? " was built without FFT signatures; the Euclidean "
                     "index needs them (rebuild with --dims > 0)"
                   : " was built without PAA summaries; the DTW index "
                     "needs them (rebuild with --paa-dims > 0)"));
  }
  if (backend.size() == 0) return Status::InvalidArgument("database is empty");
  const std::size_t n = backend.length();
  if (n < 2) {
    return Status::InvalidArgument("objects must have length >= 2, got " +
                                   std::to_string(n));
  }
  if (dims < 1) return Status::InvalidArgument("signature dims must be >= 1");
  if (euclidean && dims > n / 2) {
    return Status::InvalidArgument(
        "signature dims " + std::to_string(dims) + " exceeds the " +
        std::to_string(n / 2) + " spectral coefficients of length-" +
        std::to_string(n) + " objects");
  }
  if (!euclidean && dims > n) {
    return Status::InvalidArgument("PAA dims " + std::to_string(dims) +
                                   " exceeds the object length " +
                                   std::to_string(n));
  }
  return Status::Ok();
}

/// The one generic driver behind 1-NN, k-NN, and range search. `Cursor`
/// picks the visit order (Next(collector, &id) -> false once the visit is
/// over); `Fetch` maps a database index to a storage::SeriesHandle (fetched
/// exactly once per candidate and held alive across the cascade pass plus
/// the improve hook); `Collector` supplies the pruning threshold and
/// absorbs accepted matches:
///   double threshold() const;
///   bool Offer(std::size_t index, const CandidateMatch&);  // true -> improved
template <typename Cursor, typename Fetch, typename Collector>
void RunScan(Cursor& cursor, const Fetch& fetch, QueryCascade& cascade,
             Collector& collector, StepCounter* counter) {
  std::size_t i;
  while (cursor.Next(collector, &i)) {
    const storage::SeriesHandle h = fetch(i);
    // An invalid handle means a storage I/O failure; the backend has
    // latched the Status (surfaced by the Checked entry points).
    if (!h.valid()) continue;
    const CandidateMatch m =
        cascade.Compare(i, h.data(), collector.threshold(), counter);
    // A fired cancellation token voids the whole scan: stop immediately,
    // leaving whatever partial state the collector holds for the caller to
    // DISCARD (the Checked entry points return the typed cancel Status).
    if (cascade.cancelled()) return;
    if (m.found && collector.Offer(i, m)) {
      cascade.NotifyImproved(h.data(), collector.threshold(), counter);
    }
  }
}

/// Blocked driver: scores SoA tile groups 8 candidates at a time against
/// the cascade terminal, used when the candidates live in an in-memory
/// FlatDataset (fetches are free borrows there, so skipping them is
/// observationally identical) and the cascade opted in. Lane outcomes are
/// resolved against the LIVE collector threshold in candidate order, so
/// answers, counters, and per-stage stats match RunScan exactly for the
/// full-scan ED terminals, the only ones that opt in.
template <typename Collector>
void RunBlockedScan(const FlatDataset& flat, std::size_t holdout,
                    QueryCascade& cascade, Collector& collector,
                    StepCounter* counter) {
  constexpr std::size_t kLanes = FlatDataset::kTileLanes;
  const std::size_t db_size = flat.size();
  for (std::size_t g = 0; g < flat.tile_groups(); ++g) {
    const std::size_t base = g * kLanes;
    const std::size_t valid = std::min(kLanes, db_size - base);
    if (holdout >= base && holdout < base + valid) {
      // The held-out candidate shares this tile group: score its
      // groupmates through the per-candidate path (the reference
      // semantics) rather than teaching the kernels about gaps.
      for (std::size_t i = base; i < base + valid; ++i) {
        if (i == holdout) continue;
        const CandidateMatch m =
            cascade.Compare(i, flat.data(i), collector.threshold(), counter);
        if (cascade.cancelled()) return;
        if (m.found && collector.Offer(i, m)) {
          cascade.NotifyImproved(flat.data(i), collector.threshold(),
                                 counter);
        }
      }
      continue;
    }
    CandidateMatch block[kLanes];
    cascade.CompareBlock(flat.tile(g), valid, block, counter);
    if (cascade.cancelled()) return;
    for (std::size_t l = 0; l < valid; ++l) {
      CandidateMatch m = block[l];
      // Resolve found against the LIVE threshold (a lane earlier in this
      // group may have improved it), exactly as the per-candidate terminal
      // would have compared.
      m.found = m.distance < collector.threshold();
      cascade.RecordTerminalOutcome(m.found);
      if (m.found && collector.Offer(base + l, m)) {
        cascade.NotifyImproved(flat.data(base + l), collector.threshold(),
                               counter);
      }
    }
  }
}

/// Best-so-far collector (1-NN).
class BestCollector {
 public:
  explicit BestCollector(ScanResult* result) : result_(result) {}

  double threshold() const { return best_; }

  bool Offer(std::size_t index, const CandidateMatch& m) {
    if (m.distance >= best_) return false;
    best_ = m.distance;
    result_->best_index = static_cast<int>(index);
    result_->best_distance = m.distance;
    result_->best_shift = m.shift;
    result_->best_mirrored = m.mirrored;
    return true;
  }

 private:
  ScanResult* result_;
  double best_ = kInf;
};

/// k-th-best heap collector (k-NN): a max-heap whose top is the current
/// k-th best distance, playing best-so-far's pruning role.
class KnnCollector {
 public:
  explicit KnnCollector(int k) : k_(k) {}

  double threshold() const {
    return static_cast<int>(heap_.size()) < k_ ? kInf : heap_.top().distance;
  }

  bool Offer(std::size_t index, const CandidateMatch& m) {
    if (m.distance >= threshold()) return false;
    heap_.push(Neighbor{static_cast<int>(index), m.distance, m.shift,
                        m.mirrored});
    if (static_cast<int>(heap_.size()) > k_) heap_.pop();
    return static_cast<int>(heap_.size()) == k_;
  }

  std::vector<Neighbor> Take() {
    std::vector<Neighbor> out;
    out.reserve(heap_.size());
    while (!heap_.empty()) {
      out.push_back(heap_.top());
      heap_.pop();
    }
    std::reverse(out.begin(), out.end());
    return out;
  }

 private:
  struct FurtherFirst {
    bool operator()(const Neighbor& a, const Neighbor& b) const {
      return a.distance < b.distance;
    }
  };

  int k_;
  std::priority_queue<Neighbor, std::vector<Neighbor>, FurtherFirst> heap_;
};

/// Radius collector (range search): fixed threshold, never "improves".
class RangeCollector {
 public:
  explicit RangeCollector(double radius)
      : radius_(radius),
        // Distances exactly equal to the radius must be reported; pruning
        // kernels use strict comparisons, so nudge the threshold one ulp
        // outward. The floor keeps the SQUARED threshold from underflowing
        // to zero for tiny radii (a radius-0 query must still report exact
        // duplicates).
        threshold_(std::max(std::nextafter(radius, kInf), 1e-150)) {}

  double threshold() const { return threshold_; }

  bool Offer(std::size_t index, const CandidateMatch& m) {
    if (m.distance <= radius_) {
      out_.push_back(Neighbor{static_cast<int>(index), m.distance, m.shift,
                              m.mirrored});
    }
    return false;
  }

  std::vector<Neighbor> Take() {
    std::sort(out_.begin(), out_.end(),
              [](const Neighbor& a, const Neighbor& b) {
                return a.distance < b.distance;
              });
    return std::move(out_);
  }

 private:
  double radius_;
  double threshold_;
  std::vector<Neighbor> out_;
};

}  // namespace

CascadeSpec CascadeSpec::Normalized(DistanceKind kind) const {
  CascadeSpec out;
  out.stages.clear();
  bool index = false;
  for (StageKind stage : stages) {
    if (stage == StageKind::kSignatureIndex) {
      // Orders the visit rather than filtering it: one copy, placed in
      // front below. Envelope and spectrum bounds do not bound LCSS.
      index = index || kind != DistanceKind::kLcss;
      continue;
    }
    if (stage == StageKind::kVecSignature) {
      // Magnitude-spectrum bounds hold for Euclidean distance only, and a
      // second copy would recompute the same bound.
      if (kind == DistanceKind::kEuclidean && !HasStage(out, stage)) {
        out.stages.push_back(stage);
      }
      continue;
    }
    out.stages.push_back(stage);  // first terminal ends the cascade
    break;
  }
  if (out.stages.empty() || !IsTerminal(out.stages.back())) {
    out.stages.push_back(StageKind::kExactScan);
  }
  // A BANDED lower bound does not lower-bound UNCONSTRAINED DTW (the
  // kFullScan terminal computes band -1): keeping the PAA index there
  // would falsely dismiss true matches. kFullScanBanded and the other DTW
  // terminals warp inside the configured band, where the bound is exact.
  if (kind == DistanceKind::kDtw &&
      out.stages.back() == StageKind::kFullScan) {
    index = false;
  }
  if (index) {
    out.stages.insert(out.stages.begin(), StageKind::kSignatureIndex);
  }
  return out;
}

void ParallelFor(std::size_t count, int num_threads,
                 const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // The 256 cap bounds thread-stack memory and creation cost when a caller
  // passes an absurd thread count; it is documented in engine.h and
  // mirrored by the CLI's --threads validation.
  const int workers = std::max(
      1, std::min(num_threads, static_cast<int>(std::min(
                                   count, static_cast<std::size_t>(256)))));
  if (workers == 1) {
    // Inline path: an exception from fn propagates directly.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // A throwing fn must never escape a worker thread (that would
  // std::terminate the process). Capture the first exception, let every
  // worker drain the remaining queue without running further items, join,
  // and rethrow on the calling thread.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  Mutex error_mutex;  // kLeaf: nothing else is acquired under it.
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
        if (failed.load(std::memory_order_relaxed)) break;
        try {
          fn(i);
        } catch (...) {
          {
            MutexLock lock(error_mutex);
            if (first_error == nullptr) {
              first_error = std::current_exception();
            }
          }
          failed.store(true, std::memory_order_relaxed);
          break;
        }
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

QueryEngine::QueryEngine(const FlatDataset& db, const EngineOptions& options)
    : options_(options) {
  options_.cascade = options.cascade.Normalized(options.kind);
  ROTIND_CONTRACT(
      options_.storage.backend != storage::BackendKind::kFile,
      "opening an index file can fail; the borrowing constructor cannot "
      "report it — use QueryEngine::Open for the file backend");
  StatusOr<std::unique_ptr<storage::StorageBackend>> opened =
      storage::OpenBackend(options_.storage, &db);
  // In-memory and simulated kinds cannot fail with a non-null source; the
  // release-build escape hatch for a (contract-violating) file request is
  // the zero-copy default.
  backend_ = opened.ok() ? *std::move(opened)
                         : std::make_unique<storage::InMemoryBackend>(db);
  InitVecSigSource();
  InitSignatureIndex();
}

QueryEngine::QueryEngine(std::unique_ptr<storage::StorageBackend> backend,
                         const EngineOptions& options)
    : backend_(std::move(backend)), options_(options) {
  options_.cascade = options.cascade.Normalized(options.kind);
  ROTIND_CONTRACT(backend_ != nullptr,
                  "the backend-owning constructor needs a backend");
  InitVecSigSource();
  InitSignatureIndex();
}

StatusOr<std::unique_ptr<QueryEngine>> QueryEngine::Open(
    const EngineOptions& options, const FlatDataset* in_memory_source) {
  StatusOr<std::unique_ptr<storage::StorageBackend>> backend =
      storage::OpenBackend(options.storage, in_memory_source);
  if (!backend.ok()) return backend.status();
  EngineOptions normalized = options;
  normalized.cascade = options.cascade.Normalized(options.kind);
  Status index = CheckSignatureIndex(normalized, **backend);
  if (!index.ok()) return index;
  return std::make_unique<QueryEngine>(*std::move(backend), options);
}

const FlatDataset* QueryEngine::BlockedSource() const {
  // Only the plain in-memory borrow qualifies: its fetches charge nothing,
  // so reading tiles directly is observationally identical. A
  // dynamic_cast, not a kind check — FaultInjectingBackend forwards the
  // inner backend_kind() while its fetches inject faults, and those must
  // keep flowing through the backend's Fetch.
  const auto* mem =
      dynamic_cast<const storage::InMemoryBackend*>(backend_.get());
  return mem != nullptr ? mem->flat() : nullptr;
}

bool QueryEngine::BackendDoesIo() const {
  return backend_->backend_kind() != storage::BackendKind::kInMemory;
}

void QueryEngine::InitVecSigSource() {
  if (!HasStage(options_.cascade, StageKind::kVecSignature)) return;
  // dynamic_cast, not a kind check: FaultInjectingBackend forwards the
  // inner backend_kind() but its fetches inject faults; its candidates
  // must be embedded from the fetched bytes, not trusted resident rows.
  if (const auto* fb =
          dynamic_cast<const storage::FileBackend*>(backend_.get())) {
    const storage::IndexFile& file = fb->file();
    const std::size_t dims =
        FilterDims(options_.vec_sig_dims, file.series_length());
    if (file.sig_dims() >= dims) {
      stored_vec_sigs_ = {file.spectral_signatures().data(), file.sig_dims(),
                          dims};
    }
  } else if (BlockedSource() != nullptr) {
    vec_sig_cache_ = std::make_unique<VecSigCache>();
  }
}

void QueryEngine::InitSignatureIndex() {
  const SignatureSource source = SignatureSourceOf(*backend_);
  if (!HasStage(options_.cascade, StageKind::kSignatureIndex) ||
      source == SignatureSource::kNone ||
      !CheckSignatureIndex(options_, *backend_).ok()) {
    return;
  }
  const bool euclidean = options_.kind == DistanceKind::kEuclidean;
  auto index = std::make_unique<SignatureIndex>();
  index->dims = SignatureDims(options_, *backend_);
  index->count = backend_->size();
  index->length = backend_->length();
  const std::size_t count = index->count;
  std::vector<std::vector<double>> rows(count);
  if (source == SignatureSource::kFile) {
    // Computed at build time and resident since open: the index reads no
    // data pages to get them.
    const storage::IndexFile& file =
        static_cast<const storage::FileBackend&>(*backend_).file();
    const double* stored = euclidean ? file.spectral_signatures().data()
                                     : file.paa_summaries().data();
    for (std::size_t i = 0; i < count; ++i) {
      rows[i].assign(stored + i * index->dims,
                     stored + (i + 1) * index->dims);
    }
  } else {
    // Peek, not Fetch: building the index is not a query's disk access.
    const FlatDataset* flat = BlockedSource();
    const auto* simulated =
        dynamic_cast<const storage::SimulatedBackend*>(backend_.get());
    for (std::size_t i = 0; i < count; ++i) {
      const Series s =
          flat != nullptr
              ? Series(flat->data(i), flat->data(i) + index->length)
              : simulated->disk().Peek(static_cast<int>(i));
      rows[i] = euclidean ? MakeSpectralSignature(s, index->dims).values
                          : PaaTransform(s, index->dims).values;
    }
  }
  if (euclidean) {
    index->vptree = std::make_unique<VpTree>(std::move(rows));
  } else {
    index->paa.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      index->paa[i].values = std::move(rows[i]);
    }
  }
  index_ = std::move(index);
}

QueryEngine::VecSigRows QueryEngine::ResolveVecSigRows(
    std::size_t query_length, obs::QueryMetrics* metrics) const {
  // Rows describe series of the database's length; another length has
  // other bins.
  if (query_length < 2 || database_length() != query_length) return {};
  if (stored_vec_sigs_.data != nullptr) return stored_vec_sigs_;
  if (vec_sig_cache_ == nullptr) return {};
  const FlatDataset* flat = BlockedSource();
  const std::size_t dims = FilterDims(options_.vec_sig_dims, query_length);
  obs::StageStats* stats =
      metrics != nullptr ? &metrics->stage(obs::StageId::kVecSignature)
                         : nullptr;
  const StageScope scope(stats, nullptr);
  VecSigCache& cache = *vec_sig_cache_;
  const MutexLock lock(cache.mutex);
  if (cache.rows.empty()) {
    cache.rows.reserve(flat->size() * dims);
    for (std::size_t i = 0; i < flat->size(); ++i) {
      const SpectralSignature sig = MakeSpectralSignature(
          Series(flat->data(i), flat->data(i) + query_length), dims);
      cache.rows.insert(cache.rows.end(), sig.values.begin(), sig.values.end());
    }
  }
  ROTIND_CONTRACT(cache.rows.size() == flat->size() * dims,
                  "the borrowed FlatDataset grew after the engine built its "
                  "vec-signature rows");
  return {cache.rows.data(), dims, FftStepCost(query_length)};
}

template <typename Collector>
void QueryEngine::Scan(const Series& query, std::size_t holdout,
                       Collector& collector, StepCounter* counter,
                       obs::QueryMetrics* metrics, const CancelToken* cancel,
                       ScanOutcome* outcome) const {
  const QueryLatencyScope latency(metrics);
  const VecSigRows sig_rows = ResolveVecSigRows(query.size(), metrics);
  QueryCascade cascade(query, options_, counter, metrics, cancel,
                       sig_rows.data, sig_rows.stride, sig_rows.steps_per_row);
  storage::FetchStats fetch_io;
  obs::StageStats* fetch_stats =
      metrics != nullptr && BackendDoesIo()
          ? &metrics->stage(obs::StageId::kDiskFetch)
          : nullptr;
  // The scan's one pinned data page: a file-backed candidate inside the
  // held page is read in place, and RunScan drops each handle before the
  // next fetch may move the hold. Unpinned when the scan returns.
  storage::PageHold hold;
  const auto fetch = [&](std::size_t i) {
    const StageScope scope(fetch_stats, counter);
    storage::SeriesHandle h = backend_->Fetch(i, &fetch_io, &hold);
    if (!h.valid() && outcome != nullptr) outcome->fetch_failed = true;
    return h;
  };
  const FlatDataset* blocked = BlockedSource();
  if (index_ != nullptr && index_->length == query.size() &&
      index_->count == database_size()) {
    obs::StageStats* sig_stats =
        metrics != nullptr ? &metrics->stage(obs::StageId::kSignatureFilter)
                           : nullptr;
    const std::uint64_t entered =
        database_size() - (holdout < database_size() ? 1 : 0);
    if (index_->vptree != nullptr) {
      VpTreeCursor cursor(*index_->vptree, query, index_->dims, holdout,
                          sig_stats, counter);
      RunScan(cursor, fetch, cascade, collector, counter);
      RecordIndexVisit(entered, cursor.visited(), cursor.signature_evals(),
                       metrics);
    } else {
      // The bound needs wedges over the query's rotations: the kWedge
      // terminal's own tree when there is one, else a tree at the band the
      // terminal warps in (the full width for unconstrained DTW).
      std::optional<WedgeTree> own_tree;
      const WedgeTree* tree = cascade.wedge_tree();
      if (tree == nullptr) {
        const StageScope scope(sig_stats, counter);
        const int band = options_.band < 0
                             ? static_cast<int>(query.size()) - 1
                             : std::max(1, options_.band);
        own_tree.emplace(query, options_.rotation, band,
                         options_.wedge.linkage, options_.wedge.hierarchy,
                         counter);
        tree = &*own_tree;
      }
      PaaOrderCursor cursor(index_->paa, index_->dims, *tree, holdout,
                            sig_stats, counter);
      RunScan(cursor, fetch, cascade, collector, counter);
      RecordIndexVisit(entered, cursor.visited(), cursor.signature_evals(),
                       metrics);
    }
  } else if (blocked != nullptr && blocked->length() == query.size() &&
             cascade.SupportsBlocked()) {
    RunBlockedScan(*blocked, holdout, cascade, collector, counter);
  } else {
    IdOrderCursor cursor(database_size(), holdout);
    RunScan(cursor, fetch, cascade, collector, counter);
  }
  if (BackendDoesIo()) FoldFetchIo(fetch_io, fetch_stats, metrics);
  if (outcome != nullptr && cascade.cancelled()) {
    outcome->interrupted = cascade.cancel_status();
  }
}

template <typename Collector>
Status QueryEngine::ScanChecked(const Series& query, Status argument_error,
                                Collector& collector, StepCounter* counter,
                                const CancelToken* cancel,
                                obs::QueryMetrics* metrics) const {
  Status valid = ValidateQuery(query);
  if (!valid.ok()) return valid;
  if (!argument_error.ok()) return argument_error;
  if (cancel != nullptr) {
    // An already-fired token must not pay for cascade setup (the wedge
    // tree build is real work).
    Status early = cancel->Check();
    if (!early.ok()) return early;
  }
  ScanOutcome outcome;
  Scan(query, kNoHoldout, collector, counter, metrics, cancel, &outcome);
  if (!outcome.interrupted.ok()) return outcome.interrupted;
  // A storage failure mid-scan silently skips candidates in the unchecked
  // path; here it must invalidate the result. The per-query flag is
  // authoritative (the shared latch can be cleared by a concurrent
  // query's error handling); the latch is kept as a fallback detail.
  Status io = backend_->error();
  if (outcome.fetch_failed && io.ok()) {
    io = Status::IoError("candidate fetch failed during scan");
  }
  return io;
}

ScanResult QueryEngine::Search(const Series& query,
                               obs::QueryMetrics* metrics) const {
  return SearchLeaveOneOut(query, kNoHoldout, metrics);
}

ScanResult QueryEngine::SearchLeaveOneOut(const Series& query,
                                          std::size_t holdout,
                                          obs::QueryMetrics* metrics) const {
  ScanResult result;
  result.best_distance = kInf;
  BestCollector collector(&result);
  Scan(query, holdout, collector, &result.counter, metrics, nullptr, nullptr);
  return result;
}

std::vector<Neighbor> QueryEngine::Knn(const Series& query, int k,
                                       StepCounter* counter,
                                       obs::QueryMetrics* metrics) const {
  return KnnLeaveOneOut(query, k, kNoHoldout, counter, metrics);
}

std::vector<Neighbor> QueryEngine::KnnLeaveOneOut(
    const Series& query, int k, std::size_t holdout, StepCounter* counter,
    obs::QueryMetrics* metrics) const {
  if (k < 1) return {};  // KnnCollector needs k >= 1; KnnChecked rejects
  StepCounter local;
  KnnCollector collector(k);
  Scan(query, holdout, collector, counter != nullptr ? counter : &local,
       metrics, nullptr, nullptr);
  return collector.Take();
}

std::vector<Neighbor> QueryEngine::Range(const Series& query, double radius,
                                         StepCounter* counter,
                                         obs::QueryMetrics* metrics) const {
  StepCounter local;
  RangeCollector collector(radius);
  Scan(query, kNoHoldout, collector, counter != nullptr ? counter : &local,
       metrics, nullptr, nullptr);
  return collector.Take();
}

Status QueryEngine::ValidateQuery(const Series& query) const {
  if (query.empty()) {
    return Status::InvalidArgument("query is empty");
  }
  for (std::size_t j = 0; j < query.size(); ++j) {
    if (!std::isfinite(query[j])) {
      return Status::InvalidArgument("query value " + std::to_string(j) +
                                     " is NaN or Inf");
    }
  }
  if (database_size() > 0 && database_length() != query.size()) {
    return Status::InvalidArgument(
        "query has length " + std::to_string(query.size()) +
        ", database items have length " + std::to_string(database_length()));
  }
  return Status::Ok();
}

StatusOr<ScanResult> QueryEngine::SearchChecked(
    const Series& query, const CancelToken* cancel,
    obs::QueryMetrics* metrics) const {
  ScanResult result;
  result.best_distance = kInf;
  BestCollector collector(&result);
  Status s = ScanChecked(query, Status::Ok(), collector, &result.counter,
                         cancel, metrics);
  if (!s.ok()) return s;
  return result;
}

StatusOr<std::vector<Neighbor>> QueryEngine::KnnChecked(
    const Series& query, int k, StepCounter* counter,
    const CancelToken* cancel, obs::QueryMetrics* metrics) const {
  StepCounter local;
  KnnCollector collector(k);
  Status s = ScanChecked(
      query,
      k < 1 ? Status::InvalidArgument("k must be >= 1, got " +
                                      std::to_string(k))
            : Status::Ok(),
      collector, counter != nullptr ? counter : &local, cancel, metrics);
  if (!s.ok()) return s;
  return collector.Take();
}

StatusOr<std::vector<Neighbor>> QueryEngine::RangeChecked(
    const Series& query, double radius, StepCounter* counter,
    const CancelToken* cancel, obs::QueryMetrics* metrics) const {
  StepCounter local;
  RangeCollector collector(radius);
  Status s = ScanChecked(
      query,
      !std::isfinite(radius) || radius < 0.0
          ? Status::InvalidArgument("radius must be finite and >= 0, got " +
                                    std::to_string(radius))
          : Status::Ok(),
      collector, counter != nullptr ? counter : &local, cancel, metrics);
  if (!s.ok()) return s;
  return collector.Take();
}

std::vector<ScanResult> QueryEngine::SearchBatch(
    const std::vector<Series>& queries, int num_threads, StepCounter* merged,
    obs::QueryMetrics* metrics) const {
  std::vector<ScanResult> results(queries.size());
  // Thread-local per-query metrics, folded back in query order below: the
  // merged aggregate is independent of which worker ran which query.
  std::vector<obs::QueryMetrics> query_metrics(
      metrics != nullptr ? queries.size() : 0);
  ParallelFor(queries.size(), num_threads, [&](std::size_t qi) {
    results[qi] = Search(queries[qi],
                         metrics != nullptr ? &query_metrics[qi] : nullptr);
  });
  if (merged != nullptr) {
    for (const ScanResult& r : results) *merged += r.counter;
  }
  if (metrics != nullptr) {
    for (const obs::QueryMetrics& m : query_metrics) *metrics += m;
  }
  return results;
}

std::vector<std::vector<Neighbor>> QueryEngine::KnnSearchBatch(
    const std::vector<Series>& queries, int k, int num_threads,
    StepCounter* merged, obs::QueryMetrics* metrics) const {
  std::vector<std::vector<Neighbor>> results(queries.size());
  std::vector<StepCounter> counters(queries.size());
  std::vector<obs::QueryMetrics> query_metrics(
      metrics != nullptr ? queries.size() : 0);
  ParallelFor(queries.size(), num_threads, [&](std::size_t qi) {
    results[qi] = Knn(queries[qi], k, &counters[qi],
                      metrics != nullptr ? &query_metrics[qi] : nullptr);
  });
  if (merged != nullptr) {
    for (const StepCounter& c : counters) *merged += c;
  }
  if (metrics != nullptr) {
    for (const obs::QueryMetrics& m : query_metrics) *metrics += m;
  }
  return results;
}

std::vector<std::vector<Neighbor>> QueryEngine::RangeSearchBatch(
    const std::vector<Series>& queries, double radius, int num_threads,
    StepCounter* merged, obs::QueryMetrics* metrics) const {
  std::vector<std::vector<Neighbor>> results(queries.size());
  std::vector<StepCounter> counters(queries.size());
  std::vector<obs::QueryMetrics> query_metrics(
      metrics != nullptr ? queries.size() : 0);
  ParallelFor(queries.size(), num_threads, [&](std::size_t qi) {
    results[qi] = Range(queries[qi], radius, &counters[qi],
                        metrics != nullptr ? &query_metrics[qi] : nullptr);
  });
  if (merged != nullptr) {
    for (const StepCounter& c : counters) *merged += c;
  }
  if (metrics != nullptr) {
    for (const obs::QueryMetrics& m : query_metrics) *metrics += m;
  }
  return results;
}

}  // namespace rotind

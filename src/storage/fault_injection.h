#ifndef ROTIND_STORAGE_FAULT_INJECTION_H_
#define ROTIND_STORAGE_FAULT_INJECTION_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "src/core/random.h"
#include "src/core/status.h"
#include "src/core/sync.h"
#include "src/storage/buffer_pool.h"

namespace rotind::storage {

/// The storage fault taxonomy the robustness layer defends against.
///
///   kTransientRead  the read syscall fails (EIO-alike); an immediate
///                   re-read may succeed. Surfaces as kIoError.
///   kTornPage       the read "succeeds" but the page bytes are from a
///                   half-completed write; the per-page checksum catches it.
///                   Surfaces as kCorruptHeader (the same code IndexFile
///                   reports for a real checksum mismatch).
///   kLatencySpike   the read succeeds but takes pathologically long —
///                   the fault that shapes p99, not correctness.
enum class FaultKind { kNone, kTransientRead, kTornPage, kLatencySpike };

/// One injection decision: what to do to the current read.
struct FaultAction {
  FaultKind kind = FaultKind::kNone;
  std::chrono::nanoseconds latency{0};  ///< kLatencySpike sleep.
};

/// Cumulative injected-fault accounting, snapshot via counters().
struct FaultCounters {
  std::uint64_t transient_errors = 0;
  std::uint64_t torn_pages = 0;
  std::uint64_t latency_spikes = 0;

  [[nodiscard]] std::uint64_t total() const {
    return transient_errors + torn_pages + latency_spikes;
  }
};

/// Seeded, reproducible fault plan. All probabilities default to zero, so a
/// default spec injects nothing; the same seed and probabilities replay the
/// same fault sequence for a given read order.
struct FaultScheduleSpec {
  std::uint64_t seed = 0x5eed0f417ULL;
  /// Probability a read starts a transient-error burst.
  double transient_read_prob = 0.0;
  /// Consecutive failed attempts per transient burst. Bursts strictly
  /// shorter than the retry policy's attempt budget are absorbed; longer
  /// ones surface as typed kIoError.
  int transient_burst = 1;
  /// Probability a read returns a torn (checksum-mismatch) page. Torn
  /// reads are single-shot: the re-read sees the completed write.
  double torn_page_prob = 0.0;
  /// Probability a read sleeps for `latency_spike` before succeeding.
  double latency_spike_prob = 0.0;
  std::chrono::nanoseconds latency_spike{2'000'000};  // 2 ms
  /// When >= 0, every read of this key fails permanently (kIoError) —
  /// the "disk went bad" case retries must NOT absorb.
  std::int64_t permanent_fail_key = -1;

  [[nodiscard]] bool enabled() const {
    return transient_read_prob > 0.0 || torn_page_prob > 0.0 ||
           latency_spike_prob > 0.0 || permanent_fail_key >= 0;
  }
};

/// Thread-safe realization of a FaultScheduleSpec. `Decide(key)` draws the
/// next action for a read of `key` (a page id at the PageSource layer, an
/// object id at the StorageBackend layer) and advances burst state.
class FaultSchedule {
 public:
  explicit FaultSchedule(const FaultScheduleSpec& spec);

  FaultAction Decide(std::uint64_t key) ROTIND_EXCLUDES(mutex_);
  [[nodiscard]] FaultCounters counters() const ROTIND_EXCLUDES(mutex_);
  [[nodiscard]] const FaultScheduleSpec& spec() const { return spec_; }

 private:
  const FaultScheduleSpec spec_;
  /// kFaultSchedule rank: Decide is reached from the BufferPool's miss
  /// path, which reads its page with no pool lock held; the rank stays
  /// strictly below LockRank::kBufferPool so a future caller that does
  /// hold the pool mutex still obeys the hierarchy.
  mutable Mutex mutex_{LockRank::kFaultSchedule};
  Rng rng_ ROTIND_GUARDED_BY(mutex_);
  /// Remaining failures in an in-progress transient burst, per key.
  std::unordered_map<std::uint64_t, int> burst_remaining_
      ROTIND_GUARDED_BY(mutex_);
  FaultCounters counters_ ROTIND_GUARDED_BY(mutex_);
};

/// PageSource decorator: sits *under* the BufferPool so injected faults
/// exercise the exact miss path real disk errors take (pool -> source ->
/// Status), where FileBackend's retry-with-backoff can absorb them.
/// `inner` and `schedule` must outlive the source.
class FaultInjectingSource final : public PageSource {
 public:
  FaultInjectingSource(const PageSource& inner, FaultSchedule& schedule)
      : inner_(inner), schedule_(schedule) {}

  std::size_t page_size_bytes() const override {
    return inner_.page_size_bytes();
  }
  std::size_t num_pages() const override { return inner_.num_pages(); }
  [[nodiscard]] Status ReadPage(std::size_t page, char* out) const override;

 private:
  const PageSource& inner_;
  FaultSchedule& schedule_;
};

}  // namespace rotind::storage

#endif  // ROTIND_STORAGE_FAULT_INJECTION_H_

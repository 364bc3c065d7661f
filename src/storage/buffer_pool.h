#ifndef ROTIND_STORAGE_BUFFER_POOL_H_
#define ROTIND_STORAGE_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/core/aligned.h"
#include "src/core/status.h"
#include "src/core/sync.h"

namespace rotind::storage {

/// Anything that can produce fixed-size pages by index. IndexFile is the
/// production implementation (pread + checksum verify); tests substitute
/// in-memory and fault-injecting sources.
class PageSource {
 public:
  virtual ~PageSource() = default;
  virtual std::size_t page_size_bytes() const = 0;
  virtual std::size_t num_pages() const = 0;
  /// Fills `out` (page_size_bytes() bytes) with page `page`.
  [[nodiscard]] virtual Status ReadPage(std::size_t page, char* out) const = 0;
};

/// Which frame to sacrifice when the pool is full and a new page faults in.
enum class EvictionPolicy {
  kLru,    ///< Evict the unpinned frame touched least recently.
  kClock,  ///< Second-chance sweep: clear reference bits until one is cold.
};

/// Cumulative pool activity since construction. Snapshot via counters().
struct PoolCounters {
  std::uint64_t hits = 0;        ///< Pins served from a resident frame.
  std::uint64_t misses = 0;      ///< Pins that had to read from the source.
  std::uint64_t evictions = 0;   ///< Occupied frames recycled for a miss.
  std::uint64_t bytes_read = 0;  ///< Bytes fetched from the source.
  std::uint64_t failed_reads = 0;  ///< Source reads that returned non-OK.
};

/// A fixed-capacity page cache with pin counts.
///
/// Frames are preallocated at construction as 64-byte-aligned strides of
/// one AlignedBuffer, so a frame's data pointer is stable for the pool's
/// lifetime, a Pinned handle can be held across other Pin calls, and the
/// bytes of a page may be read in place as doubles. A pinned frame is never
/// evicted; when every frame is pinned and a new page faults, Pin fails
/// with kInvalidArgument rather than exceed capacity.
///
/// Thread safety: the frame table is guarded by one internal mutex, but a
/// miss reads its page outside it. Under the mutex the miss claims a frame
/// as *loading*: the frame is pinned by the loader (never evicted, counted
/// against capacity) and its page-table entry exists, so a concurrent Pin
/// of the same page waits on a CondVar instead of reading the page again.
/// The source read (for an IndexFile, one pread plus the page checksum)
/// then runs with no pool lock held, and the loader re-locks to publish the
/// frame, or, on a failed read, to free it and drop the entry. Either way
/// the waiters wake and look again: a published page is a hit for them, a
/// dropped one a fresh miss that each retries on its own. Concurrent pins
/// of a resident page share the frame, and counters are totals, not
/// per-thread. The mutex is a rotind::Mutex at LockRank::kBufferPool, and
/// every mutable field is ROTIND_GUARDED_BY it — Clang's thread-safety
/// analysis proves the discipline at compile time (see src/core/sync.h).
class BufferPool {
 public:
  /// `source` must outlive the pool. `capacity_pages` is clamped to >= 1.
  BufferPool(const PageSource& source, std::size_t capacity_pages,
             EvictionPolicy policy);
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Per-call outcome, for callers that attribute I/O to a query stage.
  struct PinOutcome {
    bool hit = false;
    bool evicted = false;
    std::uint64_t bytes_read = 0;
  };

  /// RAII pin: the page stays resident while any Pinned for it lives.
  class Pinned {
   public:
    Pinned() = default;
    Pinned(Pinned&& other) noexcept { *this = static_cast<Pinned&&>(other); }
    Pinned& operator=(Pinned&& other) noexcept;
    Pinned(const Pinned&) = delete;
    Pinned& operator=(const Pinned&) = delete;
    ~Pinned() { Release(); }

    bool valid() const { return pool_ != nullptr; }
    /// Page bytes, 64-byte aligned; valid while this handle lives.
    const char* data() const { return data_; }
    std::size_t page() const { return page_; }
    /// True when this handle pins `page` of `pool`.
    bool Pins(const BufferPool& pool, std::size_t page) const {
      return pool_ == &pool && page_ == page;
    }
    /// Unpins early (idempotent).
    void Release();

   private:
    friend class BufferPool;
    Pinned(BufferPool* pool, std::size_t frame, const char* data,
           std::size_t page)
        : pool_(pool), frame_(frame), data_(data), page_(page) {}
    BufferPool* pool_ = nullptr;
    std::size_t frame_ = 0;
    const char* data_ = nullptr;
    std::size_t page_ = 0;
  };

  /// Pins `page`, faulting it in from the source if absent, or waiting
  /// for a concurrent Pin that is already reading it. Fails with
  /// kOutOfRange for a page the source does not have, kInvalidArgument
  /// when every frame is pinned or loading (capacity would be exceeded),
  /// or the source's own error when this call's read fails.
  [[nodiscard]] StatusOr<Pinned> Pin(std::size_t page,
                                     PinOutcome* outcome = nullptr)
      ROTIND_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t capacity_pages() const { return capacity_; }
  [[nodiscard]] std::size_t page_size_bytes() const { return page_size_; }
  [[nodiscard]] EvictionPolicy policy() const { return policy_; }
  /// Frames currently holding a page (pinned or not) or loading one.
  [[nodiscard]] std::size_t resident_pages() const ROTIND_EXCLUDES(mutex_);
  /// Frames with at least one live pin, loading frames included. Never
  /// exceeds capacity_pages().
  [[nodiscard]] std::size_t pinned_pages() const ROTIND_EXCLUDES(mutex_);
  [[nodiscard]] PoolCounters counters() const ROTIND_EXCLUDES(mutex_);

 private:
  struct Frame {
    /// The frame's page_size bytes inside arena_, 64-byte aligned; written
    /// only by the Pin that loads the frame, while no other handle pins it.
    char* data = nullptr;
    std::size_t page = 0;
    bool occupied = false;
    /// Claimed by a Pin whose source read is in flight outside the mutex;
    /// occupied, pinned once by the loader, and mapped in page_to_frame_.
    bool loading = false;
    std::uint32_t pins = 0;
    std::uint64_t last_use = 0;  ///< LRU recency stamp.
    bool referenced = false;     ///< Clock second-chance bit.
  };

  void Unpin(std::size_t frame) ROTIND_EXCLUDES(mutex_);
  /// Picks the frame to receive a faulted page: a free frame if any,
  /// otherwise an unpinned victim per the policy.
  [[nodiscard]] StatusOr<std::size_t> PickFrameLocked()
      ROTIND_REQUIRES(mutex_);

  const PageSource& source_;
  const std::size_t page_size_;
  const EvictionPolicy policy_;
  /// Fixed at construction; kept outside the guard so capacity_pages()
  /// stays lock-free (frames_.size() never changes but IS guarded).
  const std::size_t capacity_;
  mutable Mutex mutex_{LockRank::kBufferPool};
  /// Every frame's bytes in one allocation, carved into 64-byte-aligned
  /// strides by the constructor (the only code that touches it); frames_
  /// holds the pointers. One allocation, not one per frame: per-frame
  /// aligned allocations raised serve-rw's peak RSS by about 1 MiB.
  AlignedBuffer arena_ ROTIND_GUARDED_BY(mutex_);
  std::vector<Frame> frames_ ROTIND_GUARDED_BY(mutex_);
  std::unordered_map<std::size_t, std::size_t> page_to_frame_
      ROTIND_GUARDED_BY(mutex_);
  std::uint64_t tick_ ROTIND_GUARDED_BY(mutex_) = 0;  ///< LRU use counter.
  std::size_t hand_ ROTIND_GUARDED_BY(mutex_) = 0;  ///< Clock sweep position.
  PoolCounters counters_ ROTIND_GUARDED_BY(mutex_);
  /// Pins blocked on a loading frame; a finished load notifies `loaded_`
  /// only when this is nonzero.
  std::size_t waiters_ ROTIND_GUARDED_BY(mutex_) = 0;
  CondVar loaded_;
};

}  // namespace rotind::storage

#endif  // ROTIND_STORAGE_BUFFER_POOL_H_

#include "src/storage/buffer_pool.h"

#include <string>

#include "src/core/contracts.h"

namespace rotind::storage {

BufferPool::Pinned& BufferPool::Pinned::operator=(Pinned&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    data_ = other.data_;
    page_ = other.page_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

void BufferPool::Pinned::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    data_ = nullptr;
  }
}

BufferPool::BufferPool(const PageSource& source, std::size_t capacity_pages,
                       EvictionPolicy policy)
    : source_(source),
      page_size_(source.page_size_bytes()),
      policy_(policy),
      capacity_(capacity_pages == 0 ? 1 : capacity_pages) {
  frames_.resize(capacity_);
  for (Frame& frame : frames_) frame.data.resize(page_size_);
}

void BufferPool::Unpin(std::size_t frame) {
  MutexLock lock(mutex_);
  ROTIND_DCHECK(frames_[frame].pins > 0);
  --frames_[frame].pins;
}

StatusOr<std::size_t> BufferPool::PickFrameLocked() {
  for (std::size_t i = 0; i < frames_.size(); ++i) {
    if (!frames_[i].occupied) return i;
  }
  if (policy_ == EvictionPolicy::kLru) {
    std::size_t victim = frames_.size();
    for (std::size_t i = 0; i < frames_.size(); ++i) {
      if (frames_[i].pins != 0) continue;
      if (victim == frames_.size() ||
          frames_[i].last_use < frames_[victim].last_use) {
        victim = i;
      }
    }
    if (victim != frames_.size()) return victim;
  } else {
    // Clock: up to two sweeps — the first clears reference bits, so the
    // second is guaranteed to find a cold frame if any frame is unpinned.
    for (std::size_t step = 0; step < 2 * frames_.size(); ++step) {
      Frame& frame = frames_[hand_];
      const std::size_t here = hand_;
      hand_ = (hand_ + 1) % frames_.size();
      if (frame.pins != 0) continue;
      if (frame.referenced) {
        frame.referenced = false;
        continue;
      }
      return here;
    }
  }
  return Status::InvalidArgument(
      "buffer pool capacity exhausted: all " +
      std::to_string(frames_.size()) + " frames are pinned");
}

StatusOr<BufferPool::Pinned> BufferPool::Pin(std::size_t page,
                                             PinOutcome* outcome) {
  if (outcome != nullptr) *outcome = PinOutcome{};
  MutexLock lock(mutex_);
  if (page >= source_.num_pages()) {
    return Status::OutOfRange("page " + std::to_string(page) +
                              " out of range; source has " +
                              std::to_string(source_.num_pages()) + " pages");
  }

  const auto it = page_to_frame_.find(page);
  if (it != page_to_frame_.end()) {
    Frame& frame = frames_[it->second];
    ++frame.pins;
    frame.last_use = ++tick_;
    frame.referenced = true;
    ++counters_.hits;
    if (outcome != nullptr) outcome->hit = true;
    return Pinned(this, it->second, frame.data.data(), page);
  }

  StatusOr<std::size_t> slot = PickFrameLocked();
  if (!slot.ok()) return slot.status();
  Frame& frame = frames_[*slot];
  if (frame.occupied) {
    ROTIND_DCHECK(frame.pins == 0);
    page_to_frame_.erase(frame.page);
    frame.occupied = false;
    ++counters_.evictions;
    if (outcome != nullptr) outcome->evicted = true;
  }
  // The source read (and its page verification) happens under the pool
  // mutex: correctness first; see the class comment for its cost.
  // ReadPage failure leaves the frame free (unoccupied, unpinned, and not
  // in page_to_frame_), so a transient I/O error does not poison the pool:
  // the Status propagates to the caller and the very next Pin of the same
  // page retries the read into a clean frame.
  Status read = source_.ReadPage(page, frame.data.data());
  if (!read.ok()) {
    ROTIND_DCHECK(!frame.occupied && frame.pins == 0);
    ROTIND_DCHECK(page_to_frame_.find(page) == page_to_frame_.end());
    ++counters_.failed_reads;
    return read;
  }
  frame.page = page;
  frame.occupied = true;
  frame.pins = 1;
  frame.last_use = ++tick_;
  frame.referenced = true;
  page_to_frame_[page] = *slot;
  ++counters_.misses;
  counters_.bytes_read += page_size_;
  if (outcome != nullptr) outcome->bytes_read = page_size_;
  return Pinned(this, *slot, frame.data.data(), page);
}

std::size_t BufferPool::resident_pages() const {
  MutexLock lock(mutex_);
  return page_to_frame_.size();
}

std::size_t BufferPool::pinned_pages() const {
  MutexLock lock(mutex_);
  std::size_t pinned = 0;
  for (const Frame& frame : frames_) {
    if (frame.occupied && frame.pins > 0) ++pinned;
  }
  return pinned;
}

PoolCounters BufferPool::counters() const {
  MutexLock lock(mutex_);
  return counters_;
}

}  // namespace rotind::storage

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
  // Whole cache lines per frame keep every frame 64-byte aligned.
  const std::size_t stride =
      (page_size_ + kSimdAlignment - 1) / kSimdAlignment * kSimdAlignment;
  arena_.resize(capacity_ * stride / sizeof(double));
  char* base = reinterpret_cast<char*>(arena_.data());
  frames_.resize(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    frames_[i].data = base + i * stride;
  }
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
  if (page >= source_.num_pages()) {
    return Status::OutOfRange("page " + std::to_string(page) +
                              " out of range; source has " +
                              std::to_string(source_.num_pages()) + " pages");
  }

  std::size_t slot = 0;
  char* bytes = nullptr;
  {
    MutexLock lock(mutex_);
    for (;;) {
      const auto it = page_to_frame_.find(page);
      if (it == page_to_frame_.end()) break;
      Frame& frame = frames_[it->second];
      if (frame.loading) {
        // Another Pin is reading this page outside the mutex: wait until it
        // publishes the frame or drops the entry, then look again.
        ++waiters_;
        loaded_.Wait(mutex_);
        --waiters_;
        continue;
      }
      ++frame.pins;
      frame.last_use = ++tick_;
      frame.referenced = true;
      ++counters_.hits;
      if (outcome != nullptr) outcome->hit = true;
      return Pinned(this, it->second, frame.data, page);
    }

    StatusOr<std::size_t> picked = PickFrameLocked();
    if (!picked.ok()) return picked.status();
    slot = *picked;
    Frame& frame = frames_[slot];
    if (frame.occupied) {
      ROTIND_DCHECK(frame.pins == 0 && !frame.loading);
      page_to_frame_.erase(frame.page);
      ++counters_.evictions;
      if (outcome != nullptr) outcome->evicted = true;
    }
    // Claim the frame as loading: pinned by this call, so it is neither
    // evicted nor handed out, and mapped, so a concurrent Pin of the page
    // waits for this read instead of issuing its own.
    frame.page = page;
    frame.occupied = true;
    frame.loading = true;
    frame.pins = 1;
    page_to_frame_[page] = slot;
    bytes = frame.data;
  }

  // The source read (and its page verification) runs with no pool lock
  // held; only this call writes the claimed frame.
  const Status read = source_.ReadPage(page, bytes);

  MutexLock lock(mutex_);
  Frame& frame = frames_[slot];
  ROTIND_DCHECK(frame.loading && frame.page == page && frame.pins == 1);
  frame.loading = false;
  if (waiters_ > 0) loaded_.NotifyAll();
  if (!read.ok()) {
    // A failed read frees the frame and drops the entry, so a transient
    // I/O error does not poison the pool: the Status propagates to the
    // caller, and the next Pin of the page (a woken waiter included)
    // retries the read into a clean frame.
    page_to_frame_.erase(page);
    frame.occupied = false;
    frame.pins = 0;
    ++counters_.failed_reads;
    return read;
  }
  frame.last_use = ++tick_;
  frame.referenced = true;
  ++counters_.misses;
  counters_.bytes_read += page_size_;
  if (outcome != nullptr) outcome->bytes_read = page_size_;
  return Pinned(this, slot, bytes, page);
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

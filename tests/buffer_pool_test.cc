/// BufferPool behavior: capacity is a hard bound (property-tested), pinned
/// frames are never evicted, LRU and Clock pick sane victims, hit/miss/
/// eviction counters add up, source failures surface as Status without
/// wedging the pool, and a miss read outside the mutex (a loading frame)
/// is shared by concurrent pins of its page and counts against capacity.

#include "src/storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/random.h"
#include "src/core/status.h"
#include "src/storage/fault_injection.h"

namespace rotind::storage {
namespace {

/// Deterministic in-memory page source: page p is filled with the byte
/// pattern f(p, i) so any stale or misrouted frame is detectable.
class PatternSource : public PageSource {
 public:
  PatternSource(std::size_t page_size, std::size_t pages)
      : page_size_(page_size), pages_(pages) {}

  std::size_t page_size_bytes() const override { return page_size_; }
  std::size_t num_pages() const override { return pages_; }
  Status ReadPage(std::size_t page, char* out) const override {
    if (page == failing_page_) {
      return Status::IoError("injected failure on page " +
                             std::to_string(page));
    }
    for (std::size_t i = 0; i < page_size_; ++i) {
      out[i] = static_cast<char>((page * 131 + i * 7) & 0xFF);
    }
    return Status::Ok();
  }

  void FailPage(std::size_t page) { failing_page_ = page; }
  void Heal() { failing_page_ = num_pages(); }

  bool PageBytesCorrect(std::size_t page, const char* data) const {
    for (std::size_t i = 0; i < page_size_; ++i) {
      if (data[i] != static_cast<char>((page * 131 + i * 7) & 0xFF)) {
        return false;
      }
    }
    return true;
  }

 private:
  std::size_t page_size_;
  std::size_t pages_;
  std::size_t failing_page_ = static_cast<std::size_t>(-1);
};

/// PatternSource whose reads of one page block until Open(), so a test can
/// hold a miss in its loading state; counts the gated reads that started
/// and can fail the first few of them.
class GatedSource : public PatternSource {
 public:
  GatedSource(std::size_t page_size, std::size_t pages, std::size_t gated_page)
      : PatternSource(page_size, pages), gated_page_(gated_page) {}

  Status ReadPage(std::size_t page, char* out) const override {
    if (page == gated_page_) {
      std::unique_lock<std::mutex> lock(mu_);
      ++reads_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
      if (failures_left_ > 0) {
        --failures_left_;
        return Status::IoError("gated read failed");
      }
    }
    return PatternSource::ReadPage(page, out);
  }

  void FailNextReads(int n) {
    const std::lock_guard<std::mutex> lock(mu_);
    failures_left_ = n;
  }
  void Open() {
    const std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  /// Blocks until `n` reads of the gated page have started.
  void WaitForReads(int n) const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return reads_ >= n; });
  }
  int reads() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return reads_;
  }

 private:
  const std::size_t gated_page_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable int reads_ = 0;
  mutable int failures_left_ = 0;
  bool open_ = false;
};

/// Lets the pins started alongside a gated read reach the loading frame
/// before the gate opens. The assertions hold whatever the timing; the
/// pause only makes the waiting path the one exercised.
void LetPinsQueue() {
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

TEST(BufferPoolTest, MissThenHitWithCorrectBytes) {
  const PatternSource source(64, 8);
  BufferPool pool(source, 4, EvictionPolicy::kLru);

  BufferPool::PinOutcome first;
  auto a = pool.Pin(3, &first);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(first.hit);
  EXPECT_EQ(first.bytes_read, 64u);
  EXPECT_TRUE(source.PageBytesCorrect(3, a->data()));

  BufferPool::PinOutcome second;
  auto b = pool.Pin(3, &second);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(second.bytes_read, 0u);
  EXPECT_EQ(a->data(), b->data());  // same frame, stable pointer

  const PoolCounters c = pool.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_EQ(c.bytes_read, 64u);
}

TEST(BufferPoolTest, PinFailsWhenEveryFrameIsPinnedAndRecovers) {
  const PatternSource source(64, 8);
  BufferPool pool(source, 2, EvictionPolicy::kLru);

  auto a = pool.Pin(0);
  auto b = pool.Pin(1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(pool.pinned_pages(), 2u);

  auto c = pool.Pin(2);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument);

  a->Release();
  auto d = pool.Pin(2);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(source.PageBytesCorrect(2, d->data()));
  EXPECT_EQ(pool.counters().evictions, 1u);  // page 0's frame was recycled
}

TEST(BufferPoolTest, PinnedFramesAreNeverEvictedUnderEitherPolicy) {
  for (const EvictionPolicy policy :
       {EvictionPolicy::kLru, EvictionPolicy::kClock}) {
    const PatternSource source(64, 8);
    BufferPool pool(source, 2, policy);

    auto held = pool.Pin(0);  // stays pinned for the whole test
    ASSERT_TRUE(held.ok());
    for (std::size_t page = 1; page < 8; ++page) {
      auto p = pool.Pin(page);  // each one evicts the previous unpinned page
      ASSERT_TRUE(p.ok());
      EXPECT_TRUE(source.PageBytesCorrect(page, p->data()));
    }
    // Page 0 never left: pinning it again is a hit and the bytes survived
    // six evictions around it.
    BufferPool::PinOutcome outcome;
    auto again = pool.Pin(0, &outcome);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(outcome.hit);
    EXPECT_TRUE(source.PageBytesCorrect(0, again->data()));
  }
}

TEST(BufferPoolTest, LruEvictsTheLeastRecentlyUsedPage) {
  const PatternSource source(64, 8);
  BufferPool pool(source, 2, EvictionPolicy::kLru);

  pool.Pin(0).value().Release();
  pool.Pin(1).value().Release();
  pool.Pin(0).value().Release();  // 0 is now more recent than 1
  pool.Pin(2).value().Release();  // must evict 1, not 0

  BufferPool::PinOutcome outcome;
  auto zero = pool.Pin(0, &outcome);
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(outcome.hit) << "LRU evicted the recently-touched page";
  zero->Release();
  auto one = pool.Pin(1, &outcome);
  ASSERT_TRUE(one.ok());
  EXPECT_FALSE(outcome.hit);
}

TEST(BufferPoolTest, ClockClearsReferenceBitsAndEvictsInHandOrder) {
  const PatternSource source(64, 4);
  BufferPool pool(source, 2, EvictionPolicy::kClock);

  pool.Pin(0).value().Release();  // frame 0, referenced
  pool.Pin(1).value().Release();  // frame 1, referenced
  // Faulting page 2 sweeps from the hand at frame 0: both frames get
  // their second chance (reference bits cleared), then the second pass
  // evicts frame 0. Page 1 must still be resident afterwards.
  BufferPool::PinOutcome fault;
  pool.Pin(2, &fault).value().Release();
  EXPECT_FALSE(fault.hit);
  EXPECT_TRUE(fault.evicted);
  BufferPool::PinOutcome one_out;
  pool.Pin(1, &one_out).value().Release();
  EXPECT_TRUE(one_out.hit) << "the frame the sweep passed over was evicted";
  const PoolCounters c = pool.counters();
  EXPECT_EQ(c.evictions, 1u);
}

TEST(BufferPoolTest, OutOfRangePageIsRejected) {
  const PatternSource source(64, 4);
  BufferPool pool(source, 2, EvictionPolicy::kLru);
  auto p = pool.Pin(4);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(pool.counters().misses, 0u);
}

TEST(BufferPoolTest, SourceFailurePropagatesAndPoolStaysUsable) {
  PatternSource source(64, 4);
  BufferPool pool(source, 2, EvictionPolicy::kLru);

  source.FailPage(1);
  auto bad = pool.Pin(1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIoError);

  source.Heal();
  auto good = pool.Pin(1);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(source.PageBytesCorrect(1, good->data()));
}

TEST(BufferPoolTest, FailedReadsAreCountedAndNeverConsumeAFrame) {
  PatternSource source(64, 4);
  BufferPool pool(source, 2, EvictionPolicy::kLru);

  source.FailPage(3);
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_FALSE(pool.Pin(3).ok());
  }
  const PoolCounters c = pool.counters();
  EXPECT_EQ(c.failed_reads, 3u);
  EXPECT_EQ(pool.resident_pages(), 0u)
      << "a failed read must not leave a frame claiming to hold the page";
}

/// Regression for the serve fault-injection path: a FaultInjectingSource
/// sits under the pool exactly where a real disk error would, and its
/// injected Status must propagate through Pin — typed, counted, and
/// without wedging the pool for healthy pages.
TEST(BufferPoolTest, InjectedPermanentFaultPropagatesThroughPin) {
  const PatternSource inner(64, 8);
  FaultScheduleSpec spec;
  spec.permanent_fail_key = 5;
  FaultSchedule schedule(spec);
  const FaultInjectingSource source(inner, schedule);
  BufferPool pool(source, 4, EvictionPolicy::kLru);

  for (int attempt = 0; attempt < 2; ++attempt) {
    auto bad = pool.Pin(5);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kIoError);
  }
  EXPECT_EQ(pool.counters().failed_reads, 2u);

  // Healthy pages are unaffected before, between, and after the faults.
  for (const std::size_t page : {0u, 4u, 6u}) {
    auto good = pool.Pin(page);
    ASSERT_TRUE(good.ok()) << good.status().message();
    EXPECT_TRUE(inner.PageBytesCorrect(page, good->data()));
  }
}

TEST(BufferPoolTest, InjectedTornPageSurfacesAsCorruptHeaderThroughPin) {
  const PatternSource inner(64, 8);
  FaultScheduleSpec spec;
  spec.torn_page_prob = 1.0;
  FaultSchedule schedule(spec);
  const FaultInjectingSource source(inner, schedule);
  BufferPool pool(source, 4, EvictionPolicy::kLru);

  auto torn = pool.Pin(0);
  ASSERT_FALSE(torn.ok());
  // The checksum-mismatch taxonomy survives the pin path: torn pages keep
  // the same typed code IndexFile uses for a real checksum failure.
  EXPECT_EQ(torn.status().code(), StatusCode::kCorruptHeader);
  EXPECT_EQ(pool.counters().failed_reads, 1u);
  EXPECT_EQ(schedule.counters().torn_pages, 1u);
}

/// N threads pin the same absent page while its read is in flight: the
/// page is read once, the other N-1 pins wait for the loading frame and
/// count as hits, and all N share the one frame.
TEST(BufferPoolTest, ConcurrentPinsOfALoadingPageReadItOnce) {
  constexpr int kThreads = 6;
  GatedSource source(64, 8, 5);
  BufferPool pool(source, 4, EvictionPolicy::kLru);

  std::vector<BufferPool::Pinned> pins(kThreads);
  std::vector<int> good(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto pin = pool.Pin(5);
      if (!pin.ok()) return;
      good[t] = source.PageBytesCorrect(5, pin->data()) ? 1 : 0;
      pins[t] = *std::move(pin);
    });
  }
  source.WaitForReads(1);
  LetPinsQueue();
  // The loading frame is pinned and mapped before its bytes arrive.
  EXPECT_EQ(pool.pinned_pages(), 1u);
  EXPECT_EQ(pool.resident_pages(), 1u);
  source.Open();
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(source.reads(), 1);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(good[t], 1) << "thread " << t;
    EXPECT_EQ(pins[t].data(), pins[0].data()) << "thread " << t;
  }
  const PoolCounters c = pool.counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(c.bytes_read, 64u);
  EXPECT_EQ(c.failed_reads, 0u);
  pins.clear();
  EXPECT_EQ(pool.pinned_pages(), 0u);
}

/// A gated read that fails wakes the pins waiting on it: the loader gets
/// the error, the failure is counted, the frame is freed, and the waiters
/// retry on their own, so exactly one of them reads the page again.
TEST(BufferPoolTest, FailedLoadWakesWaitersAndLeaksNoFrame) {
  constexpr int kThreads = 6;
  GatedSource source(64, 8, 2);
  source.FailNextReads(1);
  BufferPool pool(source, 4, EvictionPolicy::kLru);

  std::vector<BufferPool::Pinned> pins(kThreads);
  std::vector<StatusCode> codes(kThreads, StatusCode::kOk);
  std::vector<int> good(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto pin = pool.Pin(2);
      if (!pin.ok()) {
        codes[t] = pin.status().code();
        return;
      }
      good[t] = source.PageBytesCorrect(2, pin->data()) ? 1 : 0;
      pins[t] = *std::move(pin);
    });
  }
  source.WaitForReads(1);
  LetPinsQueue();
  source.Open();
  for (std::thread& t : threads) t.join();

  int failed = 0;
  for (int t = 0; t < kThreads; ++t) {
    if (codes[t] != StatusCode::kOk) {
      ++failed;
      EXPECT_EQ(codes[t], StatusCode::kIoError) << "thread " << t;
    } else {
      EXPECT_EQ(good[t], 1) << "thread " << t;
    }
  }
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(source.reads(), 2) << "one failed read, one retry by a waiter";
  const PoolCounters c = pool.counters();
  EXPECT_EQ(c.failed_reads, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, static_cast<std::uint64_t>(kThreads - 2));
  pins.clear();
  EXPECT_EQ(pool.pinned_pages(), 0u);
  EXPECT_EQ(pool.resident_pages(), 1u);
}

/// A loading frame is pinned by its loader: with one frame pinned and the
/// other loading, a pin of a third page fails at once with the capacity
/// error instead of waiting or evicting the frame being read.
TEST(BufferPoolTest, LoadingFramesCountTowardCapacity) {
  GatedSource source(64, 8, 1);
  BufferPool pool(source, 2, EvictionPolicy::kLru);

  auto held = pool.Pin(0);
  ASSERT_TRUE(held.ok());
  StatusOr<BufferPool::Pinned> loading = Status::Internal("not run");
  std::thread loader([&] { loading = pool.Pin(1); });
  source.WaitForReads(1);

  EXPECT_EQ(pool.pinned_pages(), 2u);
  auto third = pool.Pin(2);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kInvalidArgument);

  source.Open();
  loader.join();
  ASSERT_TRUE(loading.ok()) << loading.status().message();
  EXPECT_TRUE(source.PageBytesCorrect(1, loading->data()));
  loading->Release();
  auto after = pool.Pin(2);
  ASSERT_TRUE(after.ok()) << after.status().message();
  EXPECT_EQ(pool.counters().misses, 3u);
}

/// Property: across a random pin/hold/release workload far larger than the
/// pool, resident and pinned frame counts never exceed capacity, every pin
/// that succeeds serves bit-correct bytes, and the counter identities hold
/// (misses account for every byte read; evictions never exceed misses).
TEST(BufferPoolPropertyTest, CapacityIsAHardBoundUnderRandomWorkload) {
  const std::size_t kPages = 16;
  const std::size_t kCapacity = 4;
  const PatternSource source(64, kPages);
  BufferPool pool(source, kCapacity, EvictionPolicy::kLru);

  Rng rng(20060806);
  std::vector<BufferPool::Pinned> held;
  for (int step = 0; step < 2000; ++step) {
    const bool release = !held.empty() &&
                         (held.size() >= kCapacity - 1 ||
                          rng.NextBounded(3) == 0);
    if (release) {
      const std::size_t victim = rng.NextBounded(held.size());
      held[victim].Release();
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const std::size_t page = rng.NextBounded(kPages);
      auto pin = pool.Pin(page);
      // With at most capacity-1 handles held, a pin can always succeed.
      ASSERT_TRUE(pin.ok()) << pin.status().message();
      ASSERT_TRUE(source.PageBytesCorrect(page, pin->data()));
      held.push_back(*std::move(pin));
    }
    ASSERT_LE(pool.resident_pages(), kCapacity);
    ASSERT_LE(pool.pinned_pages(), kCapacity);
    ASSERT_LE(pool.pinned_pages(), pool.resident_pages());
  }
  const PoolCounters c = pool.counters();
  EXPECT_EQ(c.bytes_read, c.misses * 64u);
  EXPECT_LE(c.evictions, c.misses);
  EXPECT_GT(c.hits, 0u);
  EXPECT_GT(c.evictions, 0u) << "workload was meant to overflow the pool";
}

}  // namespace
}  // namespace rotind::storage

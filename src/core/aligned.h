#ifndef ROTIND_CORE_ALIGNED_H_
#define ROTIND_CORE_ALIGNED_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>

namespace rotind {

/// Cache-line alignment guaranteed by AlignedBuffer. 64 bytes is both the
/// x86 cache line and the widest vector register we target (one AVX-512
/// lane group; two AVX2 __m256d), so aligned loads stay aligned for every
/// dispatch tier.
inline constexpr std::size_t kSimdAlignment = 64;

/// A growable array of doubles whose base pointer is always 64-byte
/// aligned — the backing store for FlatDataset's rows, the blocked scan's
/// SoA tile (the SIMD kernels require aligned tile loads) and the buffer
/// pool's frames.
///
/// Semantics mirror the std::vector<double> it replaces: resize preserves
/// the prefix and zero-fills the new tail, capacity grows geometrically so
/// repeated FlatDataset::Add stays amortized O(1). Allocation goes through
/// std::aligned_alloc (RAII-owned; kernels are new/delete-free by lint
/// rule), with byte sizes rounded up to the alignment as the C standard
/// requires.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  AlignedBuffer(const AlignedBuffer& other) { CopyFrom(other); }
  AlignedBuffer& operator=(const AlignedBuffer& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  AlignedBuffer(AlignedBuffer&&) = default;
  AlignedBuffer& operator=(AlignedBuffer&&) = default;

  double* data() { return data_.get(); }
  const double* data() const { return data_.get(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  double& operator[](std::size_t i) { return data_[i]; }
  const double& operator[](std::size_t i) const { return data_[i]; }

  void reserve(std::size_t capacity) {
    if (capacity > capacity_) Reallocate(capacity);
  }

  /// Grows (zero-filling the new tail) or shrinks the logical size; never
  /// releases capacity.
  void resize(std::size_t new_size) {
    if (new_size > capacity_) {
      Reallocate(std::max(new_size, capacity_ + capacity_ / 2));
    }
    if (new_size > size_) {
      std::memset(data_.get() + size_, 0,
                  (new_size - size_) * sizeof(double));
    }
    size_ = new_size;
  }

 private:
  struct FreeDeleter {
    void operator()(double* p) const { std::free(p); }
  };

  void Reallocate(std::size_t capacity) {
    // aligned_alloc requires the byte size to be a multiple of the
    // alignment.
    const std::size_t doubles_per_line = kSimdAlignment / sizeof(double);
    const std::size_t rounded =
        (capacity + doubles_per_line - 1) / doubles_per_line *
        doubles_per_line;
    std::unique_ptr<double[], FreeDeleter> fresh(static_cast<double*>(
        std::aligned_alloc(kSimdAlignment, rounded * sizeof(double))));
    if (size_ > 0) {
      std::memcpy(fresh.get(), data_.get(), size_ * sizeof(double));
    }
    data_ = std::move(fresh);
    capacity_ = rounded;
  }

  void CopyFrom(const AlignedBuffer& other) {
    size_ = 0;
    resize(other.size_);
    if (size_ > 0) {
      std::memcpy(data_.get(), other.data_.get(), size_ * sizeof(double));
    }
  }

  std::unique_ptr<double[], FreeDeleter> data_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

/// True when `p` satisfies the SIMD alignment contract.
inline bool IsSimdAligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kSimdAlignment == 0;
}

}  // namespace rotind

#endif  // ROTIND_CORE_ALIGNED_H_

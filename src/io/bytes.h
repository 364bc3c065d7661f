#ifndef ROTIND_IO_BYTES_H_
#define ROTIND_IO_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>

#include "src/core/status.h"

namespace rotind {

/// Low-level binary I/O building blocks shared by the dataset container
/// (src/io/serialize) and the paged index-file format (src/storage). These
/// are the only primitives that touch raw bytes; every format on top of
/// them inherits the same bounds discipline.

/// Bounds-checked cursor over an untrusted in-memory file image. Every read
/// is validated against the remaining byte count; nothing is allocated on
/// behalf of header fields until they have been proven to fit.
class BufferReader {
 public:
  BufferReader(const char* data, std::size_t size) : data_(data), size_(size) {}

  std::size_t remaining() const { return size_ - pos_; }
  std::size_t position() const { return pos_; }

  template <typename T>
  bool Read(T* out) {
    if (remaining() < sizeof(T)) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadBytes(void* out, std::size_t n) {
    if (remaining() < n) return false;
    if (n != 0) std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  /// Advances the cursor without copying. Fails (and leaves the cursor in
  /// place) when fewer than `n` bytes remain.
  bool Skip(std::size_t n) {
    if (remaining() < n) return false;
    pos_ += n;
    return true;
  }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Writes the raw object representation of a trivially-copyable value.
template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Slurps a whole file into memory. kNotFound when it cannot be opened,
/// kIoError when the read fails partway.
[[nodiscard]] StatusOr<std::string> ReadFileToString(const std::string& path);

/// Durability a WriteStringToFile call guarantees on success.
enum class WriteDurability {
  /// Flushed to the OS: the bytes survive a process crash, but after a
  /// power loss the file may be empty or torn. The default — right for
  /// artifacts a rebuild can regenerate.
  kFlush,
  /// fsync'd before returning: the bytes are on stable storage. For an
  /// atomically-published file (temp write + rename), pair with
  /// SyncDirectory on the parent so the rename itself survives power loss.
  kFsync,
};

/// Writes `content` to `path`, replacing any existing file. kIoError when
/// the file cannot be opened or the write/flush/fsync fails partway. This
/// is the sanctioned file-mutation primitive for layers above io/storage —
/// rotind_lint bans direct fopen/rename outside those two directories, so
/// every ad-hoc writer inherits one error contract instead of growing its
/// own stdio handling.
[[nodiscard]] Status WriteStringToFile(
    const std::string& path, const std::string& content,
    WriteDurability durability = WriteDurability::kFlush);

/// fsyncs the directory `dir` so renames/creates inside it are on stable
/// storage — the second half of a power-loss-durable atomic publication.
[[nodiscard]] Status SyncDirectory(const std::string& dir);

/// Directory prefix of `path` ("." when the path has no separator): the
/// directory whose entry must be fsync'd for a create or rename inside it
/// to be durable, and the base that manifest-relative shard names resolve
/// against.
std::string DirOf(const std::string& path);

/// 64-bit FNV-1a over a byte range: the checksum of the shard manifest and
/// of RIDX containers up to version 2. Not cryptographic — it detects
/// truncation and bit flips, not adversaries. Each byte's multiply waits
/// for the previous one, so long ranges are slow (see LaneChecksum64).
std::uint64_t Fnv1a64(const void* data, std::size_t n);

/// Chained variant for checksumming discontiguous ranges: pass the previous
/// result as `seed`. `Fnv1a64(p, n) == Fnv1a64Seeded(p, n, kFnv1aOffset)`.
inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;
std::uint64_t Fnv1a64Seeded(const void* data, std::size_t n,
                            std::uint64_t seed);

/// Lane-parallel 64-bit checksum: the checksum of RIDX version 3. Eight
/// independent FNV-1a-derived lanes read little-endian 64-bit words (lane j
/// takes words j, j+8, j+16, ...); each step is `t = (h ^ w) * P;
/// h = t ^ (t >> 29)` with P the FNV-1a prime 0x100000001b3, and lane j
/// starts at `kFnv1aOffset + j`. A tail shorter than one 64-byte stride is
/// hashed with Fnv1a64, and the lanes are folded into that hash with the
/// same step, lane 0 first. That is one multiply per 8-byte word instead
/// of one per byte, and the lanes' multiplies are independent, so they
/// overlap: on a 4 KiB data page it is over an order of magnitude faster
/// than Fnv1a64 (BM_PageChecksum in bench/micro_kernels.cc).
///
/// The shift-xor mix is what makes same-lane flips detectable: an odd
/// multiply never moves a difference in bit 63 to a lower bit, so without
/// it two flips of the top bit of two words in one lane would cancel.
/// Same non-goal as Fnv1a64: it detects bit rot and torn writes, not
/// adversaries. The value is part of the file format; the known-answer
/// tests in tests/checksum_test.cc pin it.
std::uint64_t LaneChecksum64(const void* data, std::size_t n);

}  // namespace rotind

#endif  // ROTIND_IO_BYTES_H_

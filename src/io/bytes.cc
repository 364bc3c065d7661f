#include "src/io/bytes.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>

namespace rotind {
namespace {

/// Owns an open file descriptor and closes it on every way out of its
/// scope, an exception from a growing buffer included.
class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  int get() const { return fd_; }

 private:
  int fd_;
};

/// fsyncs `path` through a fresh read-only descriptor (fsync flushes the
/// inode's dirty pages regardless of the fd's access mode).
Status FsyncPath(const std::string& path, int open_flags) {
  const ScopedFd fd(::open(path.c_str(), open_flags | O_CLOEXEC));
  if (fd.get() < 0) {
    return Status::IoError("cannot open " + path + " for fsync");
  }
  if (::fsync(fd.get()) != 0) return Status::IoError("fsync failed on " + path);
  return Status::Ok();
}

constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ull;

/// One lane step: an FNV-1a multiply, then a shift-xor that carries the
/// high bits the multiply cannot move back down.
inline std::uint64_t LaneStep(std::uint64_t h, std::uint64_t w) {
  const std::uint64_t t = (h ^ w) * kFnv1aPrime;
  return t ^ (t >> 29);
}

/// Little-endian load, whatever the host's byte order. On little-endian
/// hosts (every one the containers are written on: all their fields are
/// stored in host order) this is one unaligned move.
inline std::uint64_t LoadLe64(const unsigned char* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::big) {
    std::uint64_t le = 0;
    for (int b = 0; b < 8; ++b) le = (le << 8) | ((w >> (8 * b)) & 0xff);
    w = le;
  }
  return w;
}

}  // namespace

StatusOr<std::string> ReadFileToString(const std::string& path) {
  const ScopedFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) return Status::NotFound("cannot open " + path);
  // Presized to a regular file's length plus one spare chunk, which the
  // read that meets EOF lands in, so the file is read in place with one
  // allocation and no growth copy. A pipe or other stream reports no
  // length: it starts at one chunk and doubles as it fills. Either way the
  // read runs to EOF, so a file that grows meanwhile is read whole.
  constexpr std::size_t kChunk = 4096;
  std::size_t length = 0;
  struct stat st = {};
  if (::fstat(fd.get(), &st) == 0 && S_ISREG(st.st_mode)) {
    length = static_cast<std::size_t>(st.st_size);
  }
  std::string out(length + kChunk, '\0');
  std::size_t used = 0;
  for (;;) {
    if (used == out.size()) out.resize(2 * out.size());
    const ssize_t got = ::read(fd.get(), out.data() + used, out.size() - used);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) return Status::IoError("read failed on " + path);
    if (got == 0) break;
    used += static_cast<std::size_t>(got);
  }
  out.resize(used);
  return out;
}

Status WriteStringToFile(const std::string& path, const std::string& content,
                         WriteDurability durability) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open " + path + " for writing");
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) return Status::IoError("short write to " + path);
  }
  if (durability == WriteDurability::kFsync) {
    return FsyncPath(path, O_RDONLY);
  }
  return Status::Ok();
}

Status SyncDirectory(const std::string& dir) {
  return FsyncPath(dir, O_RDONLY | O_DIRECTORY);
}

std::string DirOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

std::uint64_t Fnv1a64Seeded(const void* data, std::size_t n,
                            std::uint64_t seed) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= kFnv1aPrime;
  }
  return hash;
}

std::uint64_t Fnv1a64(const void* data, std::size_t n) {
  return Fnv1a64Seeded(data, n, kFnv1aOffset);
}

std::uint64_t LaneChecksum64(const void* data, std::size_t n) {
  constexpr std::size_t kLanes = 8;
  constexpr std::size_t kStride = kLanes * sizeof(std::uint64_t);
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t lanes[kLanes];
  for (std::size_t j = 0; j < kLanes; ++j) lanes[j] = kFnv1aOffset + j;
  const std::size_t body = n - n % kStride;
  for (std::size_t i = 0; i < body; i += kStride) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      lanes[j] = LaneStep(lanes[j], LoadLe64(bytes + i + j * 8));
    }
  }
  std::uint64_t hash = Fnv1a64(bytes + body, n - body);
  for (std::uint64_t lane : lanes) hash = LaneStep(hash, lane);
  return hash;
}

}  // namespace rotind

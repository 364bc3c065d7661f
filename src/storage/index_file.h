#ifndef ROTIND_STORAGE_INDEX_FILE_H_
#define ROTIND_STORAGE_INDEX_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/series.h"
#include "src/core/status.h"
#include "src/io/bytes.h"
#include "src/storage/buffer_pool.h"

namespace rotind::storage {

/// Paged on-disk index file ("RIDX" container, versions 1 to 3).
///
/// Layout (little-endian; every checksum is 64 bits, computed with the
/// version's checksum function — byte-wise FNV-1a (Fnv1a64) in versions 1
/// and 2, the 8-lane LaneChecksum64 in version 3):
///
///   +--------------------------------------------------------------+
///   | header (64 bytes, fixed)                                     |
///   |   magic "RIDX" | version u32 | page_size u64 | count u64     |
///   |   length u64 | sig_dims u64 | paa_dims u64 | flags u64       |
///   |   header checksum u64 (over the 56 bytes before it)          |
///   +--------------------------------------------------------------+
///   | v2 and v3: extension header (64 bytes, fixed)                |
///   |   ri_dims u64 | 48 reserved bytes (must be zero)             |
///   |   extension checksum u64 (over the 56 bytes before it)       |
///   +--------------------------------------------------------------+
///   | catalog: count x {offset u64, bytes u64}    + checksum u64   |
///   | page checksums: data_pages x u64            + checksum u64   |
///   | FFT magnitude signatures: count*sig_dims f64 + checksum u64  |
///   | PAA summaries: count*paa_dims f64           + checksum u64   |
///   | v2 and v3, flags bit 1 (legacy; read, never written): pooled |
///   |   RI signatures, count*ri_dims f64          + checksum u64   |
///   | labels (flags bit 0): count x i32           + checksum u64   |
///   |   ... zero padding to the next page_size boundary ...        |
///   +--------------------------------------------------------------+
///   | data section: data_pages pages of page_size bytes each;      |
///   | series i occupies bytes [catalog[i].offset,                  |
///   | catalog[i].offset + catalog[i].bytes) of the section          |
///   +--------------------------------------------------------------+
///
/// Version 3 has the version-2 layout; only the checksum function differs.
///
/// VERSIONING RULE: the writer emits the OLDEST version that can represent
/// the payload, and the payload includes its checksum function. Only
/// version 3 carries the lane checksum, so every new file is version 3.
/// The writer never writes the RI section (flag bit 1 clear, ri_dims 0);
/// the reader still verifies one in a v2 or v3 file, as it verifies
/// every section, and then drops it. The reader reads the version before
/// any checksum, accepts versions 1 to 3 (v1 and v2 files verify with
/// FNV-1a as they always did), and refuses any other version with
/// kVersionMismatch — as builds that read only versions 1 and 2 refuse a
/// version-3 file. Flag bits are version-gated: bit 1 (RI signatures) is
/// "unknown flag bits set" corruption in a version-1 header, so a v1
/// reader's rejection behaviour is preserved exactly.
///
/// Everything above the data section is the RESIDENT region: it is read,
/// checksum-verified, and held in memory at open time (signatures and
/// summaries must be scanned for every query, so paging them would defeat
/// the lower-bound cascade). The data section is read page-at-a-time
/// through a BufferPool, each page verified against its resident checksum.
///
/// Error taxonomy mirrors the dataset container (src/io/serialize.h):
///   kBadMagic         not a RIDX file
///   kVersionMismatch  written by an incompatible version
///   kTruncated        file ends before a section its header promises
///   kCorruptHeader    checksum mismatch or internally absurd fields
///   kIoError          pread/write failure on an otherwise valid file

inline constexpr char kIndexMagic[4] = {'R', 'I', 'D', 'X'};
/// The version this build writes, and the newest it accepts.
inline constexpr std::uint32_t kIndexVersion = 3;
inline constexpr std::uint32_t kIndexVersionV1 = 1;
/// First version with the extension header.
inline constexpr std::uint32_t kIndexVersionV2 = 2;
inline constexpr std::size_t kIndexHeaderBytes = 64;
/// Extension header size (versions 2 and 3); their resident region starts
/// at kIndexHeaderBytes + kIndexExtHeaderBytes.
inline constexpr std::size_t kIndexExtHeaderBytes = 64;
inline constexpr std::uint64_t kIndexFlagHasLabels = 1;
/// Versions 2 and 3: the legacy rotation-invariant signature section is
/// present. Unknown (corrupt) in a version-1 header; never written.
inline constexpr std::uint64_t kIndexFlagHasRiSig = 2;

/// A 64-bit checksum over a byte range (Fnv1a64 or LaneChecksum64).
using IndexChecksumFn = std::uint64_t (*)(const void* data, std::size_t n);

/// The checksum function of every checksum in a container of `version`:
/// Fnv1a64 for versions 1 and 2, LaneChecksum64 from version 3 on. The
/// version field is the only selector.
IndexChecksumFn IndexChecksumFor(std::uint32_t version);
/// Accepted page sizes: anything in [64 bytes, 64 MiB]. The default
/// matches SimulatedDisk's 4096-byte page.
inline constexpr std::uint64_t kMinPageSize = 64;
inline constexpr std::uint64_t kMaxPageSize = 64ull << 20;

/// Everything the writer needs besides the raw series: signature matrices
/// are precomputed by the caller (src/index/index_io computes them via the
/// fourier/paa kernels — storage itself stays below those layers).
struct IndexBuildData {
  std::size_t sig_dims = 0;        ///< Columns of `signatures` (0 = none).
  std::vector<double> signatures;  ///< count x sig_dims, row-major.
  std::size_t paa_dims = 0;        ///< Columns of `paa` (0 = none).
  std::vector<double> paa;         ///< count x paa_dims, row-major.
  std::vector<int> labels;         ///< Optional; empty or count entries.
};

/// Writes `db` plus its signature sections to `path` as a version-3 RIDX
/// container. Fails with kInvalidArgument on shape mismatches (ragged
/// matrices, bad page size) and kIoError on write failure.
///
/// `durability` kFlush leaves the bytes with the OS: right for throwaway
/// and rebuildable files. kFsync returns only after the file and then its
/// directory are fsync'd, so the new file survives a power cut under its
/// name — required before a manifest that names the file is published.
[[nodiscard]] Status WriteIndexFile(
    const Dataset& db, const IndexBuildData& extras,
    std::size_t page_size_bytes, const std::string& path,
    WriteDurability durability = WriteDurability::kFlush);

/// An opened RIDX file: resident sections in memory, data section readable
/// page-at-a-time. Implements PageSource so a BufferPool can cache pages.
///
/// Thread safety: all accessors and ReadPage are const and safe to call
/// concurrently (file mode uses pread, which carries no shared cursor).
class IndexFile final : public PageSource {
 public:
  /// Opens `path`, reading and verifying the resident region. The file
  /// descriptor stays open for the lifetime of the IndexFile.
  [[nodiscard]] static StatusOr<std::unique_ptr<IndexFile>> Open(
      const std::string& path);

  /// Parses an in-memory image. This is the fuzzing entry point
  /// (tools/rotind_fuzz_load.cc): any byte string must map to a Status or
  /// a usable IndexFile, never a crash.
  [[nodiscard]] static StatusOr<std::unique_ptr<IndexFile>> FromMemory(
      std::string bytes);

  ~IndexFile() override;
  IndexFile(const IndexFile&) = delete;
  IndexFile& operator=(const IndexFile&) = delete;

  std::size_t num_objects() const { return count_; }
  std::size_t series_length() const { return length_; }
  std::size_t sig_dims() const { return sig_dims_; }
  std::size_t paa_dims() const { return paa_dims_; }
  /// Columns of the legacy RI section the file carries (verified at open,
  /// then dropped); 0 for v1 files and every file this build writes.
  std::size_t ri_dims() const { return ri_dims_; }
  bool has_labels() const { return !labels_.empty(); }

  /// FFT magnitude signatures, count x sig_dims row-major (empty when the
  /// file was written without them): the ED signature index's rows, and
  /// the rows whose first d columns the vec-signature filter reads.
  /// Resident; no page I/O.
  const std::vector<double>& spectral_signatures() const { return sigs_; }
  /// PAA summaries, count x paa_dims row-major.
  const std::vector<double>& paa_summaries() const { return paa_; }
  /// Class labels (empty when the file was written without them).
  const std::vector<int>& labels() const { return labels_; }

  /// Byte extent of object `i` within the data section.
  struct Extent {
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
  };
  Extent extent(std::size_t i) const { return catalog_[i]; }

  // PageSource:
  std::size_t page_size_bytes() const override { return page_size_; }
  std::size_t num_pages() const override { return data_pages_; }
  [[nodiscard]] Status ReadPage(std::size_t page, char* out) const override;

 private:
  IndexFile() = default;

  /// Parses header + resident region out of `resident` (at least the
  /// resident byte count long, or the whole file for memory images).
  /// `file_size` is the total container size for truncation checks.
  [[nodiscard]] static StatusOr<std::unique_ptr<IndexFile>> ParseResident(
      const std::string& resident, std::uint64_t file_size);

  std::size_t count_ = 0;
  std::size_t length_ = 0;
  std::size_t page_size_ = 0;
  std::size_t data_pages_ = 0;
  std::uint64_t data_offset_ = 0;  ///< Byte offset of the data section.
  std::vector<Extent> catalog_;
  std::vector<std::uint64_t> page_checksums_;
  std::size_t sig_dims_ = 0;
  std::size_t paa_dims_ = 0;
  std::size_t ri_dims_ = 0;
  std::vector<double> sigs_;
  std::vector<double> paa_;
  std::vector<int> labels_;
  IndexChecksumFn checksum_ = nullptr;  ///< The version's; verifies pages.

  int fd_ = -1;              ///< File mode: descriptor for pread.
  std::string path_;         ///< File mode: for error messages.
  std::string memory_;       ///< Memory mode: the whole image.
};

}  // namespace rotind::storage

#endif  // ROTIND_STORAGE_INDEX_FILE_H_

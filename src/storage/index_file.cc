#include "src/storage/index_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "src/core/contracts.h"
#include "src/io/bytes.h"

namespace rotind::storage {
namespace {

std::uint64_t AlignUp(std::uint64_t value, std::uint64_t alignment) {
  const std::uint64_t rem = value % alignment;
  return rem == 0 ? value : value + (alignment - rem);
}

/// Header fields plus every derived size, all validated against the actual
/// container size BEFORE any allocation (same discipline as the dataset
/// loader: a malicious 64-byte file cannot request a multi-GB resize).
struct HeaderInfo {
  std::uint32_t version = 0;
  IndexChecksumFn checksum = nullptr;  ///< The version's checksum function.
  std::uint64_t page_size = 0;
  std::uint64_t count = 0;
  std::uint64_t length = 0;
  std::uint64_t sig_dims = 0;
  std::uint64_t paa_dims = 0;
  std::uint64_t ri_dims = 0;      ///< Extension header; 0 for v1 files.
  std::uint64_t header_bytes = 0; ///< 64 for v1, 128 for v2 and v3.
  std::uint64_t flags = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t data_pages = 0;
  std::uint64_t resident_end = 0;
  std::uint64_t data_offset = 0;
};

StatusOr<HeaderInfo> ParseHeader(const char* data, std::size_t size,
                                 std::uint64_t file_size) {
  BufferReader reader(data, size);
  char magic[4];
  if (!reader.ReadBytes(magic, sizeof(magic))) {
    return Status(StatusCode::kTruncated, "file too small to hold the magic");
  }
  if (std::memcmp(magic, kIndexMagic, sizeof(magic)) != 0) {
    return Status(StatusCode::kBadMagic, "file does not start with 'RIDX'");
  }
  std::uint32_t version = 0;
  if (!reader.Read(&version)) {
    return Status(StatusCode::kTruncated, "file ends inside the version field");
  }
  if (version < kIndexVersionV1 || version > kIndexVersion) {
    return Status(StatusCode::kVersionMismatch,
                  "index version " + std::to_string(version) +
                      "; this build reads versions " +
                      std::to_string(kIndexVersionV1) + " through " +
                      std::to_string(kIndexVersion));
  }
  HeaderInfo info;
  info.version = version;
  info.checksum = IndexChecksumFor(version);
  std::uint64_t stored_checksum = 0;
  if (!reader.Read(&info.page_size) || !reader.Read(&info.count) ||
      !reader.Read(&info.length) || !reader.Read(&info.sig_dims) ||
      !reader.Read(&info.paa_dims) || !reader.Read(&info.flags) ||
      !reader.Read(&stored_checksum)) {
    return Status(StatusCode::kTruncated, "file ends inside the header");
  }
  if (info.checksum(data, kIndexHeaderBytes - sizeof(std::uint64_t)) !=
      stored_checksum) {
    return Status(StatusCode::kCorruptHeader, "header checksum mismatch");
  }
  info.header_bytes = kIndexHeaderBytes;
  if (version >= kIndexVersionV2) {
    // Versions 2 and 3 carry a fixed-size extension header directly after
    // the base header. Its reserved bytes must be zero so a future version
    // can assign them meaning without today's readers silently accepting
    // the result.
    info.header_bytes += kIndexExtHeaderBytes;
    std::uint64_t reserved[6] = {};
    std::uint64_t ext_checksum = 0;
    if (!reader.Read(&info.ri_dims) ||
        !reader.ReadBytes(reserved, sizeof reserved) ||
        !reader.Read(&ext_checksum)) {
      // Appended, not `"literal" + std::string`: GCC 12's -Wrestrict
      // false positive (bug 105329) fails that under -Werror.
      std::string message = "file ends inside the v";
      message += std::to_string(version);
      message += " extension header";
      return Status(StatusCode::kTruncated, std::move(message));
    }
    if (info.checksum(data + kIndexHeaderBytes,
                      kIndexExtHeaderBytes - sizeof(std::uint64_t)) !=
        ext_checksum) {
      return Status(StatusCode::kCorruptHeader,
                    "extension header checksum mismatch");
    }
    for (std::uint64_t r : reserved) {
      if (r != 0) {
        return Status(StatusCode::kCorruptHeader,
                      "nonzero reserved bytes in the extension header");
      }
    }
  }
  if (info.page_size < kMinPageSize || info.page_size > kMaxPageSize) {
    return Status(StatusCode::kCorruptHeader,
                  "page size " + std::to_string(info.page_size) +
                      " outside [" + std::to_string(kMinPageSize) + ", " +
                      std::to_string(kMaxPageSize) + "]");
  }
  if (info.count == 0) {
    return Status(StatusCode::kEmptyDataset, "index holds zero series");
  }
  if (info.length == 0) {
    return Status(StatusCode::kCorruptHeader,
                  "zero series length with nonzero count");
  }
  // Flag bits are version-gated: a v1 header claiming the v2 RI section is
  // exactly as corrupt as one claiming any other unknown bit.
  const std::uint64_t allowed_flags =
      info.version == kIndexVersionV1
          ? kIndexFlagHasLabels
          : (kIndexFlagHasLabels | kIndexFlagHasRiSig);
  if ((info.flags & ~allowed_flags) != 0) {
    return Status(StatusCode::kCorruptHeader, "unknown flag bits set");
  }
  if (((info.flags & kIndexFlagHasRiSig) != 0) != (info.ri_dims > 0)) {
    return Status(StatusCode::kCorruptHeader,
                  "RI signature flag and ri_dims disagree");
  }
  if (info.sig_dims > info.length || info.paa_dims > info.length ||
      info.ri_dims > info.length) {
    return Status(StatusCode::kCorruptHeader,
                  "signature dims exceed the series length");
  }
  // Caps derived from the ACTUAL container size. count and length are each
  // bounded by file_size/8, which (real files being < 2^61 bytes) keeps
  // every product below computed here overflow-free; the explicit guard
  // covers hostile in-memory images too.
  if (info.count > file_size / sizeof(double) ||
      info.length > file_size / sizeof(double)) {
    return Status(StatusCode::kCorruptHeader,
                  "count/length cannot fit in a file of " +
                      std::to_string(file_size) + " bytes");
  }
  if (info.length > UINT64_MAX / (info.count * sizeof(double))) {
    return Status(StatusCode::kCorruptHeader, "count*length overflows");
  }
  info.data_bytes = info.count * info.length * sizeof(double);
  info.data_pages = (info.data_bytes + info.page_size - 1) / info.page_size;

  const std::uint64_t checksum = sizeof(std::uint64_t);
  std::uint64_t resident = info.header_bytes;
  resident += info.count * 16 + checksum;                           // catalog
  resident += info.data_pages * 8 + checksum;               // page checksums
  resident += info.count * info.sig_dims * sizeof(double) + checksum;
  resident += info.count * info.paa_dims * sizeof(double) + checksum;
  if ((info.flags & kIndexFlagHasRiSig) != 0) {
    resident += info.count * info.ri_dims * sizeof(double) + checksum;
  }
  if ((info.flags & kIndexFlagHasLabels) != 0) {
    resident += info.count * sizeof(std::int32_t) + checksum;
  }
  info.resident_end = resident;
  if (info.resident_end > file_size) {
    return Status(StatusCode::kTruncated,
                  "file ends inside the resident region (" +
                      std::to_string(info.resident_end) + " bytes needed, " +
                      std::to_string(file_size) + " present)");
  }
  info.data_offset = AlignUp(info.resident_end, info.page_size);
  const std::uint64_t total =
      info.data_offset + info.data_pages * info.page_size;
  if (total > file_size) {
    return Status(StatusCode::kTruncated,
                  "file ends inside the data section (" +
                      std::to_string(total) + " bytes needed, " +
                      std::to_string(file_size) + " present)");
  }
  if (total < file_size) {
    return Status(StatusCode::kCorruptHeader,
                  std::to_string(file_size - total) +
                      " trailing bytes after the data section");
  }
  return info;
}

/// Verifies the stored checksum of `[start, start+bytes)` within `image`.
/// The reader must be positioned at the checksum field.
bool SectionChecksumOk(IndexChecksumFn checksum, const std::string& image,
                       std::size_t start, std::size_t bytes,
                       BufferReader& reader) {
  std::uint64_t stored = 0;
  if (!reader.Read(&stored)) return false;
  return checksum(image.data() + start, bytes) == stored;
}

Status CorruptSection(const std::string& name) {
  return Status(StatusCode::kCorruptHeader, name + " checksum mismatch");
}

}  // namespace

IndexChecksumFn IndexChecksumFor(std::uint32_t version) {
  return version <= kIndexVersionV2 ? Fnv1a64 : LaneChecksum64;
}

Status WriteIndexFile(const Dataset& db, const IndexBuildData& extras,
                      std::size_t page_size_bytes, const std::string& path,
                      WriteDurability durability) {
  const std::size_t count = db.size();
  const std::size_t length = db.length();
  if (count == 0 || length == 0) {
    return Status::InvalidArgument("refusing to write an empty index");
  }
  if (page_size_bytes < kMinPageSize || page_size_bytes > kMaxPageSize) {
    return Status::InvalidArgument(
        "page size " + std::to_string(page_size_bytes) + " outside [" +
        std::to_string(kMinPageSize) + ", " + std::to_string(kMaxPageSize) +
        "]");
  }
  if (extras.sig_dims > length || extras.paa_dims > length) {
    return Status::InvalidArgument("signature dims exceed the series length");
  }
  if (extras.signatures.size() != count * extras.sig_dims ||
      extras.paa.size() != count * extras.paa_dims) {
    return Status::InvalidArgument(
        "signature matrix shape does not match count x dims");
  }
  if (!extras.labels.empty() && extras.labels.size() != count) {
    return Status::InvalidArgument("label count does not match series count");
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (db.items[i].size() != length) {
      return Status::InvalidArgument(
          "dataset is ragged: item " + std::to_string(i) + " has length " +
          std::to_string(db.items[i].size()) + ", expected " +
          std::to_string(length));
    }
    for (double v : db.items[i]) {
      if (!std::isfinite(v)) {
        return Status(StatusCode::kBadValue,
                      "item " + std::to_string(i) +
                          " contains a non-finite value; refusing to write");
      }
    }
  }
  for (double v : extras.signatures) {
    if (!std::isfinite(v)) {
      return Status(StatusCode::kBadValue, "non-finite FFT signature value");
    }
  }
  for (double v : extras.paa) {
    if (!std::isfinite(v)) {
      return Status(StatusCode::kBadValue, "non-finite PAA summary value");
    }
  }
  const std::uint64_t data_bytes =
      static_cast<std::uint64_t>(count) * length * sizeof(double);
  const std::uint64_t data_pages =
      (data_bytes + page_size_bytes - 1) / page_size_bytes;
  const IndexChecksumFn checksum = IndexChecksumFor(kIndexVersion);

  // The whole image is laid out in one buffer: every section size is known
  // up front, and the page checksum table is filled in once the data
  // section behind it is in place.
  constexpr std::uint64_t kSum = sizeof(std::uint64_t);
  std::uint64_t resident = kIndexHeaderBytes + kIndexExtHeaderBytes;
  resident += count * 16 + kSum;
  resident += data_pages * 8 + kSum;
  resident += extras.signatures.size() * sizeof(double) + kSum;
  resident += extras.paa.size() * sizeof(double) + kSum;
  if (!extras.labels.empty()) resident += count * sizeof(std::int32_t) + kSum;
  const std::uint64_t data_offset = AlignUp(resident, page_size_bytes);
  std::string image;
  image.reserve(
      static_cast<std::size_t>(data_offset + data_pages * page_size_bytes));

  // Appends `n` bytes and then their checksum: every checksummed block of
  // the resident region (both headers and each section) has this shape.
  const auto append_checksummed = [&](const void* bytes, std::size_t n) {
    const std::size_t start = image.size();
    image.append(static_cast<const char*>(bytes), n);
    const std::uint64_t sum = checksum(image.data() + start, n);
    image.append(reinterpret_cast<const char*>(&sum), sizeof sum);
  };

  const std::uint64_t flags =
      extras.labels.empty() ? 0 : kIndexFlagHasLabels;
  std::ostringstream header;
  header.write(kIndexMagic, sizeof(kIndexMagic));
  WritePod(header, kIndexVersion);
  WritePod(header, static_cast<std::uint64_t>(page_size_bytes));
  WritePod(header, static_cast<std::uint64_t>(count));
  WritePod(header, static_cast<std::uint64_t>(length));
  WritePod(header, static_cast<std::uint64_t>(extras.sig_dims));
  WritePod(header, static_cast<std::uint64_t>(extras.paa_dims));
  WritePod(header, flags);
  const std::string base = std::move(header).str();
  append_checksummed(base.data(), base.size());
  const std::uint64_t ext[7] = {};
  append_checksummed(ext, sizeof ext);  // ri_dims 0, then 48 reserved zeros

  std::vector<std::uint64_t> catalog(count * 2);
  for (std::size_t i = 0; i < count; ++i) {
    catalog[2 * i] = static_cast<std::uint64_t>(i) * length * sizeof(double);
    catalog[2 * i + 1] = length * sizeof(double);
  }
  append_checksummed(catalog.data(), catalog.size() * sizeof(std::uint64_t));
  const std::size_t page_table = image.size();  // filled in below
  image.append(static_cast<std::size_t>(data_pages * 8 + kSum), '\0');
  append_checksummed(extras.signatures.data(),
                     extras.signatures.size() * sizeof(double));
  append_checksummed(extras.paa.data(), extras.paa.size() * sizeof(double));
  if (!extras.labels.empty()) {
    std::vector<std::int32_t> labels32(extras.labels.begin(),
                                       extras.labels.end());
    append_checksummed(labels32.data(),
                       labels32.size() * sizeof(std::int32_t));
  }
  ROTIND_DCHECK(image.size() == resident);

  // Zero padding, then the data section, zero-padded to whole pages.
  image.resize(
      static_cast<std::size_t>(data_offset + data_pages * page_size_bytes),
      '\0');
  char* data = image.data() + data_offset;
  for (std::size_t i = 0; i < count; ++i) {
    std::memcpy(data + i * length * sizeof(double), db.items[i].data(),
                length * sizeof(double));
  }
  const std::size_t table_bytes = static_cast<std::size_t>(data_pages * 8);
  for (std::size_t p = 0; p < data_pages; ++p) {
    const std::uint64_t sum =
        checksum(data + p * page_size_bytes, page_size_bytes);
    std::memcpy(image.data() + page_table + p * 8, &sum, sizeof sum);
  }
  const std::uint64_t table_sum =
      checksum(image.data() + page_table, table_bytes);
  std::memcpy(image.data() + page_table + table_bytes, &table_sum,
              sizeof table_sum);

  Status wrote = WriteStringToFile(path, image, durability);
  if (!wrote.ok() || durability != WriteDurability::kFsync) return wrote;
  // A new file survives a power cut only once its directory entry does.
  return SyncDirectory(DirOf(path));
}

StatusOr<std::unique_ptr<IndexFile>> IndexFile::ParseResident(
    const std::string& resident, std::uint64_t file_size) {
  StatusOr<HeaderInfo> parsed =
      ParseHeader(resident.data(), resident.size(), file_size);
  if (!parsed.ok()) return parsed.status();
  const HeaderInfo& info = *parsed;
  if (resident.size() < info.resident_end) {
    return Status(StatusCode::kTruncated,
                  "resident region ends before its sections");
  }

  std::unique_ptr<IndexFile> file(new IndexFile());
  file->count_ = static_cast<std::size_t>(info.count);
  file->length_ = static_cast<std::size_t>(info.length);
  file->page_size_ = static_cast<std::size_t>(info.page_size);
  file->data_pages_ = static_cast<std::size_t>(info.data_pages);
  file->data_offset_ = info.data_offset;
  file->sig_dims_ = static_cast<std::size_t>(info.sig_dims);
  file->paa_dims_ = static_cast<std::size_t>(info.paa_dims);
  file->checksum_ = info.checksum;

  BufferReader reader(resident.data(), resident.size());
  // Header (and, from v2 on, extension header) already verified.
  (void)reader.Skip(static_cast<std::size_t>(info.header_bytes));

  std::size_t start = reader.position();
  file->catalog_.resize(file->count_);
  const std::uint64_t data_size = info.data_pages * info.page_size;
  for (std::size_t i = 0; i < file->count_; ++i) {
    Extent& e = file->catalog_[i];
    (void)reader.Read(&e.offset);  // resident_end check proved these fit
    (void)reader.Read(&e.bytes);
  }
  if (!SectionChecksumOk(info.checksum, resident, start, file->count_ * 16, reader)) {
    return CorruptSection("catalog");
  }
  for (std::size_t i = 0; i < file->count_; ++i) {
    const Extent& e = file->catalog_[i];
    if (e.bytes != info.length * sizeof(double) || e.offset > data_size ||
        e.bytes > data_size - e.offset) {
      return Status(StatusCode::kCorruptHeader,
                    "catalog entry " + std::to_string(i) +
                        " points outside the data section");
    }
  }

  start = reader.position();
  file->page_checksums_.resize(file->data_pages_);
  for (std::uint64_t& sum : file->page_checksums_) (void)reader.Read(&sum);
  if (!SectionChecksumOk(info.checksum, resident, start, file->data_pages_ * 8, reader)) {
    return CorruptSection("page checksum table");
  }

  start = reader.position();
  file->sigs_.resize(file->count_ * file->sig_dims_);
  (void)reader.ReadBytes(file->sigs_.data(),
                         file->sigs_.size() * sizeof(double));
  if (!SectionChecksumOk(info.checksum, resident, start,
                         file->sigs_.size() * sizeof(double), reader)) {
    return CorruptSection("FFT signature section");
  }

  start = reader.position();
  file->paa_.resize(file->count_ * file->paa_dims_);
  (void)reader.ReadBytes(file->paa_.data(),
                         file->paa_.size() * sizeof(double));
  if (!SectionChecksumOk(info.checksum, resident, start,
                         file->paa_.size() * sizeof(double), reader)) {
    return CorruptSection("PAA summary section");
  }
  for (double v : file->sigs_) {
    if (!std::isfinite(v)) {
      return Status(StatusCode::kBadValue, "non-finite FFT signature value");
    }
  }
  for (double v : file->paa_) {
    if (!std::isfinite(v)) {
      return Status(StatusCode::kBadValue, "non-finite PAA summary value");
    }
  }

  // The legacy RI section: verified like every other section, then
  // dropped, since nothing reads its pooled rows.
  if ((info.flags & kIndexFlagHasRiSig) != 0) {
    file->ri_dims_ = static_cast<std::size_t>(info.ri_dims);
    start = reader.position();
    std::vector<double> ri_rows(file->count_ * file->ri_dims_);
    (void)reader.ReadBytes(ri_rows.data(), ri_rows.size() * sizeof(double));
    if (!SectionChecksumOk(info.checksum, resident, start,
                           ri_rows.size() * sizeof(double), reader)) {
      return CorruptSection("RI signature section");
    }
    for (double v : ri_rows) {
      if (!std::isfinite(v)) {
        return Status(StatusCode::kBadValue, "non-finite RI signature value");
      }
    }
  }

  if ((info.flags & kIndexFlagHasLabels) != 0) {
    start = reader.position();
    file->labels_.resize(file->count_);
    for (int& label : file->labels_) {
      std::int32_t v = 0;
      (void)reader.Read(&v);
      label = v;
    }
    if (!SectionChecksumOk(info.checksum, resident, start, file->count_ * 4, reader)) {
      return CorruptSection("label section");
    }
  }
  return file;
}

StatusOr<std::unique_ptr<IndexFile>> IndexFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::NotFound("cannot open " + path);
  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    ::close(fd);
    return Status::IoError("cannot stat " + path);
  }
  const std::uint64_t file_size = static_cast<std::uint64_t>(end);

  // Two-phase open: read the fixed header region (base header plus the
  // possible extension header) to learn the resident region's size, then read
  // exactly that region. The data section is never slurped — it is served
  // page-at-a-time through ReadPage.
  std::string header(kIndexHeaderBytes + kIndexExtHeaderBytes, '\0');
  const std::size_t header_bytes =
      std::min<std::uint64_t>(file_size, header.size());
  ssize_t got = ::pread(fd, header.data(), header_bytes, 0);
  if (got < 0 || static_cast<std::size_t>(got) != header_bytes) {
    ::close(fd);
    return Status::IoError("short read on " + path + " header");
  }
  StatusOr<HeaderInfo> info =
      ParseHeader(header.data(), header_bytes, file_size);
  if (!info.ok()) {
    ::close(fd);
    return info.status();
  }

  std::string resident(static_cast<std::size_t>(info->resident_end), '\0');
  got = ::pread(fd, resident.data(), resident.size(), 0);
  if (got < 0 || static_cast<std::size_t>(got) != resident.size()) {
    ::close(fd);
    return Status::IoError("short read on " + path + " resident region");
  }
  StatusOr<std::unique_ptr<IndexFile>> file =
      ParseResident(resident, file_size);
  if (!file.ok()) {
    ::close(fd);
    return file.status();
  }
  (*file)->fd_ = fd;
  (*file)->path_ = path;
  return file;
}

StatusOr<std::unique_ptr<IndexFile>> IndexFile::FromMemory(std::string bytes) {
  StatusOr<std::unique_ptr<IndexFile>> file =
      ParseResident(bytes, bytes.size());
  if (!file.ok()) return file.status();
  (*file)->memory_ = std::move(bytes);
  return file;
}

IndexFile::~IndexFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status IndexFile::ReadPage(std::size_t page, char* out) const {
  if (page >= data_pages_) {
    return Status::OutOfRange("page " + std::to_string(page) +
                              " out of range; index has " +
                              std::to_string(data_pages_) + " data pages");
  }
  const std::uint64_t offset =
      data_offset_ + static_cast<std::uint64_t>(page) * page_size_;
  if (fd_ >= 0) {
    std::size_t done = 0;
    while (done < page_size_) {
      const ssize_t got =
          ::pread(fd_, out + done, page_size_ - done,
                  static_cast<off_t>(offset + done));
      if (got < 0) {
        if (errno == EINTR) continue;
        return Status::IoError("pread failed on " + path_ + " page " +
                               std::to_string(page));
      }
      if (got == 0) {
        return Status(StatusCode::kTruncated,
                      "file ends inside data page " + std::to_string(page));
      }
      done += static_cast<std::size_t>(got);
    }
  } else {
    if (offset + page_size_ > memory_.size()) {
      return Status(StatusCode::kTruncated,
                    "image ends inside data page " + std::to_string(page));
    }
    std::memcpy(out, memory_.data() + offset, page_size_);
  }
  if (checksum_(out, page_size_) != page_checksums_[page]) {
    return Status(StatusCode::kCorruptHeader,
                  "data page " + std::to_string(page) +
                      " checksum mismatch (bit rot or torn write)");
  }
  return Status::Ok();
}

}  // namespace rotind::storage

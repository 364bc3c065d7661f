/// RIDX on-disk format: write/read roundtrip fidelity (bytes, signatures,
/// labels), the header/section corruption taxonomy, and the two regression
/// cases the fuzzer found interesting enough to pin — a corrupted catalog
/// section and a data-page checksum mismatch, which must surface as Status
/// from the exact layer that detects them. The writer emits version 3
/// without the RI section only; versions 1 and 2 and the RI section are
/// covered through images older writers produced
/// (tests/testing/legacy_ridx.h).

#include "src/storage/index_file.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "src/core/series.h"
#include "src/core/status.h"
#include "src/fourier/spectral.h"
#include "src/index/index_io.h"
#include "src/envelope/paa.h"
#include "src/io/bytes.h"
#include "src/search/engine.h"
#include "src/storage/backend.h"
#include "src/storage/manifest.h"
#include "tests/testing/legacy_ridx.h"

namespace rotind::storage {
namespace {

std::string TempPath(const char* tag) {
  return "/tmp/rotind_format_test." + std::to_string(::getpid()) + "." + tag +
         ".ridx";
}

Dataset MakeDataset(std::size_t count, std::size_t length) {
  Dataset ds;
  for (std::size_t i = 0; i < count; ++i) {
    Series s(length);
    for (std::size_t j = 0; j < length; ++j) {
      s[j] = 0.25 * static_cast<double>(i) -
             1.5 * static_cast<double>(j % 7) + 0.125;
    }
    ds.items.push_back(std::move(s));
    ds.labels.push_back(static_cast<int>(i % 3));
  }
  return ds;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Builds a small labelled index and returns its byte image.
std::string BuildImage(std::size_t count, std::size_t length,
                       std::size_t page_size) {
  const std::string path = TempPath("image");
  IndexBuildOptions build;
  build.sig_dims = 4;
  build.paa_dims = 4;
  build.page_size_bytes = page_size;
  const Status s = BuildIndexFile(MakeDataset(count, length), build, path);
  EXPECT_TRUE(s.ok()) << s.message();
  std::string image = ReadAll(path);
  std::remove(path.c_str());
  return image;
}

TEST(StorageFormatTest, RoundtripPreservesBytesSignaturesAndLabels) {
  const Dataset ds = MakeDataset(7, 40);
  const std::string path = TempPath("roundtrip");
  IndexBuildOptions build;
  build.sig_dims = 8;
  build.paa_dims = 5;
  build.page_size_bytes = 128;  // 40 doubles = 320 bytes: extents straddle
  ASSERT_TRUE(BuildIndexFile(ds, build, path).ok());

  auto file = IndexFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().message();
  EXPECT_EQ((*file)->num_objects(), 7u);
  EXPECT_EQ((*file)->series_length(), 40u);
  EXPECT_EQ((*file)->sig_dims(), 8u);
  EXPECT_EQ((*file)->paa_dims(), 5u);
  ASSERT_TRUE((*file)->has_labels());
  EXPECT_EQ((*file)->labels(), ds.labels);

  // Resident signatures are exactly what the kernels produce.
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const auto sig = MakeSpectralSignature(ds.items[i], 8);
    const auto paa = PaaTransform(ds.items[i], 5);
    for (std::size_t d = 0; d < 8; ++d) {
      EXPECT_EQ((*file)->spectral_signatures()[i * 8 + d], sig.values[d]);
    }
    for (std::size_t d = 0; d < 5; ++d) {
      EXPECT_EQ((*file)->paa_summaries()[i * 5 + d], paa.values[d]);
    }
  }

  // Paged data section returns bit-identical series through the backend.
  auto backend = FileBackend::FromIndex(*std::move(file), 2,
                                        EvictionPolicy::kLru);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    FetchStats io;
    auto h = backend->TryFetch(i, &io);
    ASSERT_TRUE(h.ok()) << h.status().message();
    ASSERT_EQ(h->length(), 40u);
    for (std::size_t j = 0; j < 40; ++j) {
      EXPECT_EQ(h->data()[j], ds.items[i][j]) << "object " << i;
    }
  }
  EXPECT_TRUE(backend->error().ok());
}

TEST(StorageFormatTest, FromMemoryParsesTheSameImage) {
  const std::string image = BuildImage(5, 24, 64);
  auto file = IndexFile::FromMemory(image);
  ASSERT_TRUE(file.ok()) << file.status().message();
  EXPECT_EQ((*file)->num_objects(), 5u);
  EXPECT_EQ((*file)->series_length(), 24u);
}

TEST(StorageFormatTest, CorruptionTaxonomy) {
  const std::string image = BuildImage(5, 24, 64);

  {
    std::string bad = image;
    bad[0] = 'X';
    EXPECT_EQ(IndexFile::FromMemory(bad).status().code(),
              StatusCode::kBadMagic);
  }
  // The version field is checked before the header checksum; only
  // versions 1 to 3 are known.
  for (const char version : {'\x00', '\x04', '\x63'}) {
    std::string bad = image;
    bad[4] = version;
    const auto parsed = IndexFile::FromMemory(bad);
    EXPECT_EQ(parsed.status().code(), StatusCode::kVersionMismatch);
    EXPECT_NE(parsed.status().message().find("versions 1 through 3"),
              std::string::npos)
        << parsed.status().message();
  }
  {
    // Any header field flip past the version trips the header checksum.
    std::string bad = image;
    bad[16] = static_cast<char>(bad[16] ^ 0x01);  // count field
    EXPECT_EQ(IndexFile::FromMemory(bad).status().code(),
              StatusCode::kCorruptHeader);
  }
  {
    // Truncations anywhere must be kTruncated or another error — never a
    // success over missing bytes, never a crash.
    for (const std::size_t cut : {0u, 3u, 8u, 63u, 64u, 200u}) {
      if (cut >= image.size()) continue;
      const auto parsed = IndexFile::FromMemory(image.substr(0, cut));
      EXPECT_FALSE(parsed.ok()) << "cut at " << cut;
    }
    // Cutting inside the data section specifically reports truncation.
    const auto short_data =
        IndexFile::FromMemory(image.substr(0, image.size() - 1));
    EXPECT_EQ(short_data.status().code(), StatusCode::kTruncated);
  }
}

/// Regression: a flipped byte inside the catalog section must fail the
/// catalog checksum at parse time — before any extent is trusted.
TEST(StorageFormatTest, CorruptedCatalogSectionIsRejectedAtParse) {
  const std::string image = BuildImage(5, 24, 64);
  std::string bad = image;
  // The writer emits version 3, which always has the extension header:
  // the catalog starts after both 64-byte headers.
  const std::size_t catalog = kIndexHeaderBytes + kIndexExtHeaderBytes;
  bad[catalog + 3] = static_cast<char>(bad[catalog + 3] ^ 0x40);
  const auto parsed = IndexFile::FromMemory(bad);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruptHeader);
  EXPECT_NE(parsed.status().message().find("catalog"), std::string::npos)
      << parsed.status().message();
}

/// Regression: bit rot inside a data page parses fine (pages are verified
/// lazily) but the first read of that page must fail its checksum, and the
/// failure must surface through every fetch layer — ReadPage, TryFetch,
/// and the unchecked Fetch's latched error().
TEST(StorageFormatTest, DataPageChecksumMismatchSurfacesOnRead) {
  const std::string image = BuildImage(5, 24, 64);
  auto clean = IndexFile::FromMemory(image);
  ASSERT_TRUE(clean.ok());
  const std::size_t page_size = (*clean)->page_size_bytes();
  const std::size_t num_pages = (*clean)->num_pages();
  // The strict total-size check means the data section is exactly the
  // image's tail.
  const std::size_t data_start = image.size() - num_pages * page_size;

  std::string bad = image;
  bad[data_start + 5] = static_cast<char>(bad[data_start + 5] ^ 0x10);
  auto file = IndexFile::FromMemory(bad);
  ASSERT_TRUE(file.ok()) << "data pages are verified on read, not parse";

  std::vector<char> buf(page_size);
  const Status read = (*file)->ReadPage(0, buf.data());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.code(), StatusCode::kCorruptHeader);
  EXPECT_NE(read.message().find("checksum mismatch"), std::string::npos);

  auto backend = FileBackend::FromIndex(*std::move(file), 2,
                                        EvictionPolicy::kLru);
  FetchStats io;
  const auto fetched = backend->TryFetch(0, &io);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kCorruptHeader);

  // Unchecked fetch path: invalid handle + latched error.
  EXPECT_TRUE(backend->error().ok());
  const SeriesHandle h = backend->Fetch(0, &io, nullptr);
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(backend->error().ok());
}

TEST(StorageFormatTest, WriterValidatesShapesAndPageSize) {
  const Dataset ds = MakeDataset(3, 16);
  const std::string path = TempPath("invalid");

  IndexBuildOptions tiny_pages;
  tiny_pages.page_size_bytes = 32;  // below kMinPageSize
  EXPECT_EQ(BuildIndexFile(ds, tiny_pages, path).code(),
            StatusCode::kInvalidArgument);

  IndexBuildOptions sig_too_wide;
  sig_too_wide.sig_dims = 9;  // only n/2 = 8 spectral coefficients exist
  EXPECT_EQ(BuildIndexFile(ds, sig_too_wide, path).code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(BuildIndexFile(Dataset{}, IndexBuildOptions{}, path).code(),
            StatusCode::kInvalidArgument);

  Dataset ragged = ds;
  ragged.items[1].pop_back();
  EXPECT_EQ(BuildIndexFile(ragged, IndexBuildOptions{}, path).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

/// Overwrites the little-endian u64 at `off`.
void PatchU64(std::string& image, std::size_t off, std::uint64_t v) {
  std::memcpy(&image[off], &v, sizeof v);
}

/// The checksum function of `image`, chosen by its version field, so a
/// patched checksum is valid for whichever version the image has.
IndexChecksumFn ChecksumOf(const std::string& image) {
  std::uint32_t version = 0;
  std::memcpy(&version, image.data() + 4, sizeof version);
  return IndexChecksumFor(version);
}

/// Recomputes the base-header checksum after a deliberate field edit, so a
/// test exercises the semantic check behind the checksum rather than the
/// checksum itself.
void FixBaseHeaderChecksum(std::string& image) {
  PatchU64(image, kIndexHeaderBytes - 8,
           ChecksumOf(image)(image.data(), kIndexHeaderBytes - 8));
}

/// Same for the extension header (v2 and v3) at bytes [64, 128).
void FixExtHeaderChecksum(std::string& image) {
  PatchU64(image, kIndexHeaderBytes + kIndexExtHeaderBytes - 8,
           ChecksumOf(image)(image.data() + kIndexHeaderBytes,
                             kIndexExtHeaderBytes - 8));
}

/// The payload includes its checksum function, and only version 3 carries
/// the lane checksum, so the writer emits version 3: the extension header
/// is always present, and every checksum in the file is LaneChecksum64.
/// The RI section is never written: flag bit 1 is clear and the
/// extension header's ri_dims is 0.
TEST(StorageFormatTest, WriterWithoutRiSectionEmitsVersion3) {
  const std::string image = BuildImage(5, 24, 64);

  EXPECT_EQ(static_cast<unsigned char>(image[4]), kIndexVersion);
  EXPECT_EQ(kIndexVersion, 3u);
  std::uint64_t stored = 0;
  std::memcpy(&stored, &image[kIndexHeaderBytes - 8], sizeof stored);
  EXPECT_EQ(stored, LaneChecksum64(image.data(), kIndexHeaderBytes - 8));
  std::uint64_t flags = 0;
  std::memcpy(&flags, &image[48], sizeof flags);
  EXPECT_EQ(flags & kIndexFlagHasRiSig, 0u);
  std::uint64_t ri_dims = 1;
  std::memcpy(&ri_dims, &image[kIndexHeaderBytes], sizeof ri_dims);
  EXPECT_EQ(ri_dims, 0u);
  auto file = IndexFile::FromMemory(image);
  ASSERT_TRUE(file.ok()) << file.status().message();
  EXPECT_EQ((*file)->ri_dims(), 0u);

  // The resident region starts after both headers: a flip there must land
  // in the catalog.
  const std::size_t catalog = kIndexHeaderBytes + kIndexExtHeaderBytes;
  std::string bad = image;
  bad[catalog + 3] = static_cast<char>(bad[catalog + 3] ^ 0x40);
  const auto parsed = IndexFile::FromMemory(bad);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("catalog"), std::string::npos)
      << parsed.status().message();
}

/// A version-1 container (written by an older writer) has no extension
/// header: its resident region starts at byte 64, and a flip there must
/// land in the catalog, not in any extension header.
TEST(StorageFormatTest, V1ImageResidentRegionStartsAfterBaseHeader) {
  const std::string image = testing::LegacyRidxV1Image();
  ASSERT_EQ(static_cast<unsigned char>(image[4]), kIndexVersionV1);
  auto file = IndexFile::FromMemory(image);
  ASSERT_TRUE(file.ok()) << file.status().message();
  EXPECT_EQ((*file)->ri_dims(), 0u);

  std::string bad = image;
  bad[kIndexHeaderBytes + 3] =
      static_cast<char>(bad[kIndexHeaderBytes + 3] ^ 0x40);
  const auto parsed = IndexFile::FromMemory(bad);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("catalog"), std::string::npos)
      << parsed.status().message();
}

TEST(StorageFormatTest, ExtensionHeaderCorruptionTaxonomy) {
  const std::string image = BuildImage(5, 24, 64);
  ASSERT_EQ(static_cast<unsigned char>(image[4]), kIndexVersion);

  {
    // Any byte flip inside the extension header trips its checksum.
    std::string bad = image;
    bad[kIndexHeaderBytes] = static_cast<char>(bad[kIndexHeaderBytes] ^ 0x01);
    const auto parsed = IndexFile::FromMemory(bad);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruptHeader);
    EXPECT_NE(parsed.status().message().find("extension header checksum"),
              std::string::npos)
        << parsed.status().message();
  }
  {
    // A nonzero reserved byte is rejected even under a VALID checksum, so a
    // future version can assign the bytes meaning without v2 readers
    // silently accepting the result.
    std::string bad = image;
    bad[kIndexHeaderBytes + 8] = 1;
    FixExtHeaderChecksum(bad);
    const auto parsed = IndexFile::FromMemory(bad);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruptHeader);
    EXPECT_NE(parsed.status().message().find("reserved"), std::string::npos)
        << parsed.status().message();
  }
  {
    // The RI flag and ri_dims must agree: a legacy v3 file with the RI
    // section whose ri_dims reads zero, and a fresh file without it whose
    // ri_dims reads nonzero, are both internally inconsistent.
    std::string flag_without_dims = testing::LegacyRidxV3Image();
    PatchU64(flag_without_dims, kIndexHeaderBytes, 0);  // ri_dims field
    FixExtHeaderChecksum(flag_without_dims);
    std::string dims_without_flag = image;
    PatchU64(dims_without_flag, kIndexHeaderBytes, 4);
    FixExtHeaderChecksum(dims_without_flag);
    for (const std::string& bad : {flag_without_dims, dims_without_flag}) {
      const auto parsed = IndexFile::FromMemory(bad);
      ASSERT_FALSE(parsed.ok());
      EXPECT_EQ(parsed.status().code(), StatusCode::kCorruptHeader);
      EXPECT_NE(parsed.status().message().find("disagree"),
                std::string::npos)
          << parsed.status().message();
    }
  }
  {
    // Truncation inside the extension header is reported as such, naming
    // the file's own version: v3 for a fresh image, v2 for a legacy one.
    const struct {
      std::string image;
      const char* message;
    } cut[] = {{image, "file ends inside the v3 extension header"},
               {testing::LegacyRidxV2Image(),
                "file ends inside the v2 extension header"}};
    for (const auto& c : cut) {
      const auto parsed =
          IndexFile::FromMemory(c.image.substr(0, kIndexHeaderBytes + 40));
      ASSERT_FALSE(parsed.ok());
      EXPECT_EQ(parsed.status().code(), StatusCode::kTruncated);
      EXPECT_EQ(parsed.status().message(), c.message);
    }
  }
}

/// Flag bits are version-gated: a v1 header claiming the v2-only RI section
/// is exactly as corrupt as one claiming any other unknown bit, preserving
/// the pre-v2 reader's rejection behaviour bit-for-bit.
TEST(StorageFormatTest, V1HeaderWithRiFlagIsUnknownFlagCorruption) {
  std::string image = testing::LegacyRidxV1Image();
  ASSERT_EQ(static_cast<unsigned char>(image[4]), kIndexVersionV1);

  std::uint64_t flags = 0;
  std::memcpy(&flags, &image[48], sizeof flags);
  PatchU64(image, 48, flags | kIndexFlagHasRiSig);
  FixBaseHeaderChecksum(image);
  const auto parsed = IndexFile::FromMemory(image);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruptHeader);
  EXPECT_NE(parsed.status().message().find("unknown flag"), std::string::npos)
      << parsed.status().message();
}

/// The writer no longer emits the RI section, but a v2 or v3 file that
/// has one still gets it verified at open: the legacy images' sections
/// are checksummed with FNV-1a (v2) and the lane checksum (v3).
TEST(StorageFormatTest, RiSectionCorruptionIsDetected) {
  for (const std::string& image :
       {testing::LegacyRidxV2Image(), testing::LegacyRidxV3Image()}) {
    SCOPED_TRACE("version " + std::to_string(image[4]));
    auto clean = IndexFile::FromMemory(image);
    ASSERT_TRUE(clean.ok()) << clean.status().message();
    const IndexFile& f = **clean;
    ASSERT_GT(f.ri_dims(), 0u);

    // Walk the resident layout to the RI payload: headers, then catalog,
    // page-checksum table, FFT signatures, and PAA summaries, each
    // carrying a trailing u64 checksum.
    std::size_t off = kIndexHeaderBytes + kIndexExtHeaderBytes;
    off += f.num_objects() * 16 + 8;
    off += f.num_pages() * 8 + 8;
    off += f.num_objects() * f.sig_dims() * 8 + 8;
    off += f.num_objects() * f.paa_dims() * 8 + 8;
    const std::size_t payload = f.num_objects() * f.ri_dims() * 8;

    {
      // Bit rot inside the RI payload fails the section checksum at parse.
      std::string bad = image;
      bad[off + 3] = static_cast<char>(bad[off + 3] ^ 0x20);
      const auto parsed = IndexFile::FromMemory(bad);
      ASSERT_FALSE(parsed.ok());
      EXPECT_EQ(parsed.status().code(), StatusCode::kCorruptHeader);
      EXPECT_NE(parsed.status().message().find("RI signature section"),
                std::string::npos)
          << parsed.status().message();
    }
    {
      // A NaN row entry under a VALID section checksum is still rejected,
      // although nothing reads the rows: the reader's acceptance does not
      // depend on what a build does with a section.
      std::string bad = image;
      const double nan = std::numeric_limits<double>::quiet_NaN();
      std::memcpy(&bad[off], &nan, sizeof nan);
      PatchU64(bad, off + payload,
               ChecksumOf(bad)(bad.data() + off, payload));
      const auto parsed = IndexFile::FromMemory(bad);
      ASSERT_FALSE(parsed.ok());
      EXPECT_EQ(parsed.status().code(), StatusCode::kBadValue);
      EXPECT_NE(parsed.status().message().find("non-finite RI signature"),
                std::string::npos)
          << parsed.status().message();
    }
  }
}

/// Files this build can no longer write still open: the v1 and v2
/// images verify with FNV-1a, and the v3 image with the RI section
/// verifies with the lane checksum. Each keeps its resident sections,
/// pages back its rows bit for bit, and answers a k-NN query through
/// the vec-signature filter (reading the first columns of its FFT
/// section) exactly as an in-memory engine over the same rows does.
TEST(StorageFormatTest, LegacyV1ToV3ImagesOpenAndReturnTheirRows) {
  const Dataset rows = testing::LegacyRidxRows();
  const FlatDataset flat = FlatDataset::FromItems(rows.items);
  EngineOptions options;
  options.cascade.stages = {StageKind::kVecSignature, StageKind::kWedge};
  const QueryEngine reference(flat, options);
  const struct {
    std::string image;
    std::uint32_t version;
    std::size_t ri_dims;
  } legacy[] = {{testing::LegacyRidxV1Image(), kIndexVersionV1, 0},
                {testing::LegacyRidxV2Image(), kIndexVersionV2, 4},
                {testing::LegacyRidxV3Image(), kIndexVersion, 4}};
  for (const auto& old : legacy) {
    SCOPED_TRACE("version " + std::to_string(old.version));
    ASSERT_EQ(static_cast<unsigned char>(old.image[4]), old.version);
    std::uint64_t stored = 0;
    std::memcpy(&stored, &old.image[kIndexHeaderBytes - 8], sizeof stored);
    EXPECT_EQ(stored, IndexChecksumFor(old.version)(old.image.data(),
                                                    kIndexHeaderBytes - 8));

    const std::string path = TempPath("legacy");
    std::ofstream(path, std::ios::binary) << old.image;
    auto file = IndexFile::Open(path);
    ASSERT_TRUE(file.ok()) << file.status().message();
    EXPECT_EQ((*file)->num_objects(), rows.size());
    EXPECT_EQ((*file)->series_length(), rows.length());
    EXPECT_EQ((*file)->sig_dims(), 4u);
    EXPECT_EQ((*file)->paa_dims(), 4u);
    EXPECT_EQ((*file)->ri_dims(), old.ri_dims);
    EXPECT_EQ((*file)->labels(), rows.labels);

    auto backend = FileBackend::FromIndex(*std::move(file), 2,
                                          EvictionPolicy::kLru);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      FetchStats io;
      auto h = backend->TryFetch(i, &io);
      ASSERT_TRUE(h.ok()) << h.status().message();
      ASSERT_EQ(h->length(), rows.length());
      EXPECT_EQ(std::memcmp(h->data(), rows.items[i].data(),
                            rows.length() * sizeof(double)),
                0)
          << "row " << i;
    }

    EngineOptions file_options = options;
    file_options.storage.backend = BackendKind::kFile;
    file_options.storage.index_path = path;
    const auto engine = QueryEngine::Open(file_options);
    std::remove(path.c_str());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (std::size_t q = 0; q < rows.size(); ++q) {
      const auto got = (*engine)->KnnChecked(rows.items[q], 3);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const std::vector<Neighbor> want = reference.Knn(rows.items[q], 3);
      ASSERT_EQ(got->size(), want.size());
      for (std::size_t r = 0; r < want.size(); ++r) {
        EXPECT_EQ((*got)[r].index, want[r].index) << "query " << q;
        EXPECT_EQ((*got)[r].distance, want[r].distance) << "query " << q;
      }
    }
  }
}

/// Every page is still verified, whatever the version: one flipped byte in
/// a data page of a v1, v2 or v3 file (the legacy v3 with the RI section
/// and a fresh one without) fails ReadPage, TryFetch and a checked k-NN
/// query with kCorruptHeader. Each row fills one 64-byte page, and the
/// flip hits the LAST byte of the last page, which the lane checksum
/// reads in its final lane.
TEST(StorageFormatTest, FlippedDataByteFailsEveryReadPathInEachVersion) {
  const Dataset rows = testing::LegacyRidxRows();
  const std::string v3_path = TempPath("v3flip");
  IndexBuildOptions build;
  build.sig_dims = 4;
  build.paa_dims = 4;
  build.page_size_bytes = 64;
  ASSERT_TRUE(BuildIndexFile(rows, build, v3_path).ok());
  const std::string images[] = {
      testing::LegacyRidxV1Image(), testing::LegacyRidxV2Image(),
      testing::LegacyRidxV3Image(), ReadAll(v3_path)};
  std::remove(v3_path.c_str());

  for (const std::string& image : images) {
    SCOPED_TRACE("version " + std::to_string(image[4]));
    const std::size_t last_page = rows.size() - 1;  // one row per page
    std::string bad = image;
    bad.back() = static_cast<char>(bad.back() ^ 0x01);

    auto file = IndexFile::FromMemory(bad);
    ASSERT_TRUE(file.ok()) << "data pages are verified on read, not parse";
    std::vector<char> page((*file)->page_size_bytes());
    const Status read = (*file)->ReadPage(last_page, page.data());
    EXPECT_EQ(read.code(), StatusCode::kCorruptHeader);
    EXPECT_NE(read.message().find("checksum mismatch"), std::string::npos)
        << read.message();
    EXPECT_TRUE((*file)->ReadPage(0, page.data()).ok());

    auto backend = FileBackend::FromIndex(*std::move(file), 2,
                                          EvictionPolicy::kLru);
    FetchStats io;
    EXPECT_EQ(backend->TryFetch(last_page, &io).status().code(),
              StatusCode::kCorruptHeader);

    const std::string path = TempPath("flip");
    std::ofstream(path, std::ios::binary) << bad;
    EngineOptions options;
    options.storage.backend = BackendKind::kFile;
    options.storage.index_path = path;
    const auto engine = QueryEngine::Open(options);
    std::remove(path.c_str());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const auto knn = (*engine)->KnnChecked(rows.items[0], 4);
    EXPECT_EQ(knn.status().code(), StatusCode::kCorruptHeader)
        << knn.status().ToString();
  }
}

/// kFsync changes when the writer returns, not what it writes.
TEST(StorageFormatTest, FsyncBuildIsByteIdenticalToFlushBuild) {
  const Dataset ds = MakeDataset(7, 40);
  IndexBuildOptions build;
  build.page_size_bytes = 128;
  const std::string flushed = TempPath("flush");
  const std::string synced = TempPath("fsync");
  ASSERT_TRUE(BuildIndexFile(ds, build, flushed).ok());
  ASSERT_TRUE(
      BuildIndexFile(ds, build, synced, WriteDurability::kFsync).ok());
  EXPECT_EQ(ReadAll(flushed), ReadAll(synced));
  EXPECT_TRUE(IndexFile::Open(synced).ok());
  std::remove(flushed.c_str());
  std::remove(synced.c_str());
}

TEST(StorageFormatTest, OpenMissingFileIsNotFound) {
  const auto file = IndexFile::Open("/nonexistent/rotind.ridx");
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kNotFound);
}

/// The shard-set manifest (RMAN) rides on the same corruption-taxonomy
/// discipline as the RIDX format it points at: a torn or bit-flipped
/// manifest is a TYPED refusal, and the atomic-rename publication protocol
/// means a crash mid-swap leaves the previous generation byte-for-byte
/// loadable. (manifest_test.cc holds the exhaustive taxonomy; this is the
/// storage-format-level contract check.)
TEST(StorageFormatTest, ManifestSharesTheCorruptionTaxonomy) {
  Manifest m;
  m.generation = 3;
  m.shards.push_back(ManifestShard{"shard-0.ridx", 4, 8});
  m.shards.push_back(ManifestShard{"shard-1.ridx", 2, 8});
  const StatusOr<std::string> image = SerializeManifest(m);
  ASSERT_TRUE(image.ok());

  {  // Torn mid-header: kTruncated, same verdict family as RIDX.
    const auto parsed = ParseManifest(image->data(), 10);
    EXPECT_EQ(parsed.status().code(), StatusCode::kTruncated);
  }
  {  // RIDX magic in a manifest slot: kBadMagic, not a parse attempt.
    std::string bad = *image;
    std::memcpy(bad.data(), "RIDX", 4);
    const auto parsed = ParseManifest(bad.data(), bad.size());
    EXPECT_EQ(parsed.status().code(), StatusCode::kBadMagic);
  }
  {  // Body bit-flip: caught by the body checksum as kCorruptHeader.
    std::string bad = *image;
    bad[bad.size() - 12] = static_cast<char>(bad[bad.size() - 12] ^ 0x40);
    const auto parsed = ParseManifest(bad.data(), bad.size());
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruptHeader);
  }

  // Crash-mid-swap: generation 4's torn temp write must not disturb the
  // published generation 3 image.
  const std::string path = "/tmp/rotind_format_manifest." +
                           std::to_string(::getpid()) + ".rman";
  ASSERT_TRUE(WriteManifest(m, path).ok());
  Manifest next = m;
  next.generation = 4;
  EXPECT_EQ(WriteManifest(next, path, ManifestWriteFault::kTornTempWrite)
                .code(),
            StatusCode::kIoError);
  const StatusOr<Manifest> survivor = LoadManifest(path);
  ASSERT_TRUE(survivor.ok());
  EXPECT_EQ(survivor->generation, 3u);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

}  // namespace
}  // namespace rotind::storage

#ifndef ROTIND_TESTS_TESTING_LEGACY_RIDX_H_
#define ROTIND_TESTS_TESTING_LEGACY_RIDX_H_

#include <string>

#include "src/core/series.h"

namespace rotind {
namespace testing {

/// RIDX images written by older writers, kept byte for byte so that every
/// later build is tested against files it can no longer write: versions
/// 1 and 2 from the last writer that emitted them (commit dd97f8c), and a
/// version-3 file with the RI section from the last writer that wrote one
/// (commit 175dcf0). All hold the rows of LegacyRidxRows() and were
/// written with `BuildIndexFile(LegacyRidxRows(), options, path)`, where
/// `options` has sig_dims = 4, paa_dims = 4 and page_size_bytes = 64,
/// plus ri_dims = 0 for the v1 image and ri_dims = 4 for the v2 and v3
/// images. The v1 and v2 images use byte-wise FNV-1a for every checksum,
/// the v3 image the lane checksum.

/// The 4 labelled rows of length 8 that every image stores:
/// row i, sample j is 0.125 * ((3i + 5j + i*j*j) mod 13) - 0.75 (exact in
/// binary), and row i's label is i % 2.
Dataset LegacyRidxRows();

/// Version 1: 64-byte header, no extension header, no RI section; 768
/// bytes, the last 4 pages of which are the data section.
std::string LegacyRidxV1Image();

/// Version 2: base and extension headers, 4-wide RI section; 960 bytes,
/// the last 4 pages of which are the data section.
std::string LegacyRidxV2Image();

/// Version 3: base and extension headers, 4-wide RI section (flag bit 1);
/// 960 bytes, the last 4 pages of which are the data section.
std::string LegacyRidxV3Image();

}  // namespace testing
}  // namespace rotind

#endif  // ROTIND_TESTS_TESTING_LEGACY_RIDX_H_

#ifndef ROTIND_TESTS_TESTING_LEGACY_RIDX_H_
#define ROTIND_TESTS_TESTING_LEGACY_RIDX_H_

#include <string>

#include "src/core/series.h"

namespace rotind {
namespace testing {

/// RIDX images written by the last writer that emitted versions 1 and 2
/// (commit dd97f8c), kept byte for byte so that every later build is
/// tested against files it can no longer write. Both hold the rows of
/// LegacyRidxRows() and were written with
/// `BuildIndexFile(LegacyRidxRows(), options, path)`, where `options` has
/// sig_dims = 4, paa_dims = 4 and page_size_bytes = 64, plus ri_dims = 0
/// for the v1 image and ri_dims = 4 for the v2 image. Both use byte-wise
/// FNV-1a for every checksum.

/// The 4 labelled rows of length 8 that both images store:
/// row i, sample j is 0.125 * ((3i + 5j + i*j*j) mod 13) - 0.75 (exact in
/// binary), and row i's label is i % 2.
Dataset LegacyRidxRows();

/// Version 1: 64-byte header, no extension header, no RI section; 768
/// bytes, the last 4 pages of which are the data section.
std::string LegacyRidxV1Image();

/// Version 2: base and extension headers, 4-wide RI section; 960 bytes,
/// the last 4 pages of which are the data section.
std::string LegacyRidxV2Image();

}  // namespace testing
}  // namespace rotind

#endif  // ROTIND_TESTS_TESTING_LEGACY_RIDX_H_

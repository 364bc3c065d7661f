#ifndef ROTIND_IO_SERIALIZE_H_
#define ROTIND_IO_SERIALIZE_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "src/core/series.h"
#include "src/core/status.h"

namespace rotind {

/// Dataset persistence. Two formats:
///
///  * Binary: a compact versioned container (magic "RIND", version,
///    counts, raw doubles). Fast; intended for caches and tools.
///  * UCR text: the de-facto standard exchange format of the UCR time
///    series archive — one series per line, class label first, values
///    separated by commas (or whitespace). Loading this format means the
///    paper's REAL datasets (Face, Yoga, ...) can be used with this
///    library wherever the synthetic stand-ins appear; see DESIGN.md.
///
/// Loaders are a TRUST BOUNDARY: file contents are untrusted input. Every
/// structural defect maps to a distinct StatusCode (see src/core/status.h
/// and the "Error handling contract" section of DESIGN.md):
///
///   kNotFound         file missing / unreadable
///   kBadMagic         not a RIND container
///   kVersionMismatch  container version this build cannot read
///   kTruncated        file ends before the sections its header promises
///   kCorruptHeader    count/length/name-length fields absurd for the
///                     observed file size (incl. length==0 with count>0)
///   kBadValue         NaN or +/-Inf payload values
///   kRaggedRow        UCR rows of differing lengths
///   kParseError       UCR field that is not a number
///   kEmptyDataset     no series in the file
///
/// Allocation safety: header counts are validated against the actual file
/// size BEFORE any allocation, so a malicious 64-byte file cannot request a
/// multi-GB resize.

[[nodiscard]]
Status SaveDatasetBinaryStatus(const Dataset& dataset, const std::string& path);
[[nodiscard]]
StatusOr<Dataset> LoadDatasetBinaryStatus(const std::string& path);

/// Writes "label,v1,v2,...\n" per item (label 0 when the dataset is
/// unlabelled).
[[nodiscard]]
Status SaveDatasetUcrStatus(const Dataset& dataset, const std::string& path,
                            char delimiter = ',');

/// Reads a UCR-format file. Lines may be comma-, space- or tab-separated;
/// the first field is the integer class label. Requires every series to
/// have the same length.
[[nodiscard]] StatusOr<Dataset> LoadDatasetUcrStatus(const std::string& path);

/// Reads `path` once and parses whichever format its bytes hold: a binary
/// container when they start with the "RIND" magic, UCR text otherwise.
/// The one loader for files of either format; as it never reopens or seeks,
/// a pipe (`--db <(cat db.csv)`) loads like a regular file.
[[nodiscard]] StatusOr<Dataset> LoadDatasetStatus(const std::string& path);

/// In-memory parsers behind the file loaders. These are the fuzzing entry
/// points (tools/rotind_fuzz_load.cc) and what the fault-injection tests
/// drive directly; they never touch the filesystem.
[[nodiscard]]
StatusOr<Dataset> ParseDatasetBinary(const char* data, std::size_t size);
[[nodiscard]] StatusOr<Dataset> ParseDatasetUcr(std::string_view text);

/// Legacy boolean API, kept for call sites that only need a yes/no (the
/// detailed Status is discarded). Prefer the Status-returning functions.
bool SaveDatasetBinary(const Dataset& dataset, const std::string& path);
bool LoadDatasetBinary(const std::string& path, Dataset* out);
bool SaveDatasetUcr(const Dataset& dataset, const std::string& path,
                    char delimiter = ',');
bool LoadDatasetUcr(const std::string& path, Dataset* out);

}  // namespace rotind

#endif  // ROTIND_IO_SERIALIZE_H_

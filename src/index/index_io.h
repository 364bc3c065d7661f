#ifndef ROTIND_INDEX_INDEX_IO_H_
#define ROTIND_INDEX_INDEX_IO_H_

#include <cstddef>
#include <string>

#include "src/core/series.h"
#include "src/core/status.h"
#include "src/storage/index_file.h"

namespace rotind {

/// Build-time parameters for a paged RIDX index file. Both signature
/// families are written by default so one file serves the Euclidean path
/// (FFT magnitudes, Table 7, whose first columns also feed the
/// vec-signature filter) and the DTW path (PAA summaries, refs [16][37]);
/// set a dims field to 0 to omit that section.
struct IndexBuildOptions {
  std::size_t sig_dims = 16;   ///< FFT magnitude signature dimensionality.
  std::size_t paa_dims = 16;   ///< PAA summary dimensionality.
  std::size_t page_size_bytes = 4096;
};

/// Computes the resident signature sections for every series in `db` (FFT
/// magnitudes via MakeSpectralSignature, PAA summaries via PaaTransform)
/// and writes the paged index container to `path` via
/// storage::WriteIndexFile. Labels are carried over when `db` has them.
///
/// Validates what the signature kernels would otherwise silently clamp:
/// empty or ragged datasets, objects shorter than 2 samples, and sig_dims
/// beyond the n/2 spectral coefficients that exist all fail with
/// kInvalidArgument. I/O failures surface the writer's kIoError.
/// `durability` is the writer's: pass kFsync for a file a manifest is
/// about to name (see storage::WriteIndexFile).
[[nodiscard]] Status BuildIndexFile(
    const Dataset& db, const IndexBuildOptions& options,
    const std::string& path,
    WriteDurability durability = WriteDurability::kFlush);

}  // namespace rotind

#endif  // ROTIND_INDEX_INDEX_IO_H_

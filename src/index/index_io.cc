#include "src/index/index_io.h"

#include <string>
#include <vector>

#include "src/fourier/spectral.h"
#include "src/envelope/paa.h"
#include "src/storage/index_file.h"

namespace rotind {

Status BuildIndexFile(const Dataset& db, const IndexBuildOptions& options,
                      const std::string& path, WriteDurability durability) {
  if (db.empty()) {
    return Status::InvalidArgument("cannot build an index of 0 objects");
  }
  const std::size_t n = db.items[0].size();
  for (std::size_t i = 1; i < db.size(); ++i) {
    if (db.items[i].size() != n) {
      return Status::InvalidArgument(
          "database is ragged: object " + std::to_string(i) + " has length " +
          std::to_string(db.items[i].size()) + ", expected " +
          std::to_string(n));
    }
  }
  if (n < 2) {
    return Status::InvalidArgument("objects must have length >= 2, got " +
                                   std::to_string(n));
  }
  if (options.sig_dims > n / 2) {
    return Status::InvalidArgument(
        "sig_dims " + std::to_string(options.sig_dims) + " exceeds the " +
        std::to_string(n / 2) + " spectral coefficients of length-" +
        std::to_string(n) + " objects");
  }
  if (options.paa_dims > n) {
    return Status::InvalidArgument(
        "paa_dims " + std::to_string(options.paa_dims) +
        " exceeds the object length " + std::to_string(n));
  }
  if (!db.labels.empty() && db.labels.size() != db.size()) {
    return Status::InvalidArgument(
        "labels/items mismatch: " + std::to_string(db.labels.size()) +
        " labels for " + std::to_string(db.size()) + " objects");
  }

  storage::IndexBuildData extras;
  extras.sig_dims = options.sig_dims;
  extras.paa_dims = options.paa_dims;
  extras.labels = db.labels;
  extras.signatures.reserve(db.size() * options.sig_dims);
  extras.paa.reserve(db.size() * options.paa_dims);
  for (const Series& s : db.items) {
    if (options.sig_dims > 0) {
      const SpectralSignature sig = MakeSpectralSignature(s, options.sig_dims);
      extras.signatures.insert(extras.signatures.end(), sig.values.begin(),
                               sig.values.end());
    }
    if (options.paa_dims > 0) {
      const PaaPoint paa = PaaTransform(s, options.paa_dims);
      extras.paa.insert(extras.paa.end(), paa.values.begin(),
                        paa.values.end());
    }
  }
  return storage::WriteIndexFile(db, extras, options.page_size_bytes, path,
                                 durability);
}

}  // namespace rotind

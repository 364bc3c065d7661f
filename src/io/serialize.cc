#include "src/io/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/io/bytes.h"

namespace rotind {
namespace {

constexpr char kMagic[4] = {'R', 'I', 'N', 'D'};
constexpr std::uint32_t kVersion = 1;
/// Fixed-size binary header: magic, version, count, length, two flag bytes.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 1 + 1;
/// Per-item name strings longer than this are considered corrupt.
constexpr std::uint32_t kMaxNameBytes = 1u << 20;

void WriteString(std::ostream& out, const std::string& s) {
  WritePod(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

Status ValidateDatasetForSave(const Dataset& dataset) {
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    if (dataset.items[i].size() != dataset.length()) {
      return Status::InvalidArgument(
          "dataset is ragged: item " + std::to_string(i) + " has length " +
          std::to_string(dataset.items[i].size()) + ", expected " +
          std::to_string(dataset.length()));
    }
    for (double v : dataset.items[i]) {
      if (!std::isfinite(v)) {
        return Status(StatusCode::kBadValue,
                      "item " + std::to_string(i) +
                          " contains a non-finite value; refusing to save");
      }
    }
  }
  return Status::Ok();
}

/// Quote an untrusted token for an error message: cap the length and
/// escape non-printable bytes, so a corrupt file cannot inject megabytes
/// of binary garbage into the Status (and thence a terminal or log).
std::string QuoteForError(const std::string& token) {
  constexpr std::size_t kMaxEcho = 40;
  std::string quoted = "'";
  const std::size_t n = std::min(token.size(), kMaxEcho);
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char c = static_cast<unsigned char>(token[i]);
    if (c >= 0x20 && c < 0x7F) {
      quoted += static_cast<char>(c);
    } else {
      char hex[5];
      std::snprintf(hex, sizeof(hex), "\\x%02X", c);
      quoted += hex;
    }
  }
  quoted += '\'';
  if (token.size() > kMaxEcho) {
    quoted += " (truncated, " + std::to_string(token.size()) + " bytes)";
  }
  return quoted;
}

/// strtod over exactly one token; fails unless the whole token parses.
bool ParseDouble(const std::string& token, double* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

}  // namespace

Status SaveDatasetBinaryStatus(const Dataset& dataset,
                               const std::string& path) {
  Status valid = ValidateDatasetForSave(dataset);
  if (!valid.ok()) return valid;
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, kVersion);
  WritePod(out, static_cast<std::uint64_t>(dataset.size()));
  WritePod(out, static_cast<std::uint64_t>(dataset.length()));
  const std::uint8_t has_labels = dataset.labels.empty() ? 0 : 1;
  const std::uint8_t has_names = dataset.names.empty() ? 0 : 1;
  WritePod(out, has_labels);
  WritePod(out, has_names);
  for (const Series& s : dataset.items) {
    out.write(reinterpret_cast<const char*>(s.data()),
              static_cast<std::streamsize>(s.size() * sizeof(double)));
  }
  if (has_labels != 0) {
    for (int label : dataset.labels) {
      WritePod(out, static_cast<std::int32_t>(label));
    }
  }
  if (has_names != 0) {
    for (const std::string& name : dataset.names) WriteString(out, name);
  }
  if (!out) return Status::IoError("write failed on " + path);
  return Status::Ok();
}

StatusOr<Dataset> ParseDatasetBinary(const char* data, std::size_t size) {
  BufferReader reader(data, size);

  char magic[4];
  if (!reader.ReadBytes(magic, sizeof(magic))) {
    return Status(StatusCode::kTruncated, "file too small to hold the magic");
  }
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status(StatusCode::kBadMagic, "file does not start with 'RIND'");
  }
  std::uint32_t version = 0;
  if (!reader.Read(&version)) {
    return Status(StatusCode::kTruncated, "file ends inside the version field");
  }
  if (version != kVersion) {
    return Status(StatusCode::kVersionMismatch,
                  "container version " + std::to_string(version) +
                      "; this build reads version " + std::to_string(kVersion));
  }
  std::uint64_t count = 0;
  std::uint64_t length = 0;
  std::uint8_t has_labels = 0;
  std::uint8_t has_names = 0;
  if (!reader.Read(&count) || !reader.Read(&length) ||
      !reader.Read(&has_labels) || !reader.Read(&has_names)) {
    return Status(StatusCode::kTruncated, "file ends inside the header");
  }
  if (has_labels > 1 || has_names > 1) {
    return Status(StatusCode::kCorruptHeader,
                  "flag bytes must be 0 or 1");
  }
  if (count == 0) {
    return Status(StatusCode::kEmptyDataset, "container holds zero series");
  }
  if (length == 0) {
    return Status(StatusCode::kCorruptHeader,
                  "zero series length with nonzero count");
  }

  // Sanity caps derived from the ACTUAL file size, checked BEFORE any
  // allocation. A header that no file of this size could satisfy — more
  // rows/elements than remaining bytes, or count*length overflowing — is
  // corrupt outright; a plausible header whose payload merely falls short
  // is a truncation.
  const std::uint64_t remaining = reader.remaining();
  if (length > remaining / sizeof(double)) {
    return Status(StatusCode::kCorruptHeader,
                  "series length " + std::to_string(length) +
                      " cannot fit in a file with " +
                      std::to_string(remaining) + " payload bytes");
  }
  if (count > remaining / sizeof(double)) {
    return Status(StatusCode::kCorruptHeader,
                  "series count " + std::to_string(count) +
                      " cannot fit in a file with " +
                      std::to_string(remaining) + " payload bytes");
  }
  // count, length <= remaining/8 makes count*length*8 overflow-free for any
  // real file (remaining < 2^61), but guard explicitly for completeness.
  if (count != 0 && length > UINT64_MAX / (count * sizeof(double))) {
    return Status(StatusCode::kCorruptHeader, "count*length overflows");
  }
  const std::uint64_t payload_bytes = count * length * sizeof(double);
  if (payload_bytes > remaining) {
    return Status(StatusCode::kTruncated,
                  "payload needs " + std::to_string(payload_bytes) +
                      " bytes but only " + std::to_string(remaining) +
                      " remain");
  }

  Dataset ds;
  ds.items.resize(static_cast<std::size_t>(count),
                  Series(static_cast<std::size_t>(length)));
  for (std::size_t i = 0; i < ds.items.size(); ++i) {
    Series& s = ds.items[i];
    reader.ReadBytes(s.data(), s.size() * sizeof(double));  // proven to fit
    for (std::size_t j = 0; j < s.size(); ++j) {
      if (!std::isfinite(s[j])) {
        return Status(StatusCode::kBadValue,
                      "series " + std::to_string(i) + " value " +
                          std::to_string(j) + " is NaN or Inf");
      }
    }
  }
  if (has_labels != 0) {
    ds.labels.resize(static_cast<std::size_t>(count));
    for (int& label : ds.labels) {
      std::int32_t v = 0;
      if (!reader.Read(&v)) {
        return Status(StatusCode::kTruncated,
                      "file ends inside the label section");
      }
      label = v;
    }
  }
  if (has_names != 0) {
    ds.names.resize(static_cast<std::size_t>(count));
    for (std::string& name : ds.names) {
      std::uint32_t name_len = 0;
      if (!reader.Read(&name_len)) {
        return Status(StatusCode::kTruncated,
                      "file ends inside the name section");
      }
      if (name_len > kMaxNameBytes) {
        return Status(StatusCode::kCorruptHeader,
                      "name length " + std::to_string(name_len) +
                          " exceeds the " + std::to_string(kMaxNameBytes) +
                          "-byte cap");
      }
      if (name_len > reader.remaining()) {
        return Status(StatusCode::kTruncated,
                      "file ends inside a name string");
      }
      name.resize(name_len);
      reader.ReadBytes(name.data(), name_len);
    }
  }
  if (reader.remaining() != 0) {
    return Status(StatusCode::kCorruptHeader,
                  std::to_string(reader.remaining()) +
                      " trailing bytes after the final section");
  }
  return ds;
}

StatusOr<Dataset> LoadDatasetBinaryStatus(const std::string& path) {
  StatusOr<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return ParseDatasetBinary(bytes->data(), bytes->size());
}

Status SaveDatasetUcrStatus(const Dataset& dataset, const std::string& path,
                            char delimiter) {
  Status valid = ValidateDatasetForSave(dataset);
  if (!valid.ok()) return valid;
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out.precision(17);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const int label = i < dataset.labels.size() ? dataset.labels[i] : 0;
    out << label;
    for (double v : dataset.items[i]) out << delimiter << v;
    out << '\n';
  }
  if (!out) return Status::IoError("write failed on " + path);
  return Status::Ok();
}

StatusOr<Dataset> ParseDatasetUcr(std::string_view text) {
  Dataset ds;
  std::size_t line_number = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string line(text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos));
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_number;

    // Normalise separators: commas, tabs, and stray CRs become spaces.
    for (char& c : line) {
      if (c == ',' || c == '\t' || c == '\r') c = ' ';
    }
    std::vector<std::string> tokens;
    std::istringstream fields(line);
    std::string token;
    while (fields >> token) tokens.push_back(std::move(token));
    if (tokens.empty()) continue;  // blank line (incl. trailing newline)

    const std::string where = "line " + std::to_string(line_number);
    double label = 0.0;
    if (!ParseDouble(tokens[0], &label)) {
      return Status(StatusCode::kParseError,
                    where + ": label " + QuoteForError(tokens[0]) +
                        " is not a number");
    }
    if (!std::isfinite(label)) {
      return Status(StatusCode::kBadValue, where + ": label is NaN or Inf");
    }
    if (label < static_cast<double>(INT32_MIN) ||
        label > static_cast<double>(INT32_MAX)) {
      return Status(StatusCode::kParseError,
                    where + ": label out of integer range");
    }
    if (tokens.size() < 2) {
      return Status(StatusCode::kParseError, where + ": no values after label");
    }
    Series s;
    s.reserve(tokens.size() - 1);
    for (std::size_t t = 1; t < tokens.size(); ++t) {
      double v = 0.0;
      if (!ParseDouble(tokens[t], &v)) {
        return Status(StatusCode::kParseError,
                      where + ": field " + QuoteForError(tokens[t]) +
                          " is not a number");
      }
      if (!std::isfinite(v)) {
        return Status(StatusCode::kBadValue,
                      where + ": value " + std::to_string(t) +
                          " is NaN or Inf");
      }
      s.push_back(v);
    }
    if (!ds.items.empty() && s.size() != ds.length()) {
      return Status(StatusCode::kRaggedRow,
                    where + ": row has " + std::to_string(s.size()) +
                        " values, expected " + std::to_string(ds.length()));
    }
    ds.items.push_back(std::move(s));
    ds.labels.push_back(static_cast<int>(label));
  }
  if (ds.items.empty()) {
    return Status(StatusCode::kEmptyDataset, "file holds zero series");
  }
  return ds;
}

StatusOr<Dataset> LoadDatasetUcrStatus(const std::string& path) {
  StatusOr<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return ParseDatasetUcr(*bytes);
}

StatusOr<Dataset> LoadDatasetStatus(const std::string& path) {
  StatusOr<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  if (bytes->size() >= sizeof(kMagic) &&
      std::memcmp(bytes->data(), kMagic, sizeof(kMagic)) == 0) {
    return ParseDatasetBinary(bytes->data(), bytes->size());
  }
  return ParseDatasetUcr(*bytes);
}

// ---------------------------------------------------------------------------
// Legacy boolean wrappers.

bool SaveDatasetBinary(const Dataset& dataset, const std::string& path) {
  return SaveDatasetBinaryStatus(dataset, path).ok();
}

bool LoadDatasetBinary(const std::string& path, Dataset* out) {
  if (out == nullptr) return false;
  StatusOr<Dataset> ds = LoadDatasetBinaryStatus(path);
  if (!ds.ok()) return false;
  *out = *std::move(ds);
  return true;
}

bool SaveDatasetUcr(const Dataset& dataset, const std::string& path,
                    char delimiter) {
  return SaveDatasetUcrStatus(dataset, path, delimiter).ok();
}

bool LoadDatasetUcr(const std::string& path, Dataset* out) {
  if (out == nullptr) return false;
  StatusOr<Dataset> ds = LoadDatasetUcrStatus(path);
  if (!ds.ok()) return false;
  *out = *std::move(ds);
  return true;
}

}  // namespace rotind

#include "src/storage/manifest.h"

#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "src/io/bytes.h"

namespace rotind::storage {
namespace {

/// Header field block checksummed by the header checksum: everything
/// before the checksum itself.
constexpr std::size_t kHeaderChecksummedBytes =
    kManifestHeaderBytes - sizeof(std::uint64_t);

Status Corrupt(const std::string& what) {
  return {StatusCode::kCorruptHeader, what};
}

Status Truncated(const std::string& what) {
  return {StatusCode::kTruncated, what};
}

/// Shard names must survive a round trip through "manifest directory +
/// name": non-empty, bounded, single path component, no NUL.
Status ValidateShardName(const std::string& name) {
  if (name.empty()) return Corrupt("empty shard file name");
  if (name.size() > kMaxShardNameBytes) {
    return Corrupt("shard file name longer than " +
                   std::to_string(kMaxShardNameBytes) + " bytes");
  }
  for (char c : name) {
    if (c == '\0' || c == '/') {
      return Corrupt("shard file name contains '/' or NUL");
    }
  }
  return Status::Ok();
}

Status ValidateManifest(const Manifest& m) {
  if (m.shards.size() > kMaxManifestShards) {
    return Corrupt("shard count " + std::to_string(m.shards.size()) +
                   " exceeds the " + std::to_string(kMaxManifestShards) +
                   " cap");
  }
  std::uint64_t total = 0;
  for (const ManifestShard& shard : m.shards) {
    Status name_ok = ValidateShardName(shard.file);
    if (!name_ok.ok()) return name_ok;
    if (shard.count == 0) return Corrupt("shard with zero series");
    if (shard.length == 0) return Corrupt("shard with zero series length");
    // Absurdity bound: keeps the total_count sum from wrapping u64 (which
    // would defeat the tombstone range check below).
    if (shard.count > (1ull << 40) || shard.length > (1ull << 40)) {
      return Corrupt("shard count/length field is absurdly large");
    }
    if (shard.length != m.shards.front().length) {
      return Corrupt("shards disagree on series length");
    }
    total += shard.count;
  }
  for (std::size_t i = 0; i < m.tombstones.size(); ++i) {
    if (m.tombstones[i] >= total) {
      return Corrupt("tombstone " + std::to_string(m.tombstones[i]) +
                     " outside the " + std::to_string(total) +
                     " shard rows");
    }
    if (i > 0 && m.tombstones[i] <= m.tombstones[i - 1]) {
      return Corrupt("tombstones not strictly ascending");
    }
  }
  return Status::Ok();
}

}  // namespace

std::uint64_t Manifest::total_count() const {
  std::uint64_t total = 0;
  for (const ManifestShard& shard : shards) total += shard.count;
  return total;
}

StatusOr<Manifest> ParseManifest(const char* data, std::size_t size) {
  BufferReader reader(data, size);
  char magic[4];
  if (!reader.ReadBytes(magic, sizeof magic)) {
    return Truncated("manifest shorter than its magic");
  }
  if (std::memcmp(magic, kManifestMagic, sizeof magic) != 0) {
    return Status(StatusCode::kBadMagic,
                  "file does not start with 'RMAN'");
  }
  std::uint32_t version = 0;
  std::uint64_t generation = 0;
  std::uint64_t shard_count = 0;
  std::uint64_t tombstone_count = 0;
  std::uint64_t header_checksum = 0;
  if (!reader.Read(&version) || !reader.Read(&generation) ||
      !reader.Read(&shard_count) || !reader.Read(&tombstone_count) ||
      !reader.Read(&header_checksum)) {
    return Truncated("manifest shorter than its header");
  }
  const std::uint64_t expected_header =
      Fnv1a64(data, kHeaderChecksummedBytes);
  if (header_checksum != expected_header) {
    return Corrupt("manifest header checksum mismatch");
  }
  if (version != kManifestVersion) {
    return Status(StatusCode::kVersionMismatch,
                  "manifest version " + std::to_string(version) +
                      "; this build reads version " +
                      std::to_string(kManifestVersion));
  }
  if (shard_count > kMaxManifestShards) {
    return Corrupt("shard count " + std::to_string(shard_count) +
                   " exceeds the " + std::to_string(kMaxManifestShards) +
                   " cap");
  }
  // Size-based absurdity bounds, BEFORE any count-driven allocation: every
  // shard entry costs at least 21 body bytes (name_len u32 + a 1-byte name
  // + count u64 + length u64) and every tombstone 8, so a count the file
  // cannot physically hold is rejected without reserving for it.
  constexpr std::uint64_t kMinShardEntryBytes = 21;
  if (shard_count > size / kMinShardEntryBytes) {
    return Corrupt("shard count " + std::to_string(shard_count) +
                   " cannot fit in a " + std::to_string(size) +
                   "-byte manifest");
  }
  if (tombstone_count > size / sizeof(std::uint64_t)) {
    return Corrupt("tombstone count " + std::to_string(tombstone_count) +
                   " cannot fit in a " + std::to_string(size) +
                   "-byte manifest");
  }

  Manifest manifest;
  manifest.generation = generation;
  manifest.shards.reserve(static_cast<std::size_t>(shard_count));
  const std::size_t body_begin = reader.position();
  for (std::uint64_t s = 0; s < shard_count; ++s) {
    std::uint32_t name_len = 0;
    if (!reader.Read(&name_len)) {
      return Truncated("manifest ends inside its shard table");
    }
    if (name_len == 0 || name_len > kMaxShardNameBytes) {
      return Corrupt("shard name length " + std::to_string(name_len) +
                     " outside [1, " + std::to_string(kMaxShardNameBytes) +
                     "]");
    }
    ManifestShard shard;
    shard.file.resize(name_len);
    if (!reader.ReadBytes(shard.file.data(), name_len) ||
        !reader.Read(&shard.count) || !reader.Read(&shard.length)) {
      return Truncated("manifest ends inside its shard table");
    }
    manifest.shards.push_back(std::move(shard));
  }
  manifest.tombstones.resize(static_cast<std::size_t>(tombstone_count));
  for (std::uint64_t& t : manifest.tombstones) {
    if (!reader.Read(&t)) {
      return Truncated("manifest ends inside its tombstone list");
    }
  }
  std::uint64_t body_checksum = 0;
  if (!reader.Read(&body_checksum)) {
    return Truncated("manifest ends before its body checksum");
  }
  const std::uint64_t expected_body =
      Fnv1a64(data + body_begin, reader.position() - sizeof(std::uint64_t) -
                                     body_begin);
  if (body_checksum != expected_body) {
    return Corrupt("manifest body checksum mismatch");
  }
  if (reader.remaining() != 0) {
    return Corrupt(std::to_string(reader.remaining()) +
                   " trailing bytes after the manifest body checksum");
  }
  Status valid = ValidateManifest(manifest);
  if (!valid.ok()) return valid;
  return manifest;
}

StatusOr<Manifest> LoadManifest(const std::string& path) {
  StatusOr<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return ParseManifest(bytes->data(), bytes->size());
}

StatusOr<std::string> SerializeManifest(const Manifest& manifest) {
  Status valid = ValidateManifest(manifest);
  if (!valid.ok()) return valid;
  std::ostringstream out;
  out.write(kManifestMagic, sizeof kManifestMagic);
  WritePod(out, kManifestVersion);
  WritePod(out, manifest.generation);
  WritePod(out, static_cast<std::uint64_t>(manifest.shards.size()));
  WritePod(out, static_cast<std::uint64_t>(manifest.tombstones.size()));
  std::string header = std::move(out).str();
  const std::uint64_t header_checksum =
      Fnv1a64(header.data(), header.size());

  std::ostringstream body;
  for (const ManifestShard& shard : manifest.shards) {
    WritePod(body, static_cast<std::uint32_t>(shard.file.size()));
    body.write(shard.file.data(),
               static_cast<std::streamsize>(shard.file.size()));
    WritePod(body, shard.count);
    WritePod(body, shard.length);
  }
  for (std::uint64_t t : manifest.tombstones) WritePod(body, t);
  std::string body_bytes = std::move(body).str();
  const std::uint64_t body_checksum =
      Fnv1a64(body_bytes.data(), body_bytes.size());

  std::string image = std::move(header);
  image.append(reinterpret_cast<const char*>(&header_checksum),
               sizeof header_checksum);
  image += body_bytes;
  image.append(reinterpret_cast<const char*>(&body_checksum),
               sizeof body_checksum);
  return image;
}

Status WriteManifest(const Manifest& manifest, const std::string& path,
                     ManifestWriteFault fault) {
  StatusOr<std::string> image = SerializeManifest(manifest);
  if (!image.ok()) return image.status();
  const std::string tmp = path + ".tmp";
  if (fault == ManifestWriteFault::kTornTempWrite) {
    // Simulated crash mid-write: half the image lands in the temp file,
    // the rename never runs. The previous manifest at `path` is untouched.
    const std::string torn = image->substr(0, image->size() / 2);
    Status write = WriteStringToFile(tmp, torn);
    if (!write.ok()) return write;
    return Status::IoError("injected crash: torn temp-file write of " + tmp);
  }
  // fsync'd BEFORE the rename: without it the rename could land on disk
  // ahead of the temp file's data after a power loss, publishing an empty
  // or torn manifest under the final name.
  Status write = WriteStringToFile(tmp, *image, WriteDurability::kFsync);
  if (!write.ok()) return write;
  if (fault == ManifestWriteFault::kCrashBeforeRename) {
    // Simulated crash between the complete temp write and the rename: the
    // new generation was never published.
    return Status::IoError("injected crash: " + tmp +
                           " written but never renamed over " + path);
  }
  // The atomic publication point. std::rename replaces `path` in one
  // filesystem operation, so a reader sees either the old or the new
  // manifest — never a prefix of the new one.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename " + tmp + " -> " + path + " failed");
  }
  // The rename is durable only once the directory entry is on stable
  // storage too.
  return SyncDirectory(DirOf(path));
}

}  // namespace rotind::storage

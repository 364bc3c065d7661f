/// ReadFileToString: whole files of any size, missing paths, and pipes.

#include "src/io/bytes.h"

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "tests/testing/fault_injection.h"
#include "tests/testing/fifo.h"

namespace rotind {
namespace {

/// `size` pseudo-random bytes, NULs and high bytes included.
std::string RandomBytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::string out(size, '\0');
  for (char& c : out) c = static_cast<char>(rng.NextBounded(256));
  return out;
}

/// A regular file is read whole, byte for byte, at every size around the
/// presized read: empty, one byte, one 4 KiB chunk, and 1 MiB plus a tail.
TEST(ReadFileToStringTest, ReadsRegularFilesOfEverySize) {
  const std::size_t sizes[] = {0, 1, 4096, (1u << 20) + 3};
  for (const std::size_t size : sizes) {
    const std::string content = RandomBytes(size, 7 + size);
    const std::string path =
        testing::WriteTempFile("rotind_read_file.bin", content);
    const StatusOr<std::string> read = ReadFileToString(path);
    std::remove(path.c_str());
    ASSERT_TRUE(read.ok()) << size << ": " << read.status().ToString();
    EXPECT_EQ(read->size(), size);
    EXPECT_TRUE(*read == content) << "size " << size;
  }
}

TEST(ReadFileToStringTest, MissingPathIsNotFound) {
  const std::string path = testing::WriteTempFile("rotind_missing.bin", "");
  std::remove(path.c_str());
  const StatusOr<std::string> read = ReadFileToString(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

/// A FIFO reports no size, so its bytes arrive through the chunked path;
/// 1 MiB + 3 spans many pipe buffers and is not a multiple of the chunk.
TEST(ReadFileToStringTest, ReadsAFifoToEof) {
  const std::string content = RandomBytes((1u << 20) + 3, 11);
  const StatusOr<std::string> read =
      testing::ReadThroughFifo(content, ReadFileToString);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->size(), content.size());
  EXPECT_TRUE(*read == content);
}

}  // namespace
}  // namespace rotind

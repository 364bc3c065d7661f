/// The integrity checksums of src/io/bytes: known answers that pin both
/// functions (each is part of a file format, so a changed value orphans
/// every file written with it), and the flip, same-lane and torn-page
/// properties LaneChecksum64 must have over one 4 KiB data page.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/io/bytes.h"

namespace rotind {
namespace {

constexpr std::size_t kPage = 4096;

/// A fixed, non-periodic byte pattern: byte i is
/// ((131 i + 7) >> 1) ^ (i >> 8), truncated to 8 bits.
std::vector<unsigned char> Pattern(std::size_t n) {
  std::vector<unsigned char> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<unsigned char>(((i * 131 + 7) >> 1) ^ (i >> 8));
  }
  return bytes;
}

TEST(ChecksumTest, Fnv1a64MatchesTheReferenceVectors) {
  EXPECT_EQ(Fnv1a64("", 0), kFnv1aOffset);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar", 6), 0x85944171f73967e8ull);
  EXPECT_EQ(Fnv1a64Seeded("bar", 3, Fnv1a64("foo", 3)),
            Fnv1a64("foobar", 6));
}

/// Values from an independent implementation of the definition in
/// bytes.h. The lengths cover an empty input, a tail only (1, 63), one
/// whole stride (64), a stride plus a tail byte (65) and a data page.
TEST(ChecksumTest, LaneChecksum64KnownAnswers) {
  const struct {
    std::size_t n;
    std::uint64_t want;
  } cases[] = {
      {0, 0x2a30e338b1c834d0ull},    {1, 0x2f5f9ebdf83a9ec5ull},
      {63, 0x82e4c68116dcd47bull},   {64, 0x0fd3dc25f17ceb75ull},
      {65, 0x955b84666268a0e0ull},   {kPage, 0xc4639bf711c85b7aull},
  };
  for (const auto& c : cases) {
    const std::vector<unsigned char> bytes = Pattern(c.n);
    EXPECT_EQ(LaneChecksum64(bytes.data(), c.n), c.want) << c.n << " bytes";
  }
}

TEST(ChecksumTest, EverySingleBitFlipOfAPageChangesTheChecksum) {
  std::vector<unsigned char> page = Pattern(kPage);
  const std::uint64_t clean = LaneChecksum64(page.data(), kPage);
  int missed = 0;
  for (std::size_t bit = 0; bit < kPage * 8; ++bit) {
    const auto mask = static_cast<unsigned char>(1u << (bit % 8));
    page[bit / 8] ^= mask;
    if (LaneChecksum64(page.data(), kPage) == clean) ++missed;
    page[bit / 8] ^= mask;
  }
  EXPECT_EQ(missed, 0);
}

/// Two flips of the same bit in two words that one lane reads. Without the
/// shift-xor mix, flips of bit 63 cancel: the multiply cannot carry a
/// top-bit difference down, so the two lane states would coincide.
TEST(ChecksumTest, SameBitFlipsInTwoWordsOfOneLaneChangeTheChecksum) {
  constexpr std::size_t kWords = kPage / 8;
  std::vector<unsigned char> page = Pattern(kPage);
  const std::uint64_t clean = LaneChecksum64(page.data(), kPage);
  const auto flip = [&](std::size_t word, int bit) {
    page[word * 8 + static_cast<std::size_t>(bit / 8)] ^=
        static_cast<unsigned char>(1u << (bit % 8));
  };
  int missed = 0;
  for (int bit = 0; bit < 64; ++bit) {
    for (std::size_t lane = 0; lane < 8; ++lane) {
      for (std::size_t other = lane + 8; other < kWords; other += 8) {
        flip(lane, bit);
        flip(other, bit);
        if (LaneChecksum64(page.data(), kPage) == clean) ++missed;
        flip(lane, bit);
        flip(other, bit);
      }
    }
  }
  EXPECT_EQ(missed, 0);
}

/// A torn write: the first half of one page's new contents over the second
/// half of its old contents. The result must match neither version.
TEST(ChecksumTest, TornPageChangesTheChecksum) {
  const std::vector<unsigned char> pattern = Pattern(4 * kPage);
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = 0; b < 4; ++b) {
      if (a == b) continue;
      const unsigned char* first = pattern.data() + a * kPage;
      const unsigned char* second = pattern.data() + b * kPage;
      std::vector<unsigned char> torn(first, first + kPage / 2);
      torn.insert(torn.end(), second + kPage / 2, second + kPage);
      const std::uint64_t sum = LaneChecksum64(torn.data(), kPage);
      EXPECT_NE(sum, LaneChecksum64(first, kPage)) << a << "/" << b;
      EXPECT_NE(sum, LaneChecksum64(second, kPage)) << a << "/" << b;
    }
  }
}

}  // namespace
}  // namespace rotind

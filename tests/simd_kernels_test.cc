/// Bit-parity property tests for the SIMD kernel layer: every kernel in
/// the AVX2 tier must return BIT-IDENTICAL results (values, abandonment
/// points, step counts) to its scalar reference on the same inputs — the
/// exactness contract documented in src/simd/simd.h. Sweeps odd lengths,
/// tails (n mod 8 != 0), reversed (mirror) series, and rotation offsets.
/// On machines without AVX2 the parity tests degenerate to scalar-vs-scalar
/// and pass trivially; the dispatch tests always run.

#include "src/simd/simd.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/core/series.h"

namespace rotind {
namespace simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bit-level equality: distinguishes +0.0 from -0.0, which EXPECT_EQ on
/// doubles does not. The min/max tie-breaking rules are exactly about this.
::testing::AssertionResult BitEqual(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " (0x" << std::hex << std::bit_cast<std::uint64_t>(a)
         << ") != " << std::dec << b << " (0x" << std::hex
         << std::bit_cast<std::uint64_t>(b) << ")";
}

/// Lengths chosen to hit every tail residue mod 8 (and mod 4 for the
/// 4-wide kernels), plus the paper's shape length 251.
const std::size_t kLengths[] = {1,  2,  3,  4,  5,  7,  8,   9,
                                15, 16, 17, 31, 33, 64, 100, 251};

std::vector<double> RandomSeries(Rng* rng, std::size_t n, double scale) {
  std::vector<double> s(n);
  for (double& v : s) v = rng->Gaussian(0.0, scale);
  return s;
}

std::vector<double> Reversed(const std::vector<double>& s) {
  return std::vector<double>(s.rbegin(), s.rend());
}

TEST(SimdDispatchTest, ScalarTierAlwaysAvailable) {
  EXPECT_TRUE(TierAvailable(Tier::kScalar));
  EXPECT_STREQ(TierName(Tier::kScalar), "scalar");
  EXPECT_STREQ(TierName(Tier::kAvx2), "avx2");
}

TEST(SimdDispatchTest, ActiveTierIsAvailableAndNamed) {
  const Tier tier = ActiveTier();
  EXPECT_TRUE(TierAvailable(tier));
  EXPECT_STREQ(ActiveTierName(), TierName(tier));
  const std::string name = ActiveTierName();
  EXPECT_TRUE(name == "scalar" || name == "avx2") << name;
}

TEST(SimdDispatchTest, TablesAreFullyPopulated) {
  for (Tier tier : {Tier::kScalar, Tier::kAvx2}) {
    const KernelTable& k = KernelsFor(tier);
    EXPECT_NE(k.lb_keogh_sq, nullptr);
    EXPECT_NE(k.ed_block_full, nullptr);
    EXPECT_NE(k.env_merge, nullptr);
    EXPECT_NE(k.env_merge_series, nullptr);
    EXPECT_NE(k.dtw_row, nullptr);
  }
}

TEST(SimdDispatchTest, UnavailableTierDegradesToScalar) {
  if (TierAvailable(Tier::kAvx2)) {
    GTEST_SKIP() << "AVX2 available; nothing to degrade";
  }
  EXPECT_EQ(&KernelsFor(Tier::kAvx2), &KernelsFor(Tier::kScalar));
}

class SimdParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!TierAvailable(Tier::kAvx2)) {
      GTEST_SKIP() << "no AVX2 on this machine; scalar-vs-scalar parity is "
                      "vacuous";
    }
  }
  const KernelTable& scalar_ = KernelsFor(Tier::kScalar);
  const KernelTable& avx2_ = KernelsFor(Tier::kAvx2);
};

/// LB_Keogh: value, abandonment decision, AND abandonment index must all
/// match, across limits from "never abandons" to "abandons immediately"
/// (including the negative-limit edge where the scalar loop abandons after
/// the first, possibly zero, term).
TEST_F(SimdParityTest, LbKeoghMatchesBitForBit) {
  Rng rng(101);
  for (std::size_t n : kLengths) {
    const std::vector<double> s = RandomSeries(&rng, n, 1.0);
    const std::vector<double> a = RandomSeries(&rng, n, 1.0);
    const std::vector<double> b = RandomSeries(&rng, n, 1.0);
    std::vector<double> upper(n);
    std::vector<double> lower(n);
    for (std::size_t i = 0; i < n; ++i) {
      upper[i] = std::max(a[i], b[i]);
      lower[i] = std::min(a[i], b[i]);
    }
    // A wide envelope exercises the all-inside fast path; a collapsed one
    // (upper == lower) makes nearly every point contribute.
    for (double widen : {0.0, 0.5}) {
      std::vector<double> u = upper;
      std::vector<double> l = lower;
      for (std::size_t i = 0; i < n; ++i) {
        u[i] += widen;
        l[i] -= widen;
      }
      std::size_t ref_examined = 0;
      const double full =
          scalar_.lb_keogh_sq(s.data(), u.data(), l.data(), n, kInf,
                              &ref_examined);
      ASSERT_EQ(ref_examined, n);
      for (double limit : {kInf, full * 1.5, full, full * 0.5, full * 0.1,
                           0.0, -1.0}) {
        std::size_t se = 0;
        std::size_t ve = 0;
        const double sr = scalar_.lb_keogh_sq(s.data(), u.data(), l.data(),
                                              n, limit, &se);
        const double vr = avx2_.lb_keogh_sq(s.data(), u.data(), l.data(), n,
                                            limit, &ve);
        EXPECT_TRUE(BitEqual(sr, vr)) << "n=" << n << " limit=" << limit;
        EXPECT_EQ(se, ve) << "n=" << n << " limit=" << limit;
      }
    }
  }
}

/// LB_Keogh over rotations of a series and of its mirror (reversed) view —
/// the inputs the wedge cascade feeds it.
TEST_F(SimdParityTest, LbKeoghMatchesOnRotationsAndMirrors) {
  Rng rng(103);
  const std::size_t n = 37;
  const Series base = RandomSeries(&rng, n, 1.0);
  const Series items[] = {base, Reversed(base)};
  std::vector<double> upper(n);
  std::vector<double> lower(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.Gaussian(0.0, 1.0);
    const double b = rng.Gaussian(0.0, 1.0);
    upper[i] = std::max(a, b);
    lower[i] = std::min(a, b);
  }
  for (std::size_t item : {0u, 1u}) {
    for (std::size_t shift = 0; shift < n; shift += 5) {
      const Series rotated = RotateLeft(items[item], static_cast<long>(shift));
      const double* rot = rotated.data();
      for (double limit : {kInf, 1.0, 0.05}) {
        std::size_t se = 0;
        std::size_t ve = 0;
        const double sr = scalar_.lb_keogh_sq(rot, upper.data(),
                                              lower.data(), n, limit, &se);
        const double vr = avx2_.lb_keogh_sq(rot, upper.data(), lower.data(),
                                            n, limit, &ve);
        EXPECT_TRUE(BitEqual(sr, vr))
            << "item=" << item << " shift=" << shift << " limit=" << limit;
        EXPECT_EQ(se, ve)
            << "item=" << item << " shift=" << shift << " limit=" << limit;
      }
    }
  }
}

/// Builds an SoA tile (kBlockLanes candidates, possibly fewer valid — the
/// rest zero-padded) the way FlatDataset::CopyTile lays them out.
std::vector<double> MakeTile(Rng* rng, std::size_t n, std::size_t valid) {
  std::vector<double> tile(n * kBlockLanes, 0.0);
  for (std::size_t l = 0; l < valid; ++l) {
    for (std::size_t t = 0; t < n; ++t) {
      tile[t * kBlockLanes + l] = rng->Gaussian(0.0, 1.0);
    }
  }
  return tile;
}

TEST_F(SimdParityTest, EdBlockFullMatchesBitForBit) {
  Rng rng(107);
  for (std::size_t n : kLengths) {
    for (std::size_t valid : {std::size_t{1}, std::size_t{3}, kBlockLanes}) {
      const std::vector<double> q = RandomSeries(&rng, n, 1.0);
      const std::vector<double> tile = MakeTile(&rng, n, valid);
      double ss[kBlockLanes];
      double vs[kBlockLanes];
      scalar_.ed_block_full(q.data(), tile.data(), n, ss);
      avx2_.ed_block_full(q.data(), tile.data(), n, vs);
      for (std::size_t l = 0; l < kBlockLanes; ++l) {
        EXPECT_TRUE(BitEqual(ss[l], vs[l]))
            << "n=" << n << " valid=" << valid << " lane=" << l;
      }
      // Independent reference: the per-candidate time-order sum the lanes
      // must reproduce exactly.
      for (std::size_t l = 0; l < kBlockLanes; ++l) {
        double acc = 0.0;
        for (std::size_t t = 0; t < n; ++t) {
          const double d = q[t] - tile[t * kBlockLanes + l];
          acc += d * d;
        }
        EXPECT_TRUE(BitEqual(ss[l], acc)) << "n=" << n << " lane=" << l;
      }
    }
  }
}

/// Envelope merges, including the ±0.0 ties where vmaxpd/vminpd operand
/// order is the whole story: std::max(a, b) returns a on ties, and the
/// AVX2 kernel must reproduce that bit pattern.
TEST_F(SimdParityTest, EnvelopeMergeMatchesBitForBit) {
  Rng rng(113);
  for (std::size_t n : kLengths) {
    std::vector<double> s_upper = RandomSeries(&rng, n, 1.0);
    std::vector<double> s_lower(n);
    for (std::size_t i = 0; i < n; ++i) s_lower[i] = s_upper[i] - 0.5;
    std::vector<double> other_upper = RandomSeries(&rng, n, 1.0);
    std::vector<double> other_lower(n);
    for (std::size_t i = 0; i < n; ++i) {
      other_lower[i] = other_upper[i] - 0.5;
    }
    // Seed signed-zero ties and exact-equal ties at every residue mod 4.
    for (std::size_t i = 0; i < n; ++i) {
      switch (i % 4) {
        case 0: s_upper[i] = +0.0; other_upper[i] = -0.0; break;
        case 1: s_upper[i] = -0.0; other_upper[i] = +0.0; break;
        case 2: other_lower[i] = s_lower[i]; break;
        default: break;
      }
    }
    std::vector<double> su = s_upper;
    std::vector<double> sl = s_lower;
    std::vector<double> vu = s_upper;
    std::vector<double> vl = s_lower;
    scalar_.env_merge(su.data(), sl.data(), other_upper.data(),
                      other_lower.data(), n);
    avx2_.env_merge(vu.data(), vl.data(), other_upper.data(),
                    other_lower.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(BitEqual(su[i], vu[i])) << "n=" << n << " upper[" << i
                                          << "]";
      EXPECT_TRUE(BitEqual(sl[i], vl[i])) << "n=" << n << " lower[" << i
                                          << "]";
    }
  }
}

TEST_F(SimdParityTest, EnvelopeMergeSeriesMatchesBitForBit) {
  Rng rng(127);
  for (std::size_t n : kLengths) {
    std::vector<double> upper = RandomSeries(&rng, n, 1.0);
    std::vector<double> lower(n);
    for (std::size_t i = 0; i < n; ++i) lower[i] = upper[i] - 1.0;
    std::vector<double> s = RandomSeries(&rng, n, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 3 == 0) s[i] = upper[i];          // exact tie with upper
      if (i % 5 == 0) { s[i] = -0.0; upper[i] = +0.0; }  // signed-zero tie
    }
    std::vector<double> su = upper;
    std::vector<double> sl = lower;
    std::vector<double> vu = upper;
    std::vector<double> vl = lower;
    scalar_.env_merge_series(su.data(), sl.data(), s.data(), n);
    avx2_.env_merge_series(vu.data(), vl.data(), s.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(BitEqual(su[i], vu[i])) << "n=" << n << " upper[" << i
                                          << "]";
      EXPECT_TRUE(BitEqual(sl[i], vl[i])) << "n=" << n << " lower[" << i
                                          << "]";
    }
  }
}

/// DTW band row: curr[] cells inside the band and the returned row minimum
/// must match across full rows, narrow bands, and band edges touching the
/// row ends — with the out-of-band +inf cells the caller prefills.
TEST_F(SimdParityTest, DtwRowMatchesBitForBit) {
  Rng rng(131);
  for (std::size_t n : kLengths) {
    const std::vector<double> c = RandomSeries(&rng, n, 1.0);
    std::vector<double> prev(n, kInf);
    // A plausible previous row: finite inside some band, +inf outside.
    const std::size_t p_lo = n >= 5 ? 1 : 0;
    const std::size_t p_hi = n - 1 - (n >= 7 ? 1 : 0);
    for (std::size_t j = p_lo; j <= p_hi; ++j) {
      prev[j] = std::abs(rng.Gaussian(1.0, 0.5));
    }
    const double qi = rng.Gaussian(0.0, 1.0);
    std::vector<std::pair<std::size_t, std::size_t>> bands = {{0, n - 1}};
    if (n >= 3) bands.push_back({1, n - 2});
    if (n >= 9) bands.push_back({3, 7});
    for (const auto& [j_lo, j_hi] : bands) {
      std::vector<double> s_curr(n, kInf);
      std::vector<double> v_curr(n, kInf);
      std::vector<double> scratch(n, 0.0);
      const double sr = scalar_.dtw_row(qi, c.data(), prev.data(),
                                        s_curr.data(), j_lo, j_hi,
                                        scratch.data());
      const double vr = avx2_.dtw_row(qi, c.data(), prev.data(),
                                      v_curr.data(), j_lo, j_hi,
                                      scratch.data());
      EXPECT_TRUE(BitEqual(sr, vr)) << "n=" << n << " band=[" << j_lo << ","
                                    << j_hi << "]";
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_TRUE(BitEqual(s_curr[j], v_curr[j]))
            << "n=" << n << " band=[" << j_lo << "," << j_hi << "] j=" << j;
      }
    }
  }
}

}  // namespace
}  // namespace simd
}  // namespace rotind

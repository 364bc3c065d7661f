#include "src/fourier/spectral.h"

#include <cmath>
#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/distance/rotation.h"

namespace rotind {
namespace {

Series RandomZNormSeries(Rng* rng, std::size_t n) {
  Series s(n);
  for (double& v : s) v = rng->Gaussian(0.0, 1.0);
  ZNormalize(&s);
  return s;
}

TEST(SpectralTest, SignatureDims) {
  Rng rng(1);
  const Series s = RandomZNormSeries(&rng, 64);
  EXPECT_EQ(MakeSpectralSignature(s, 8).dims(), 8u);
  // Clamped to n/2.
  EXPECT_EQ(MakeSpectralSignature(s, 999).dims(), 32u);
}

TEST(SpectralTest, SignatureInvariantToRotation) {
  Rng rng(2);
  for (std::size_t n : {40u, 251u}) {
    const Series s = RandomZNormSeries(&rng, n);
    const SpectralSignature base = MakeSpectralSignature(s, 16);
    for (long shift : {3L, 11L, static_cast<long>(n - 1)}) {
      const SpectralSignature rot =
          MakeSpectralSignature(RotateLeft(s, shift), 16);
      EXPECT_NEAR(SignatureDistance(base, rot), 0.0, 1e-7);
    }
  }
}

TEST(SpectralTest, SignatureInvariantToMirror) {
  // Reversal preserves magnitudes too, so the bound also covers the
  // enantiomorphic candidates.
  Rng rng(3);
  const Series s = RandomZNormSeries(&rng, 48);
  const SpectralSignature a = MakeSpectralSignature(s, 12);
  const SpectralSignature b = MakeSpectralSignature(Reversed(s), 12);
  EXPECT_NEAR(SignatureDistance(a, b), 0.0, 1e-8);
}

/// The exactness-critical property (paper Section 4.2): signature distance
/// lower-bounds the rotation-invariant Euclidean distance, at every
/// dimensionality.
class SpectralLowerBoundTest : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(SpectralLowerBoundTest, LowerBoundsRotationInvariantEuclidean) {
  const std::size_t dims = GetParam();
  Rng rng(dims * 17 + 5);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 16 + rng.NextBounded(100);
    const Series q = RandomZNormSeries(&rng, n);
    const Series c = RandomZNormSeries(&rng, n);
    const SpectralSignature sq = MakeSpectralSignature(q, dims);
    const SpectralSignature sc = MakeSpectralSignature(c, dims);
    const double lb = SignatureDistance(sq, sc);
    const double red = RotationInvariantEuclidean(q, c);
    EXPECT_LE(lb, red + 1e-7) << "n=" << n << " dims=" << dims;

    // Mirror invariance: the same bound must hold for mirrored matching.
    RotationOptions mirror;
    mirror.mirror = true;
    EXPECT_LE(lb, RotationInvariantEuclidean(q, c, mirror) + 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, SpectralLowerBoundTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 512));

TEST(SpectralTest, MoreDimsTightenTheBound) {
  Rng rng(4);
  const std::size_t n = 128;
  const Series q = RandomZNormSeries(&rng, n);
  const Series c = RandomZNormSeries(&rng, n);
  double prev = 0.0;
  for (std::size_t dims : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    const double lb = SignatureDistance(MakeSpectralSignature(q, dims),
                                        MakeSpectralSignature(c, dims));
    EXPECT_GE(lb, prev - 1e-9) << "dims=" << dims;
    prev = lb;
  }
}

TEST(SpectralTest, TriangleInequalityOnSignatures) {
  // Needed for VP-tree pruning: signature space must be a metric space.
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 32;
    const SpectralSignature a =
        MakeSpectralSignature(RandomZNormSeries(&rng, n), 8);
    const SpectralSignature b =
        MakeSpectralSignature(RandomZNormSeries(&rng, n), 8);
    const SpectralSignature c =
        MakeSpectralSignature(RandomZNormSeries(&rng, n), 8);
    EXPECT_LE(SignatureDistance(a, c),
              SignatureDistance(a, b) + SignatureDistance(b, c) + 1e-9);
    EXPECT_NEAR(SignatureDistance(a, b), SignatureDistance(b, a), 1e-12);
  }
}

TEST(SpectralTest, FftStepCostModel) {
  EXPECT_EQ(FftStepCost(1), 1u);
  EXPECT_EQ(FftStepCost(1024), 1024u * 10);
  // n log2 n rounded for non-powers of two.
  EXPECT_EQ(FftStepCost(251),
            static_cast<std::uint64_t>(std::llround(251 * std::log2(251.0))));
}

TEST(SpectralTest, CounterChargesDims) {
  Rng rng(6);
  const SpectralSignature a =
      MakeSpectralSignature(RandomZNormSeries(&rng, 64), 16);
  StepCounter counter;
  SignatureDistance(a, a, &counter);
  EXPECT_EQ(counter.steps, 16u);
}

/// Regression: SignatureDistance over signatures of differing dims used to
/// read past the shorter vector's heap buffer under NDEBUG (the assert
/// compiled away). The mismatch is now a hard error on every build type.
TEST(SpectralRegressionTest, SignatureDistanceDiesOnDimsMismatch) {
  Rng rng(7);
  const Series s = RandomZNormSeries(&rng, 64);
  const SpectralSignature a = MakeSpectralSignature(s, 8);
  const SpectralSignature b = MakeSpectralSignature(s, 4);
  EXPECT_DEATH(SignatureDistance(a, b), "dims mismatch");
}

TEST(SpectralRegressionTest, SignatureDistanceCheckedRejectsMismatch) {
  Rng rng(8);
  const Series s = RandomZNormSeries(&rng, 64);
  const SpectralSignature a = MakeSpectralSignature(s, 8);
  const SpectralSignature b = MakeSpectralSignature(s, 4);
  const StatusOr<double> bad = SignatureDistanceChecked(a, b);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  StepCounter counter;
  const StatusOr<double> good = SignatureDistanceChecked(a, a, &counter);
  ASSERT_TRUE(good.ok());
  EXPECT_NEAR(*good, 0.0, 1e-12);
  EXPECT_EQ(counter.steps, 8u);
}

/// Regression: MakeSpectralSignature silently clamps dims to n/2, so a
/// caller asking for 999 dims on a length-64 series got a 32-dim signature
/// with no signal. The checked factory surfaces the clamp as an error.
TEST(SpectralRegressionTest, CheckedFactoryRejectsTheSilentClamp) {
  Rng rng(9);
  const Series s = RandomZNormSeries(&rng, 64);
  const StatusOr<SpectralSignature> clamped =
      MakeSpectralSignatureChecked(s, 33);
  ASSERT_FALSE(clamped.ok());
  EXPECT_EQ(clamped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(clamped.status().message().find("clamp"), std::string::npos);

  const StatusOr<SpectralSignature> tiny =
      MakeSpectralSignatureChecked(Series{1.0}, 1);
  EXPECT_FALSE(tiny.ok());

  const StatusOr<SpectralSignature> ok = MakeSpectralSignatureChecked(s, 32);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->dims(), 32u);
  // Agrees with the unchecked path when no clamp fires.
  const SpectralSignature direct = MakeSpectralSignature(s, 32);
  ASSERT_EQ(direct.dims(), ok->dims());
  for (std::size_t i = 0; i < direct.dims(); ++i) {
    EXPECT_EQ(ok->values[i], direct.values[i]);
  }
}

/// The kVecSignature filter and the RIDX FFT section rest on this: a
/// D-wide signature is the first D values of the n/2-wide one, bit for
/// bit, so a filter at width d may read the first d columns of stored
/// rows of any width >= d and get the doubles it would embed itself. Odd
/// and even n, the Nyquist bin and the single-bin n = 2 and n = 3
/// included.
TEST(SpectralTest, NarrowSignatureIsABitExactPrefix) {
  const auto bits = [](double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
  };
  Rng rng(14);
  for (const std::size_t n : {2u, 3u, 48u, 127u, 128u, 251u}) {
    for (int trial = 0; trial < 4; ++trial) {
      const Series s = RandomZNormSeries(&rng, n);
      const SpectralSignature full = MakeSpectralSignature(s, n / 2);
      for (std::size_t d = 1; d <= n / 2; ++d) {
        const SpectralSignature prefix = MakeSpectralSignature(s, d);
        ASSERT_EQ(prefix.dims(), d);
        for (std::size_t i = 0; i < d; ++i) {
          ASSERT_EQ(bits(prefix.values[i]), bits(full.values[i]))
              << "n=" << n << " d=" << d << " bin " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace rotind

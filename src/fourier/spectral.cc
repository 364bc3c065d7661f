#include "src/fourier/spectral.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/fourier/fft.h"

namespace rotind {

SpectralSignature MakeSpectralSignature(const Series& s, std::size_t dims) {
  const std::size_t n = s.size();
  assert(n >= 2);
  dims = std::min(dims, n / 2);  // documented clamp; Checked variant errors
  const std::vector<Complex> spectrum = FftReal(s);

  SpectralSignature sig;
  sig.values.resize(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    const std::size_t k = d + 1;  // skip DC (zero for z-normalised input)
    // Conjugate pair k and n-k both appear in Parseval's sum; the Nyquist
    // bin (k == n/2 for even n) has no distinct pair.
    const double weight = (2 * k == n) ? 1.0 : 2.0;
    sig.values[d] =
        std::abs(spectrum[k]) * std::sqrt(weight / static_cast<double>(n));
  }
  return sig;
}

StatusOr<SpectralSignature> MakeSpectralSignatureChecked(const Series& s,
                                                         std::size_t dims) {
  const std::size_t n = s.size();
  if (n < 2) {
    return Status::InvalidArgument(
        "series length " + std::to_string(n) +
        " is too short for a spectral signature (need >= 2)");
  }
  if (dims > n / 2) {
    return Status::InvalidArgument(
        "signature dims " + std::to_string(dims) + " exceeds n/2 = " +
        std::to_string(n / 2) + " for series length " + std::to_string(n) +
        "; a clamped signature would not be comparable to full-dims ones");
  }
  return MakeSpectralSignature(s, dims);
}

double SignatureDistance(const SpectralSignature& a,
                         const SpectralSignature& b, StepCounter* counter) {
  if (a.dims() != b.dims()) {
    // Incomparable signatures mean the caller's signature set is broken
    // (typically a silently clamped dims on a heterogeneous-length
    // dataset). Proceeding would read past the shorter buffer, so this is
    // fatal on every build type, not just under assert.
    std::fprintf(
        stderr, "rotind: SignatureDistance: %s\n",
        Status::InvalidArgument("signature dims mismatch: " +
                                std::to_string(a.dims()) + " vs " +
                                std::to_string(b.dims()))
            .ToString()
            .c_str());
    std::abort();
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    const double d = a.values[i] - b.values[i];
    acc += d * d;
  }
  AddSteps(counter, a.values.size());
  return std::sqrt(acc);
}

StatusOr<double> SignatureDistanceChecked(const SpectralSignature& a,
                                          const SpectralSignature& b,
                                          StepCounter* counter) {
  if (a.dims() != b.dims()) {
    return Status::InvalidArgument(
        "signature dims mismatch: " + std::to_string(a.dims()) + " vs " +
        std::to_string(b.dims()));
  }
  return SignatureDistance(a, b, counter);
}

std::uint64_t FftStepCost(std::size_t n) {
  if (n <= 1) return 1;
  const double cost =
      static_cast<double>(n) * std::log2(static_cast<double>(n));
  return static_cast<std::uint64_t>(std::llround(cost));
}

}  // namespace rotind

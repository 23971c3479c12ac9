#include <gtest/gtest.h>

#include <cmath>

#include "dsp/fft.h"
#include "util/error.h"
#include "util/rng.h"

namespace spectra::dsp {
namespace {

std::vector<Complex> naive_dft(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n, Complex(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -2.0 * M_PI * static_cast<double>(k * t) / static_cast<double>(n);
      out[k] += x[t] * Complex(std::cos(angle), std::sin(angle));
    }
  }
  return out;
}

std::vector<Complex> random_signal(std::size_t n, Rng& rng) {
  std::vector<Complex> x(n);
  for (auto& c : x) c = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return x;
}

TEST(FftTest, PowerOfTwoDetection) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(168));
  EXPECT_FALSE(is_power_of_two(-4));
}

class FftLengthTest : public testing::TestWithParam<long> {};

TEST_P(FftLengthTest, MatchesNaiveDft) {
  const long n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n));
  const std::vector<Complex> x = random_signal(static_cast<std::size_t>(n), rng);
  const std::vector<Complex> fast = fft(x);
  const std::vector<Complex> slow = naive_dft(x);
  for (long k = 0; k < n; ++k) {
    EXPECT_NEAR(fast[static_cast<std::size_t>(k)].real(), slow[static_cast<std::size_t>(k)].real(),
                1e-8 * static_cast<double>(n));
    EXPECT_NEAR(fast[static_cast<std::size_t>(k)].imag(), slow[static_cast<std::size_t>(k)].imag(),
                1e-8 * static_cast<double>(n));
  }
}

TEST_P(FftLengthTest, InverseRoundTrip) {
  const long n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) + 99);
  const std::vector<Complex> x = random_signal(static_cast<std::size_t>(n), rng);
  const std::vector<Complex> back = ifft(fft(x));
  for (long k = 0; k < n; ++k) {
    EXPECT_NEAR(back[static_cast<std::size_t>(k)].real(), x[static_cast<std::size_t>(k)].real(),
                1e-9 * static_cast<double>(n));
    EXPECT_NEAR(back[static_cast<std::size_t>(k)].imag(), x[static_cast<std::size_t>(k)].imag(),
                1e-9 * static_cast<double>(n));
  }
}

TEST_P(FftLengthTest, ParsevalHolds) {
  const long n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) + 7);
  const std::vector<Complex> x = random_signal(static_cast<std::size_t>(n), rng);
  const std::vector<Complex> y = fft(x);
  double time_energy = 0.0, freq_energy = 0.0;
  for (const Complex& c : x) time_energy += std::norm(c);
  for (const Complex& c : y) freq_energy += std::norm(c);
  const double fn = static_cast<double>(n);
  EXPECT_NEAR(freq_energy, time_energy * fn, 1e-7 * fn * fn);
}

// 168 is the hourly-week length at the heart of SpectraGAN; 504 is the
// 3-week generation horizon; the rest cover radix-2, odd, prime and
// composite lengths.
INSTANTIATE_TEST_SUITE_P(Lengths, FftLengthTest,
                         testing::Values(1L, 2L, 8L, 13L, 21L, 64L, 100L, 168L, 251L, 504L));

TEST(RfftTest, SizeIsHalfPlusOne) {
  std::vector<double> x(168, 0.0);
  EXPECT_EQ(rfft(x).size(), 85u);
  std::vector<double> odd(9, 0.0);
  EXPECT_EQ(rfft(odd).size(), 5u);
}

TEST(RfftTest, DcBinIsSum) {
  std::vector<double> x = {1, 2, 3, 4};
  const std::vector<Complex> y = rfft(x);
  EXPECT_NEAR(y[0].real(), 10.0, 1e-12);
  EXPECT_NEAR(y[0].imag(), 0.0, 1e-12);
}

TEST(RfftTest, PureCosineConcentrates) {
  const long n = 48;
  std::vector<double> x(static_cast<std::size_t>(n));
  for (long t = 0; t < n; ++t) {
    x[static_cast<std::size_t>(t)] =
        std::cos(2.0 * M_PI * 3.0 * static_cast<double>(t) / static_cast<double>(n));
  }
  const std::vector<Complex> y = rfft(x);
  for (std::size_t k = 0; k < y.size(); ++k) {
    if (k == 3) {
      EXPECT_NEAR(std::abs(y[k]), n / 2.0, 1e-9);
    } else {
      EXPECT_NEAR(std::abs(y[k]), 0.0, 1e-9);
    }
  }
}

TEST(IrfftTest, RoundTripEvenAndOdd) {
  for (long n : {8L, 9L, 168L, 21L}) {
    Rng rng(static_cast<std::uint64_t>(n));
    std::vector<double> x(static_cast<std::size_t>(n));
    for (double& v : x) v = rng.uniform(-1, 1);
    const std::vector<double> back = irfft(rfft(x), n);
    for (long i = 0; i < n; ++i) {
      EXPECT_NEAR(back[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i)], 1e-9);
    }
  }
}

TEST(IrfftTest, SizeValidation) {
  std::vector<Complex> spec(5, Complex(0, 0));
  EXPECT_NO_THROW(irfft(spec, 8));
  EXPECT_NO_THROW(irfft(spec, 9));
  EXPECT_THROW(irfft(spec, 12), spectra::Error);
  EXPECT_THROW(irfft(spec, 0), spectra::Error);
}

}  // namespace
}  // namespace spectra::dsp

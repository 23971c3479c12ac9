#include "dsp/fft.h"

#include <cmath>
#include <memory>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/error.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace spectra::dsp {

bool is_power_of_two(long n) { return n >= 1 && (n & (n - 1)) == 0; }

namespace {

// Iterative Cooley-Tukey, N a power of two. `sign` is -1 for the forward
// transform, +1 for the (unscaled) inverse.
void radix2(std::vector<Complex>& a, int sign) {
  const std::size_t n = a.size();
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = sign * 2.0 * M_PI / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const Complex u = a[i + j];
        const Complex v = a[i + j + len / 2] * w;
        a[i + j] = u + v;
        a[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

// Precomputed Bluestein plan for one (length, sign) pair. Training and
// generation transform millions of equal-length pixel series, so the
// chirp and the convolution kernel's FFT are cached per length.
struct BluesteinPlan {
  long n = 0;
  long m = 0;
  std::vector<Complex> chirp;   // w_k = exp(sign*i*pi*k^2/n)
  std::vector<Complex> kernel;  // FFT of the padded conjugate chirp
};

std::unique_ptr<BluesteinPlan> build_bluestein_plan(long n, int sign) {
  auto plan = std::make_unique<BluesteinPlan>();
  plan->n = n;
  long m = 1;
  while (m < 2 * n - 1) m <<= 1;
  plan->m = m;
  plan->chirp.resize(static_cast<std::size_t>(n));
  for (long k = 0; k < n; ++k) {
    // k^2 taken mod 2n to keep the argument small for large k.
    const long k2 = (k * k) % (2 * n);
    const double angle = sign * M_PI * static_cast<double>(k2) / static_cast<double>(n);
    plan->chirp[static_cast<std::size_t>(k)] = Complex(std::cos(angle), std::sin(angle));
  }
  plan->kernel.assign(static_cast<std::size_t>(m), Complex(0.0, 0.0));
  for (long k = 0; k < n; ++k) {
    const Complex c = std::conj(plan->chirp[static_cast<std::size_t>(k)]);
    plan->kernel[static_cast<std::size_t>(k)] = c;
    if (k != 0) plan->kernel[static_cast<std::size_t>(m - k)] = c;
  }
  radix2(plan->kernel, -1);
  return plan;
}

// Process-wide keyed cache shared by all pool workers; transforms of a
// handful of distinct lengths dominate, so each plan is built once per
// (length, sign) instead of once per thread. unique_ptr storage keeps
// returned references stable while the vector grows.
struct BluesteinCache {
  SharedMutex mutex SG_ACQUIRED_AFTER(lock_order::fft_cache)
      SG_ACQUIRED_BEFORE(lock_order::log);
  // [0]: sign < 0, [1]: sign >= 0. Plans are immutable once inserted.
  std::vector<std::unique_ptr<BluesteinPlan>> buckets[2] SG_GUARDED_BY(mutex);
};

const BluesteinPlan& bluestein_plan(long n, int sign) {
  static BluesteinCache bluestein_cache;
  const int bucket_index = sign < 0 ? 0 : 1;
  {
    SharedReaderLock lock(bluestein_cache.mutex);
    for (const auto& plan : bluestein_cache.buckets[bucket_index]) {
      if (plan->n == n) return *plan;
    }
  }
  // Build outside the lock (two racing threads may both build; one copy
  // wins below and the other is discarded).
  auto plan = build_bluestein_plan(n, sign);
  SharedMutexLock lock(bluestein_cache.mutex);
  auto& bucket = bluestein_cache.buckets[bucket_index];
  for (const auto& existing : bucket) {
    if (existing->n == n) return *existing;
  }
  bucket.push_back(std::move(plan));
  return *bucket.back();
}

// Bluestein's algorithm: express an arbitrary-length DFT as a convolution,
// evaluated with a zero-padded power-of-two FFT. The length-m work buffer
// is per-thread grow-only scratch (it cannot live on the plan: plans are
// shared read-only across pool workers).
void bluestein(std::vector<Complex>& a, int sign) {
  const long n = static_cast<long>(a.size());
  const BluesteinPlan& plan = bluestein_plan(n, sign);
  const long m = plan.m;

  thread_local std::vector<Complex> scratch;
  std::vector<Complex>& u = scratch;
  u.assign(static_cast<std::size_t>(m), Complex(0.0, 0.0));
  for (long k = 0; k < n; ++k) {
    u[static_cast<std::size_t>(k)] =
        a[static_cast<std::size_t>(k)] * plan.chirp[static_cast<std::size_t>(k)];
  }
  radix2(u, -1);
  for (long k = 0; k < m; ++k) {
    u[static_cast<std::size_t>(k)] *= plan.kernel[static_cast<std::size_t>(k)];
  }
  radix2(u, +1);
  const double inv_m = 1.0 / static_cast<double>(m);
  for (long k = 0; k < n; ++k) {
    a[static_cast<std::size_t>(k)] =
        u[static_cast<std::size_t>(k)] * inv_m * plan.chirp[static_cast<std::size_t>(k)];
  }
}

}  // namespace

void fft_inplace(std::vector<Complex>& a, bool inverse) {
  const long n = static_cast<long>(a.size());
  if (n <= 1) return;
  // Instrument every transform: call counters plus a seconds histogram.
  // All three instruments are relaxed atomics — safe from pool workers.
  static obs::Counter& calls = obs::Registry::instance().counter("fft.calls");
  static obs::Counter& bluestein_calls = obs::Registry::instance().counter("fft.bluestein_calls");
  static obs::Histogram& seconds = obs::Registry::instance().histogram("fft.seconds");
  calls.inc();
  obs::ScopedTimer timer(seconds);
  SG_SCOPE("dsp/fft");
  if (obs::profile_enabled()) {
    // 5·N·log2(N) real flops (the standard complex radix-2 count);
    // traffic is the in-place buffer read and written once per pass.
    const double nd = static_cast<double>(n);
    const double log2n = std::log2(nd);
    obs::profile_add_work(5.0 * nd * log2n, 2.0 * nd * 16.0);
  }
  const int sign = inverse ? +1 : -1;
  if (is_power_of_two(n)) {
    radix2(a, sign);
  } else {
    bluestein_calls.inc();
    bluestein(a, sign);
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (Complex& c : a) c *= inv_n;
  }
}

std::vector<Complex> fft(std::vector<Complex> a) {
  fft_inplace(a, false);
  return a;
}

std::vector<Complex> ifft(std::vector<Complex> a) {
  fft_inplace(a, true);
  return a;
}

std::vector<Complex> rfft(const std::vector<double>& x) {
  SG_SCOPE("fft/rfft");
  const long n = static_cast<long>(x.size());
  SG_CHECK(n >= 1, "rfft of empty signal");
  std::vector<Complex> a(x.begin(), x.end());
  fft_inplace(a, false);
  a.resize(static_cast<std::size_t>(n / 2 + 1));
  return a;
}

std::vector<double> irfft(const std::vector<Complex>& spectrum, long n) {
  SG_SCOPE("fft/irfft");
  SG_CHECK(n >= 1, "irfft target length must be positive");
  SG_CHECK(static_cast<long>(spectrum.size()) == n / 2 + 1,
           "irfft: spectrum size must be n/2+1 (got " + std::to_string(spectrum.size()) +
               " for n=" + std::to_string(n) + ")");
  std::vector<Complex> full(static_cast<std::size_t>(n));
  for (long k = 0; k <= n / 2; ++k) {
    full[static_cast<std::size_t>(k)] = spectrum[static_cast<std::size_t>(k)];
  }
  for (long k = n / 2 + 1; k < n; ++k) {
    full[static_cast<std::size_t>(k)] = std::conj(spectrum[static_cast<std::size_t>(n - k)]);
  }
  fft_inplace(full, true);
  std::vector<double> out(static_cast<std::size_t>(n));
  for (long i = 0; i < n; ++i) {
    out[static_cast<std::size_t>(i)] = full[static_cast<std::size_t>(i)].real();
  }
  return out;
}

}  // namespace spectra::dsp

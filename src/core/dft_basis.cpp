#include "core/dft_basis.h"

#include <cmath>

#include "util/error.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace spectra::core {

namespace {

enum class BasisKind { kSynthesis, kAnalysis };

struct BasisKey {
  BasisKind kind;
  long base_steps;
  long expand_k;
  long f_gen;
  bool operator==(const BasisKey&) const = default;
};

std::shared_ptr<const DftBasis> build_basis(const BasisKey& key) {
  const long n = key.expand_k * key.base_steps;
  const long two_f = 2 * key.f_gen;
  const bool synthesis = key.kind == BasisKind::kSynthesis;
  auto basis = std::make_shared<DftBasis>(static_cast<std::size_t>(n * two_f));
  for (long i = 0; i < key.f_gen; ++i) {
    // Generated bin i sits on bin expand_k*i of the n-step series.
    const long bin = key.expand_k * i;
    const bool edge = bin == 0 || 2 * bin == n;
    // Synthesis: Hermitian weight (interior bins appear twice in the
    // inverse transform). Analysis: the 1/T spectrum normalization.
    const double scale = synthesis ? (edge ? 1.0 : 2.0) : 1.0 / static_cast<double>(n);
    for (long t = 0; t < n; ++t) {
      const double angle =
          2.0 * M_PI * static_cast<double>((bin * t) % n) / static_cast<double>(n);
      const long re_at = synthesis ? t * two_f + 2 * i : (2 * i) * n + t;
      const long im_at = synthesis ? re_at + 1 : re_at + n;
      (*basis)[static_cast<std::size_t>(re_at)] = static_cast<float>(scale * std::cos(angle));
      (*basis)[static_cast<std::size_t>(im_at)] =
          edge ? 0.0f : static_cast<float>(-scale * std::sin(angle));
    }
  }
  return basis;
}

// Process-wide cache shared by all pool workers, same shape as the
// Bluestein plan cache: a handful of geometries is ever requested, each
// basis is immutable once built, and readers keep it alive through the
// shared_ptr while they compute.
struct BasisCache {
  struct Entry {
    BasisKey key;
    std::shared_ptr<const DftBasis> basis;
  };
  SharedMutex mutex SG_ACQUIRED_AFTER(lock_order::fft_cache)
      SG_ACQUIRED_BEFORE(lock_order::log);
  std::vector<Entry> entries SG_GUARDED_BY(mutex);
};

std::shared_ptr<const DftBasis> cached_basis(const BasisKey& key) {
  static BasisCache basis_cache;
  {
    SharedReaderLock lock(basis_cache.mutex);
    for (const auto& entry : basis_cache.entries) {
      if (entry.key == key) return entry.basis;
    }
  }
  // Build outside the lock (two racing threads may both build; the first
  // insert wins and both return it).
  std::shared_ptr<const DftBasis> basis = build_basis(key);
  SharedMutexLock lock(basis_cache.mutex);
  for (const auto& entry : basis_cache.entries) {
    if (entry.key == key) return entry.basis;
  }
  basis_cache.entries.push_back({key, basis});
  return basis;
}

}  // namespace

std::shared_ptr<const DftBasis> synthesis_basis(long base_steps, long expand_k, long f_gen) {
  SG_CHECK(base_steps >= 2 && expand_k >= 1, "invalid DFT basis geometry");
  SG_CHECK(f_gen >= 1 && f_gen <= base_steps / 2 + 1,
           "more generated bins than the base signal supports");
  return cached_basis({BasisKind::kSynthesis, base_steps, expand_k, f_gen});
}

std::shared_ptr<const DftBasis> analysis_basis(long steps, long f_gen) {
  SG_CHECK(steps >= 1 && f_gen >= 1 && f_gen <= steps / 2 + 1, "f_gen out of range");
  return cached_basis({BasisKind::kAnalysis, steps, 1, f_gen});
}

}  // namespace spectra::core

#include "support/fft_bridge_reference.h"

#include <algorithm>
#include <vector>

#include "dsp/fft.h"
#include "dsp/spectrum.h"

namespace spectra::oracle {

nn::Tensor reference_bridge_forward(const nn::Tensor& spectrum, long base_steps, long expand_k) {
  const long B = spectrum.dim(0);
  const long two_f = spectrum.dim(1);
  const long P = spectrum.dim(2);
  const long f_gen = two_f / 2;
  const long t_out = expand_k * base_steps;
  // The generator emits Y/T; restore the unnormalized bins and apply the
  // k-multiple energy scale, then zero-pad to the full spectrum.
  const double k_scale = static_cast<double>(t_out);
  nn::Tensor out({B, t_out, P});
  std::vector<dsp::Complex> full(static_cast<std::size_t>(t_out / 2 + 1));
  for (long b = 0; b < B; ++b) {
    for (long p = 0; p < P; ++p) {
      std::fill(full.begin(), full.end(), dsp::Complex(0.0, 0.0));
      for (long i = 0; i < f_gen; ++i) {
        const double re = spectrum[(b * two_f + 2 * i) * P + p];
        const double im = spectrum[(b * two_f + 2 * i + 1) * P + p];
        full[static_cast<std::size_t>(expand_k * i)] = dsp::Complex(re, im) * k_scale;
      }
      const std::vector<double> series = dsp::irfft(full, t_out);
      for (long t = 0; t < t_out; ++t) {
        out[(b * t_out + t) * P + p] = static_cast<float>(series[static_cast<std::size_t>(t)]);
      }
    }
  }
  return out;
}

nn::Tensor reference_bridge_backward(const nn::Tensor& grad, long f_gen, long base_steps,
                                     long expand_k) {
  const long B = grad.dim(0);
  const long t_out = grad.dim(1);
  const long P = grad.dim(2);
  const long two_f = 2 * f_gen;
  const double k_scale = static_cast<double>(expand_k * base_steps);
  nn::Tensor out({B, two_f, P});
  std::vector<double> series(static_cast<std::size_t>(t_out));
  for (long b = 0; b < B; ++b) {
    for (long p = 0; p < P; ++p) {
      for (long t = 0; t < t_out; ++t) {
        series[static_cast<std::size_t>(t)] = grad[(b * t_out + t) * P + p];
      }
      const std::vector<dsp::Complex> grad_spec = dsp::rfft(series);
      for (long i = 0; i < f_gen; ++i) {
        const long bin = expand_k * i;
        // Hermitian weighting: interior bins appear twice in the inverse
        // transform, DC and Nyquist once (and their imaginary parts not
        // at all).
        const bool edge = (bin == 0) || (2 * bin == t_out);
        const double c = (edge ? 1.0 : 2.0) * k_scale / static_cast<double>(t_out);
        const dsp::Complex gb = grad_spec[static_cast<std::size_t>(bin)];
        out[(b * two_f + 2 * i) * P + p] = static_cast<float>(c * gb.real());
        out[(b * two_f + 2 * i + 1) * P + p] = edge ? 0.0f : static_cast<float>(c * gb.imag());
      }
    }
  }
  return out;
}

namespace {

template <typename BinFilter>
nn::Tensor spectrum_with_filter(const nn::Tensor& traffic, long f_gen, BinFilter filter) {
  const long B = traffic.dim(0);
  const long T = traffic.dim(1);
  const long P = traffic.dim(2);
  nn::Tensor out({B, 2 * f_gen, P});
  std::vector<double> series(static_cast<std::size_t>(T));
  for (long b = 0; b < B; ++b) {
    for (long p = 0; p < P; ++p) {
      for (long t = 0; t < T; ++t) {
        series[static_cast<std::size_t>(t)] = traffic[(b * T + t) * P + p];
      }
      std::vector<dsp::Complex> spec = dsp::rfft(series);
      spec.resize(static_cast<std::size_t>(f_gen));
      filter(spec);
      for (long i = 0; i < f_gen; ++i) {
        const dsp::Complex c = spec[static_cast<std::size_t>(i)] / static_cast<double>(T);
        out[(b * 2 * f_gen + 2 * i) * P + p] = static_cast<float>(c.real());
        out[(b * 2 * f_gen + 2 * i + 1) * P + p] = static_cast<float>(c.imag());
      }
    }
  }
  return out;
}

}  // namespace

nn::Tensor reference_batch_spectrum(const nn::Tensor& traffic, long f_gen) {
  return spectrum_with_filter(traffic, f_gen, [](std::vector<dsp::Complex>&) {});
}

nn::Tensor reference_masked_spectrum_target(const nn::Tensor& traffic, long f_gen, double q) {
  return spectrum_with_filter(traffic, f_gen, [q](std::vector<dsp::Complex>& spec) {
    spec = dsp::quantile_mask(spec, q);
  });
}

}  // namespace spectra::oracle

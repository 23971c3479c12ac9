#include "core/losses.h"

#include "core/dft_basis.h"
#include "dsp/spectrum.h"
#include "nn/gemm.h"
#include "util/error.h"

namespace spectra::core {

nn::Tensor context_tensor(const data::PatchBatch& batch) {
  return nn::Tensor({batch.batch, batch.channels, batch.context_h, batch.context_w},
                    batch.context);
}

nn::Tensor traffic_tensor(const data::PatchBatch& batch) {
  return nn::Tensor({batch.batch, batch.steps, batch.traffic_h * batch.traffic_w}, batch.traffic);
}

nn::Tensor batch_spectrum(const nn::Tensor& traffic, long f_gen) {
  SG_CHECK(traffic.rank() == 3, "batch_spectrum expects [B, T, P]");
  const long B = traffic.dim(0);
  const long T = traffic.dim(1);
  const long P = traffic.dim(2);
  const std::shared_ptr<const DftBasis> basis = analysis_basis(T, f_gen);

  // S_b[2f x P] = F[2f x T] * x_b[T x P]. The basis folds in the
  // normalized-spectrum convention shared with irfft_bridge: targets are
  // Y/T so the spectrum L1 term is commensurate with the time L1.
  const long two_f = 2 * f_gen;
  nn::Tensor out({B, two_f, P});
  for (long b = 0; b < B; ++b) {
    nn::gemm::sgemm(nn::gemm::Trans::kNo, nn::gemm::Trans::kNo, two_f, P, T,
                    basis->data(), T, traffic.data() + b * T * P, P,
                    out.data() + b * two_f * P, P, /*accumulate=*/false);
  }
  return out;
}

nn::Tensor masked_spectrum_target(const nn::Tensor& traffic, long f_gen, double q) {
  SG_CHECK(q > 0.0 && q < 1.0, "mask quantile must be in (0,1)");
  nn::Tensor out = batch_spectrum(traffic, f_gen);
  const long B = out.dim(0);
  const long P = out.dim(2);
  // The mask is per (b, p) pixel series: zero every bin whose magnitude
  // is <= the q-quantile of that series' truncated magnitudes.
  std::vector<dsp::Complex> spec(static_cast<std::size_t>(f_gen));
  for (long b = 0; b < B; ++b) {
    float* block = out.data() + b * 2 * f_gen * P;
    for (long p = 0; p < P; ++p) {
      for (long i = 0; i < f_gen; ++i) {
        spec[static_cast<std::size_t>(i)] =
            dsp::Complex(block[(2 * i) * P + p], block[(2 * i + 1) * P + p]);
      }
      const std::vector<bool> keep = dsp::quantile_mask_bits(spec, q);
      for (long i = 0; i < f_gen; ++i) {
        if (keep[static_cast<std::size_t>(i)]) continue;
        block[(2 * i) * P + p] = 0.0f;
        block[(2 * i + 1) * P + p] = 0.0f;
      }
    }
  }
  return out;
}

}  // namespace spectra::core

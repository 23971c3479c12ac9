#include "core/fourier_bridge.h"

#include "core/dft_basis.h"
#include "nn/gemm.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/error.h"

namespace spectra::core {

using nn::Tensor;
using nn::Var;
using nn::gemm::Trans;

Var irfft_bridge(const Var& spectrum, long base_steps, long expand_k) {
  SG_SCOPE("core/irfft_bridge");
  static obs::Counter& calls = obs::Registry::instance().counter("fourier_bridge.calls");
  static obs::Histogram& seconds =
      obs::Registry::instance().histogram("fourier_bridge.seconds");
  calls.inc();
  obs::ScopedTimer timer(seconds);
  const Tensor& spec = spectrum.value();
  SG_CHECK(spec.rank() == 3, "irfft_bridge expects [B, 2*Fgen, P]");
  const long B = spec.dim(0);
  const long two_f = spec.dim(1);
  const long P = spec.dim(2);
  SG_CHECK(two_f % 2 == 0, "spectrum channel count must be even (re/im interleaved)");
  std::shared_ptr<const DftBasis> basis = synthesis_basis(base_steps, expand_k, two_f / 2);
  const long t_out = expand_k * base_steps;

  // Normalized-spectrum convention: the generator emits Y/T (so its
  // outputs are O(signal) rather than O(signal * T)); the basis restores
  // the unnormalized bins and applies the k-multiple energy scale.
  // out_b[t_out x P] = W[t_out x 2f] * spec_b[2f x P] for each b.
  Tensor out({B, t_out, P});
  for (long b = 0; b < B; ++b) {
    nn::gemm::sgemm(Trans::kNo, Trans::kNo, t_out, P, two_f, basis->data(), two_f,
                    spec.data() + b * two_f * P, P, out.data() + b * t_out * P, P,
                    /*accumulate=*/false);
  }

  return Var::make_op(
      std::move(out), {spectrum},
      [B, two_f, P, t_out, basis = std::move(basis)](const Tensor& g, std::vector<Var>& parents) {
        if (!parents[0].requires_grad()) return;
        SG_SCOPE("core/irfft_bridge_backward");
        // The exact adjoint: gs_b += W^T * g_b. W's zero columns give
        // im(DC) and im(Nyquist) their zero gradient.
        Tensor& gs = parents[0].grad_storage();
        for (long b = 0; b < B; ++b) {
          nn::gemm::sgemm(Trans::kTrans, Trans::kNo, two_f, P, t_out, basis->data(), two_f,
                          g.data() + b * t_out * P, P, gs.data() + b * two_f * P, P,
                          /*accumulate=*/true);
        }
      });
}

}  // namespace spectra::core

// Differentiable inverse real FFT — the bridge between the spectrum
// generator's frequency-domain output and the time-domain traffic patch
// (§2.2.2: "IFFT is differentiable so is the overall generator").
//
// Forward: an interleaved-complex spectrum tensor [B, 2*Fgen, P] (Fgen
// generated low-frequency bins per pixel p) is inverse-transformed to
// [B, T, P] as if zero-padded to the full T/2+1 bins. Since only Fgen
// bins are nonzero the transform is a fixed linear map of rank 2*Fgen:
// one GEMM per batch element against a cached cos/sin basis
// (core/dft_basis.h) with the Hermitian weights folded in.
//
// Backward: the exact adjoint, a transposed GEMM against the same basis.
// The imaginary parts of the DC and Nyquist bins do not reach the output
// and get a zero gradient.
//
// The same entry point implements long-horizon generation: when
// `expand_k > 1` generated bin i lands on bin expand_k*i (the k-multiple
// rule, dsp/expansion.h, Fig. 4) so the output covers k*T steps.

#pragma once

#include "nn/autograd.h"

namespace spectra::core {

// spectrum: [B, 2*Fgen, P]; returns [B, T_out, P] with
// T_out = expand_k * base_steps.
nn::Var irfft_bridge(const nn::Var& spectrum, long base_steps, long expand_k = 1);

}  // namespace spectra::core

// FFT-based reference for the truncated-DFT Fourier bridge and spectrum
// targets (core/fourier_bridge, core/losses). These are the per-series
// dsp::rfft / dsp::irfft loops the model path ran before it switched to
// cached DFT bases, kept as the tolerance oracle for tests and as the
// baseline of the `dft_bridge_serve` kernel bench. All arithmetic is in
// double; only the final values are rounded to float.

#pragma once

#include "nn/tensor.h"

namespace spectra::oracle {

// spectrum [B, 2*f_gen, P] (interleaved re/im, normalized Y/T) ->
// traffic [B, expand_k*base_steps, P].
nn::Tensor reference_bridge_forward(const nn::Tensor& spectrum, long base_steps, long expand_k);

// The bridge's adjoint: gradient [B, expand_k*base_steps, P] of the
// output -> gradient [B, 2*f_gen, P] of the spectrum.
nn::Tensor reference_bridge_backward(const nn::Tensor& grad, long f_gen, long base_steps,
                                     long expand_k);

// Truncated rFFT of each series of [B, T, P], normalized by 1/T:
// [B, 2*f_gen, P].
nn::Tensor reference_batch_spectrum(const nn::Tensor& traffic, long f_gen);

// reference_batch_spectrum with the per-series quantile mask M^q applied
// to the truncated unnormalized spectrum.
nn::Tensor reference_masked_spectrum_target(const nn::Tensor& traffic, long f_gen, double q);

}  // namespace spectra::oracle

// Fast Fourier transforms: iterative radix-2 for power-of-two lengths and
// Bluestein's chirp-z algorithm for arbitrary lengths, plus real-input
// helpers (rfft/irfft) with NumPy conventions — forward unnormalized,
// inverse scaled by 1/N.
//
// These kernels serve the offline analysis in data characterization,
// spectrum expansion and metrics. The model path does not call them: the
// generator's bridge and its spectrum targets are truncated DFTs of a few
// low bins, computed as GEMMs against cached bases (core/dft_basis.h).

#pragma once

#include <complex>
#include <vector>

namespace spectra::dsp {

using Complex = std::complex<double>;

// In-place FFT of arbitrary length (radix-2 when N is a power of two,
// Bluestein otherwise). `inverse` applies the conjugate transform and the
// 1/N scale.
void fft_inplace(std::vector<Complex>& a, bool inverse);

std::vector<Complex> fft(std::vector<Complex> a);
std::vector<Complex> ifft(std::vector<Complex> a);

// Real-input FFT: returns the N/2+1 non-redundant bins of the
// full-length complex transform.
std::vector<Complex> rfft(const std::vector<double>& x);

// Inverse of rfft; `n` is the output length (must satisfy n/2+1 == spectrum size).
// The imaginary parts of the DC and Nyquist bins do not reach the output.
std::vector<double> irfft(const std::vector<Complex>& spectrum, long n);

// True if n is a power of two (n >= 1).
bool is_power_of_two(long n);

}  // namespace spectra::dsp

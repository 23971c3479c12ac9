// Cached truncated real-DFT bases. The generator emits only the f_gen low
// rFFT bins of each pixel series (§2.2.2), so the Fourier bridge and the
// spectrum targets are fixed linear maps of rank 2*f_gen between those
// bins (interleaved re/im, normalized by 1/T) and a time series. Storing
// each map as a dense float matrix turns the per-series transforms into
// one nn::gemm product per batch element, which inherits the GEMM
// layer's SIMD tiers and its bitwise determinism across thread counts
// and SIMD levels.
//
// The bases are built in double, with the phase (bin*t) mod N reduced in
// integers before cos/sin, then stored as float. The imaginary entries
// of the DC and Nyquist bins are exactly 0: those bins of a real series
// are real.

#pragma once

#include <memory>
#include <vector>

namespace spectra::core {

// A basis is a row-major float matrix of the stated shape.
using DftBasis = std::vector<float>;

// Inverse map of the bridge, [expand_k*base_steps, 2*f_gen]: column 2i
// (2i+1) holds w_i*cos(theta) (-w_i*sin(theta)) with theta =
// 2*pi*(expand_k*i)*t / (expand_k*base_steps) and the Hermitian weight
// w_i = 1 on DC and Nyquist, 2 on interior bins. Generated bin i lands on
// bin expand_k*i of the longer series (the k-multiple rule, Fig. 4), and
// the k-multiple energy scale cancels the 1/N of the inverse transform.
std::shared_ptr<const DftBasis> synthesis_basis(long base_steps, long expand_k, long f_gen);

// Forward map of the spectrum targets, [2*f_gen, steps]: row 2i (2i+1)
// holds cos(theta)/steps (-sin(theta)/steps), theta = 2*pi*i*t/steps.
std::shared_ptr<const DftBasis> analysis_basis(long steps, long f_gen);

}  // namespace spectra::core

// Per-step reference for the whole-sequence LSTM op (nn::lstm_sequence)
// and the layers built on it. This is the composition the model path ran
// before the recurrence became one autograd op: one projection or slice,
// one op-by-op gate step (add/add_rowvec/slice/sigmoid/tanh/mul) and one
// head product per timestep. Tests check forward values against it
// bitwise and gradients within stated bounds; bench_kernels times it as
// the baseline of the LSTM rows.

#pragma once

#include "nn/autograd.h"
#include "nn/layers.h"
#include "nn/lstm.h"

namespace spectra::oracle {

// One step from a precomputed input projection x_proj [B, 4H].
nn::LstmState reference_lstm_step(const nn::Var& x_proj, const nn::LstmState& state,
                                  const nn::Var& weight_h, const nn::Var& bias);

// lstm_sequence step by step from the zero state: slices x_proj
// [T·B, 4H] per step and concatenates the hidden states to [T·B, H].
nn::Var reference_lstm_sequence(const nn::Var& x_proj, const nn::Var& weight_h,
                                const nn::Var& bias, long batch);

// Lstm::forward step by step: one batched input projection sliced per
// step, then one gate step, head product and activation per step.
// Returns the per-step outputs concatenated to [T·B, out].
nn::Var reference_lstm_forward(const nn::Lstm& lstm, const nn::Var& inputs, long batch);

// core::mean_step_logits step by step: per step, concat [x_t, cond],
// project it on its own, run one gate step and the head, and add the
// logit to a running sum; the sum is scaled by 1/T.
nn::Var reference_mean_step_logits(const nn::LSTMCell& cell, const nn::Linear& head,
                                   const nn::Var& x_steps, const nn::Var& cond, long batch);

}  // namespace spectra::oracle

// Recurrent layers: LSTMCell/LSTM (batched, as used by the SpectraGAN
// residual time-series generator and time discriminator, §2.2.2–2.2.3)
// and ConvLSTMCell (for the Conv{3D+LSTM} baseline, §3.3).
//
// Sequences are step-major matrices: a [T·B, D] tensor holds step t of
// batch row b at row t·B + b, so a whole sequence's input projection,
// output head and weight gradients are each one GEMM over all T·B rows.

#pragma once

#include <memory>
#include <vector>

#include "nn/layers.h"

namespace spectra::nn {

// Whole-sequence LSTM recurrence from the zero state, as one autograd
// node (DESIGN §6c). x_proj is the input projection x·W_ih of every
// step, [T·B, 4H] step-major with gate columns i|f|g|o; weight_h is
// [H, 4H]; bias is [4H]. Per step
//   gates = (x_proj_t + h_{t-1}·W_hh) + b,  i,f,o = σ, g = tanh,
//   c_t = f⊙c_{t-1} + i⊙g,  h_t = o⊙tanh(c_t),
// and the result stacks every h_t as [T·B, H]. The forward pass packs
// W_hh once and is bitwise equal to composing the per-step ops. The
// backward pass runs the reverse recurrence for dh/dc only, then forms
// dW_hh, db and dx_proj as one product or reduction each over all T·B
// rows, so only those weight gradients differ from the per-step
// composition in summation order. Under InferenceGuard nothing is saved
// for backward.
Var lstm_sequence(const Var& x_proj, const Var& weight_h, const Var& bias, long batch);

// Hidden/cell state pair threaded through ConvLSTM steps.
struct LstmState {
  Var h;
  Var c;
};

// Standard LSTM cell (Hochreiter & Schmidhuber 1997) with fused gate
// projection: gates = x Wx + h Wh + b, split into i, f, g, o.
class LSTMCell : public Module {
 public:
  LSTMCell(long input_size, long hidden_size, Rng& rng);

  // Input projection x·Wx as one GEMM over [*, input_size] rows.
  Var project_input(const Var& x) const;

  // Run a whole step-major sequence x [T·B, input_size] from the zero
  // state; returns every hidden state as [T·B, hidden_size].
  Var forward(const Var& x, long batch) const;

  long input_size() const { return input_size_; }
  long hidden_size() const { return hidden_size_; }
  const Var& weight_h() const { return weight_h_; }
  const Var& bias() const { return bias_; }

 private:
  long input_size_;
  long hidden_size_;
  Var weight_x_;  // [input, 4*hidden]
  Var weight_h_;  // [hidden, 4*hidden]
  Var bias_;      // [4*hidden] (forget-gate slice initialized to 1)
};

// Multi-step LSTM with a per-step linear head, applied to all steps as
// one [T·B, hidden]·[hidden, output] product.
class Lstm : public Module {
 public:
  Lstm(long input_size, long hidden_size, long output_size, Rng& rng,
       Activation output_activation = Activation::kNone);

  // Run over the step-major sequence `inputs` [T·B, input]; returns the
  // per-step outputs as [T·B, output].
  Var forward(const Var& inputs, long batch) const;

  // Run `steps` iterations feeding the same input [B, input] every step
  // (used when conditioning on a static context embedding); returns
  // [steps·B, output].
  Var forward_repeat(const Var& input, long steps) const;

  const LSTMCell& cell() const { return cell_; }
  const Linear& head() const { return head_; }
  Activation output_activation() const { return output_activation_; }

 private:
  Var head_outputs(const Var& hidden) const;

  LSTMCell cell_;
  Linear head_;
  Activation output_activation_;
};

// Convolutional LSTM cell (Shi et al. 2015): gates are convolutions over
// the channel-concatenated [x, h] feature map. States are [B, hidden, H, W].
class ConvLSTMCell : public Module {
 public:
  ConvLSTMCell(long input_channels, long hidden_channels, long kernel, Rng& rng);

  LstmState initial_state(long batch, long height, long width) const;

  // x is [B, input_channels, H, W].
  LstmState step(const Var& x, const LstmState& state) const;

  long hidden_channels() const { return hidden_channels_; }

 private:
  long input_channels_;
  long hidden_channels_;
  Conv2dLayer gates_;  // (input+hidden) -> 4*hidden channels
};

}  // namespace spectra::nn

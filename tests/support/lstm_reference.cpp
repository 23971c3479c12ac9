#include "support/lstm_reference.h"

#include <vector>

#include "nn/ops.h"
#include "util/error.h"

namespace spectra::oracle {

namespace {

nn::LstmState zero_state(long batch, long hidden) {
  return {nn::Var::constant(nn::Tensor({batch, hidden})),
          nn::Var::constant(nn::Tensor({batch, hidden}))};
}

long step_count(const nn::Var& rows, long batch) {
  SG_CHECK(batch > 0 && rows.value().dim(0) % batch == 0,
           "reference LSTM rows must be a multiple of the batch size");
  return rows.value().dim(0) / batch;
}

}  // namespace

nn::LstmState reference_lstm_step(const nn::Var& x_proj, const nn::LstmState& state,
                                  const nn::Var& weight_h, const nn::Var& bias) {
  using namespace nn;
  Var gates = add_rowvec(add(x_proj, matmul(state.h, weight_h)), bias);
  const long hidden = weight_h.value().dim(0);
  Var i = sigmoid(slice_cols(gates, 0, hidden));
  Var f = sigmoid(slice_cols(gates, hidden, hidden));
  Var g = vtanh(slice_cols(gates, 2 * hidden, hidden));
  Var o = sigmoid(slice_cols(gates, 3 * hidden, hidden));
  Var c_next = add(mul(f, state.c), mul(i, g));
  Var h_next = mul(o, vtanh(c_next));
  return {h_next, c_next};
}

nn::Var reference_lstm_sequence(const nn::Var& x_proj, const nn::Var& weight_h,
                                const nn::Var& bias, long batch) {
  const long steps = step_count(x_proj, batch);
  nn::LstmState state = zero_state(batch, weight_h.value().dim(0));
  std::vector<nn::Var> hs;
  for (long t = 0; t < steps; ++t) {
    state = reference_lstm_step(nn::slice_axis(x_proj, 0, t * batch, batch), state, weight_h,
                                bias);
    hs.push_back(state.h);
  }
  return nn::concat_axis(hs, 0);
}

nn::Var reference_lstm_forward(const nn::Lstm& lstm, const nn::Var& inputs, long batch) {
  const long steps = step_count(inputs, batch);
  const nn::LSTMCell& cell = lstm.cell();
  nn::Var all_proj = cell.project_input(inputs);
  nn::LstmState state = zero_state(batch, cell.hidden_size());
  std::vector<nn::Var> outputs;
  for (long t = 0; t < steps; ++t) {
    state = reference_lstm_step(nn::slice_axis(all_proj, 0, t * batch, batch), state,
                                cell.weight_h(), cell.bias());
    outputs.push_back(
        nn::apply_activation(lstm.head().forward(state.h), lstm.output_activation()));
  }
  return nn::concat_axis(outputs, 0);
}

nn::Var reference_mean_step_logits(const nn::LSTMCell& cell, const nn::Linear& head,
                                   const nn::Var& x_steps, const nn::Var& cond, long batch) {
  const long steps = step_count(x_steps, batch);
  nn::LstmState state = zero_state(batch, cell.hidden_size());
  nn::Var logit_sum;
  for (long t = 0; t < steps; ++t) {
    nn::Var x_t = nn::slice_axis(x_steps, 0, t * batch, batch);
    nn::Var x_proj = cell.project_input(nn::concat_axis({x_t, cond}, 1));
    state = reference_lstm_step(x_proj, state, cell.weight_h(), cell.bias());
    nn::Var logit = head.forward(state.h);
    logit_sum = logit_sum.defined() ? nn::add(logit_sum, logit) : logit;
  }
  return nn::mul_scalar(logit_sum, 1.0f / static_cast<float>(steps));
}

}  // namespace spectra::oracle

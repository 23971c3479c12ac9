#include "core/discriminators.h"

#include "util/error.h"

namespace spectra::core {

nn::Var mean_step_logits(const nn::LSTMCell& cell, const nn::Linear& head,
                         const nn::Var& x_steps, const nn::Var& cond, long batch) {
  SG_CHECK(x_steps.value().rank() == 2 && x_steps.value().dim(0) % batch == 0,
           "mean_step_logits expects step-major [T·B, D] steps");
  const long steps = x_steps.value().dim(0) / batch;
  nn::Var inputs = nn::concat_axis({x_steps, nn::tile0(cond, steps)}, /*axis=*/1);
  nn::Var logits = head.forward(cell.forward(inputs, batch));  // [T·B, 1]
  nn::Var logit_sum = nn::sum_axis0(nn::reshape(logits, {steps, batch, 1}));
  return nn::mul_scalar(logit_sum, 1.0f / static_cast<float>(steps));
}

SpectrumDiscriminator::SpectrumDiscriminator(const SpectraGanConfig& config, Rng& rng)
    : spectrum_size_(2 * config.spectrum_bins * config.patch.traffic_h * config.patch.traffic_w),
      hidden_size_(config.hidden_channels * config.patch.traffic_h * config.patch.traffic_w),
      mlp_({spectrum_size_ + hidden_size_, config.disc_mlp_hidden, config.disc_mlp_hidden, 1},
           nn::Activation::kLeakyRelu, nn::Activation::kNone, rng) {
  register_child(mlp_);
}

nn::Var SpectrumDiscriminator::forward(const nn::Var& spectrum, const nn::Var& hidden) const {
  const long batch = spectrum.value().dim(0);
  nn::Var spec_flat = nn::reshape(spectrum, {batch, spectrum_size_});
  nn::Var hidden_flat = nn::reshape(hidden, {batch, hidden_size_});
  return mlp_.forward(nn::concat_axis({spec_flat, hidden_flat}, /*axis=*/1));
}

TimeDiscriminator::TimeDiscriminator(const SpectraGanConfig& config, Rng& rng)
    : pixels_(config.patch.traffic_h * config.patch.traffic_w),
      stride_(config.disc_time_stride),
      cond_input_(config.hidden_channels * pixels_),
      condition_(cond_input_, config.cond_dim, rng),
      cell_(pixels_ + config.cond_dim, config.lstm_hidden, rng),
      head_(config.lstm_hidden, 1, rng) {
  register_child(condition_);
  register_child(cell_);
  register_child(head_);
}

nn::Var TimeDiscriminator::forward(const nn::Var& traffic, const nn::Var& hidden) const {
  SG_CHECK(traffic.value().rank() == 3, "TimeDiscriminator expects [B, T, P]");
  const long batch = traffic.value().dim(0);
  const long steps = traffic.value().dim(1);
  SG_CHECK(traffic.value().dim(2) == pixels_, "TimeDiscriminator pixel count mismatch");

  nn::Var cond =
      nn::vtanh(condition_.forward(nn::reshape(hidden, {batch, cond_input_})));

  // Critiquing every stride_-th step keeps the full temporal span in view
  // at a fraction of the recurrent cost. [B, T, P] -> step-major [T'·B, P].
  const long counted = (steps + stride_ - 1) / stride_;
  nn::Var strided = nn::slice_axis(traffic, /*axis=*/1, 0, counted, stride_);
  nn::Var x_steps = nn::reshape(nn::transpose01(strided), {counted * batch, pixels_});
  return mean_step_logits(cell_, head_, x_steps, cond, batch);
}

}  // namespace spectra::core

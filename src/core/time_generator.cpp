#include "core/time_generator.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.h"

namespace spectra::core {

nn::Var time_encoded_inputs(const nn::Var& cond, long steps, long steps_per_day,
                            bool include_week) {
  SG_CHECK(steps > 0 && steps_per_day > 0, "invalid time encoding geometry");
  SG_CHECK(cond.value().rank() == 2, "time_encoded_inputs expects cond [B, C]");
  const long batch = cond.value().dim(0);
  const long width = cond.value().dim(1);
  const long row = width + kTimeFeatures;
  // One [steps·B, C + 4] tensor built in place: a single node whose
  // backward sums each step's cond columns back into cond, t ascending.
  nn::Tensor inputs({steps * batch, row});
  const float* c = cond.value().data();
  for (long t = 0; t < steps; ++t) {
    const double day_phase = 2.0 * M_PI * static_cast<double>(t % steps_per_day) /
                             static_cast<double>(steps_per_day);
    const double week_phase = 2.0 * M_PI * static_cast<double>(t % (7 * steps_per_day)) /
                              static_cast<double>(7 * steps_per_day);
    const float clock[kTimeFeatures] = {
        static_cast<float>(std::sin(day_phase)), static_cast<float>(std::cos(day_phase)),
        include_week ? static_cast<float>(std::sin(week_phase)) : 0.0f,
        include_week ? static_cast<float>(std::cos(week_phase)) : 0.0f};
    for (long b = 0; b < batch; ++b) {
      float* out = inputs.data() + (t * batch + b) * row;
      std::copy(c + b * width, c + (b + 1) * width, out);
      std::copy(clock, clock + kTimeFeatures, out + width);
    }
  }
  return nn::Var::make_op(
      std::move(inputs), {cond},
      [steps, batch, width, row](const nn::Tensor& g, std::vector<nn::Var>& parents) {
        if (!parents[0].requires_grad()) return;
        float* gc = parents[0].grad_storage().data();
        for (long t = 0; t < steps; ++t) {
          for (long b = 0; b < batch; ++b) {
            const float* src = g.data() + (t * batch + b) * row;
            float* dst = gc + b * width;
            for (long j = 0; j < width; ++j) dst[j] += src[j];
          }
        }
      });
}

TimeGenerator::TimeGenerator(const SpectraGanConfig& config, Rng& rng)
    : pixels_(config.patch.traffic_h * config.patch.traffic_w),
      steps_per_day_(config.steps_per_day),
      cond_input_((config.hidden_channels + config.noise_channels) * pixels_),
      condition_(cond_input_, config.cond_dim, rng),
      lstm_(config.cond_dim + kTimeFeatures, config.lstm_hidden, pixels_, rng,
            nn::Activation::kNone) {
  register_child(condition_);
  register_child(lstm_);
}

nn::Var TimeGenerator::forward(const nn::Var& hidden, const nn::Var& noise, long steps) const {
  SG_CHECK(steps > 0, "TimeGenerator requires steps > 0");
  const long batch = hidden.value().dim(0);
  nn::Var flat = nn::reshape(nn::concat_axis({hidden, noise}, /*axis=*/1), {batch, cond_input_});
  nn::Var cond = nn::vtanh(condition_.forward(flat));
  const nn::Var outputs = lstm_.forward(time_encoded_inputs(cond, steps, steps_per_day_), batch);
  // [steps·B, P] -> [B, steps, P].
  return nn::transpose01(nn::reshape(outputs, {steps, batch, pixels_}));
}

}  // namespace spectra::core

// Adversarial critics (§2.2.3, Fig. 3b): a shared discriminator-side
// context encoder E^R feeding
//   * R^s — an MLP over the (masked) spectrum patch, and
//   * R^t — a batched LSTM over the time-domain patch,
// each emitting one real/fake logit per sample.

#pragma once

#include "core/config.h"
#include "core/encoder.h"
#include "nn/layers.h"
#include "nn/lstm.h"

namespace spectra::core {

// Recurrent critic over a step-major sequence: runs `cell` over the rows
// [x_t, cond] (x_steps is [T·B, D], cond is [B, C], so the cell input is
// D + C wide), applies `head` (out 1) to every hidden state as one
// product, and returns the mean over steps of the per-step logits, [B, 1],
// summed in t-ascending order. Shared by R^t and DoppelGANger's critic.
nn::Var mean_step_logits(const nn::LSTMCell& cell, const nn::Linear& head,
                         const nn::Var& x_steps, const nn::Var& cond, long batch);

class SpectrumDiscriminator : public nn::Module {
 public:
  SpectrumDiscriminator(const SpectraGanConfig& config, Rng& rng);

  // spectrum: [B, 2*Fgen, P]; hidden: [B, C_h, Ht, Wt]. Returns logits [B, 1].
  nn::Var forward(const nn::Var& spectrum, const nn::Var& hidden) const;

 private:
  long spectrum_size_;
  long hidden_size_;
  nn::Mlp mlp_;
};

class TimeDiscriminator : public nn::Module {
 public:
  TimeDiscriminator(const SpectraGanConfig& config, Rng& rng);

  // traffic: [B, T, P]; hidden: [B, C_h, Ht, Wt]. Returns logits [B, 1]
  // (mean of per-step critic outputs).
  nn::Var forward(const nn::Var& traffic, const nn::Var& hidden) const;

  const nn::Linear& condition() const { return condition_; }
  const nn::LSTMCell& cell() const { return cell_; }
  const nn::Linear& head() const { return head_; }
  long stride() const { return stride_; }

 private:
  long pixels_;
  long stride_;
  long cond_input_;
  nn::Linear condition_;
  nn::LSTMCell cell_;
  nn::Linear head_;
};

}  // namespace spectra::core

#include "nn/lstm.h"

#include <cmath>
#include <memory>
#include <vector>

#include "nn/gemm.h"
#include "nn/init.h"
#include "obs/profile.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace spectra::nn {

namespace {

// Forward products the backward pass of a recorded sequence needs, all
// step-major: activated gates [T·B, 4H] (columns i|f|g|o), cell states
// and tanh of them [T·B, H]. h is not kept: backward rebuilds h_{t-1} as
// o⊙tanh(c), the same product the forward pass rounded.
struct LstmSaved {
  std::vector<float> acts;
  std::vector<float> c;
  std::vector<float> tanh_c;
};

// Elementwise cost per step: ~40 nominal flops per hidden element (gate
// sums, three sigmoids, two tanhs, blends) plus the recurrent product.
void add_sequence_work(long steps, long batch, long hidden) {
  if (!obs::profile_enabled()) return;
  const double bh = static_cast<double>(batch) * static_cast<double>(hidden);
  const double t = static_cast<double>(steps);
  obs::profile_add_work(t * (2.0 * bh * 4.0 * static_cast<double>(hidden) + 40.0 * bh),
                        t * bh * 10.0 * 4.0);
}

}  // namespace

Var lstm_sequence(const Var& x_proj, const Var& weight_h, const Var& bias, long batch) {
  const Tensor& xp = x_proj.value();
  const Tensor& wh = weight_h.value();
  const Tensor& bv = bias.value();
  SG_CHECK(batch > 0, "lstm_sequence requires a positive batch");
  SG_CHECK(wh.rank() == 2 && wh.dim(0) > 0 && wh.dim(1) == 4 * wh.dim(0),
           "lstm_sequence weight_h must be [H, 4H]");
  const long hidden = wh.dim(0);
  const long gates = 4 * hidden;
  SG_CHECK(xp.rank() == 2 && xp.dim(1) == gates,
           "lstm_sequence x_proj must be [T·B, 4H], got " + shape_to_string(xp.shape()));
  SG_CHECK(xp.dim(0) % batch == 0,
           "lstm_sequence x_proj rows must be a multiple of the batch size");
  SG_CHECK(bv.rank() == 1 && bv.dim(0) == gates, "lstm_sequence bias must be [4H]");
  const long steps = xp.dim(0) / batch;
  const long bg = batch * gates;
  const long bh = batch * hidden;
  const bool record = !InferenceGuard::active() &&
                      (x_proj.requires_grad() || weight_h.requires_grad() || bias.requires_grad());

  SG_SCOPE("nn/lstm_step");
  add_sequence_work(steps, batch, hidden);

  // A recorded sequence keeps every step's gates and cell state; an
  // unrecorded one cycles through one step's worth (two for c, whose
  // previous step is still read).
  std::shared_ptr<LstmSaved> saved;
  if (record) {
    saved = std::make_shared<LstmSaved>();
    saved->acts.resize(static_cast<std::size_t>(steps * bg));
    saved->c.resize(static_cast<std::size_t>(steps * bh));
    saved->tanh_c.resize(static_cast<std::size_t>(steps * bh));
  }
  std::vector<float> work(static_cast<std::size_t>(bg + bh + (record ? 0 : bg + 3 * bh)));
  float* pre = work.data();   // h_{t-1}·W_hh
  float* zero = pre + bg;     // h_{-1} = c_{-1} = 0
  float* ring = zero + bh;    // unrecorded: acts, c[2], tanh_c

  Tensor h_out(Shape{steps * batch, hidden});
  const gemm::PackedB wh_packed(gemm::Trans::kNo, hidden, gates, wh.data(), gates);
  const float* bias_row = bv.data();
  for (long t = 0; t < steps; ++t) {
    const float* h_prev = t == 0 ? zero : h_out.data() + (t - 1) * bh;
    float* acts = record ? saved->acts.data() + t * bg : ring;
    float* c = record ? saved->c.data() + t * bh : ring + bg + (t % 2) * bh;
    const float* c_prev = t == 0 ? zero : (record ? c - bh : ring + bg + ((t + 1) % 2) * bh);
    float* tanh_c = record ? saved->tanh_c.data() + t * bh : ring + bg + 2 * bh;
    float* h = h_out.data() + t * bh;
    wh_packed.multiply(gemm::Trans::kNo, batch, h_prev, hidden, pre, gates, /*accumulate=*/false);
    for (long r = 0; r < batch; ++r) {
      const float* xrow = xp.data() + (t * batch + r) * gates;
      const float* prow = pre + r * gates;
      float* arow = acts + r * gates;
      // Gate pre-activations z = (x_proj + h_prev·W_hh) + b: the
      // association order of add(x_proj, matmul(h, W_hh)) then
      // add_rowvec. One loop per activation keeps the gate choice out
      // of the inner loop.
      const auto z = [&](long j) { return (xrow[j] + prow[j]) + bias_row[j]; };
      for (long j = 0; j < 2 * hidden; ++j) arow[j] = detail::stable_sigmoid(z(j));
      for (long j = 2 * hidden; j < 3 * hidden; ++j) arow[j] = std::tanh(z(j));
      for (long j = 3 * hidden; j < gates; ++j) arow[j] = detail::stable_sigmoid(z(j));
      const float* cprow = c_prev + r * hidden;
      float* crow = c + r * hidden;
      float* tcrow = tanh_c + r * hidden;
      float* hrow = h + r * hidden;
      for (long j = 0; j < hidden; ++j) {
        const float cv = (arow[hidden + j] * cprow[j]) + (arow[j] * arow[2 * hidden + j]);
        crow[j] = cv;
        tcrow[j] = std::tanh(cv);
        hrow[j] = arow[3 * hidden + j] * tcrow[j];
      }
    }
  }

  return Var::make_op(
      std::move(h_out), {x_proj, weight_h, bias},
      [saved, steps, batch, hidden, gates, bg, bh](const Tensor& dh_out,
                                                   std::vector<Var>& parents) {
        if (dh_out.numel() != steps * bh) return;  // no gradient reached h
        SG_SCOPE("nn/lstm_step");
        add_sequence_work(steps, batch, hidden);
        Var& p_xproj = parents[0];
        Var& p_wh = parents[1];
        Var& p_bias = parents[2];
        const float* acts = saved->acts.data();
        const float* cs = saved->c.data();
        const float* tcs = saved->tanh_c.data();

        // Reverse recurrence: only dh/dc are serial. dh_rec = dG_{t+1}·W_hhᵀ
        // and dc_rec = dc_{t+1}⊙f_{t+1} carry the gradient one step back;
        // every step's gate gradients land in dgates [T·B, 4H].
        std::vector<float> dgates(static_cast<std::size_t>(steps * bg));
        std::vector<float> carry(static_cast<std::size_t>(2 * bh), 0.0f);
        float* dh_rec = carry.data();
        float* dc_rec = dh_rec + bh;
        const gemm::PackedB wh_t(gemm::Trans::kTrans, gates, hidden, p_wh.value().data(), gates);
        for (long t = steps - 1; t >= 0; --t) {
          for (long r = 0; r < batch; ++r) {
            const long row = t * batch + r;
            const float* arow = acts + row * gates;
            const float* tcrow = tcs + row * hidden;
            const float* cprow = t == 0 ? nullptr : cs + (row - batch) * hidden;
            const float* dhrow = dh_out.data() + row * hidden;
            float* dhrec = dh_rec + r * hidden;
            float* dcrec = dc_rec + r * hidden;
            float* drow = dgates.data() + row * gates;
            for (long j = 0; j < hidden; ++j) {
              const float iv = arow[j];
              const float fv = arow[hidden + j];
              const float gv = arow[2 * hidden + j];
              const float ov = arow[3 * hidden + j];
              const float tc = tcrow[j];
              const float dh = dhrow[j] + dhrec[j];
              const float dc = dcrec[j] + (dh * ov) * (1.0f - tc * tc);
              const float cp = cprow == nullptr ? 0.0f : cprow[j];
              drow[j] = (dc * gv) * (iv * (1.0f - iv));
              drow[hidden + j] = (dc * cp) * (fv * (1.0f - fv));
              drow[2 * hidden + j] = (dc * iv) * (1.0f - gv * gv);
              drow[3 * hidden + j] = (dh * tc) * (ov * (1.0f - ov));
              dcrec[j] = dc * fv;
            }
          }
          if (t > 0) {
            wh_t.multiply(gemm::Trans::kNo, batch, dgates.data() + t * bg, gates, dh_rec, hidden,
                          /*accumulate=*/false);
          }
        }

        // Weight gradients: one product or reduction each over all rows.
        if (p_xproj.requires_grad()) {
          Tensor& gx = p_xproj.grad_storage();
          const long n = steps * bg;
          for (long idx = 0; idx < n; ++idx) gx[idx] += dgates[static_cast<std::size_t>(idx)];
        }
        if (p_wh.requires_grad()) {
          // dW_hh += H_prevᵀ·dG over steps 1..T-1 (h_{-1} = 0 adds
          // nothing), with H_prev rebuilt as o⊙tanh(c).
          float* gw = p_wh.grad_storage().data();
          const long rows = (steps - 1) * batch;
          std::vector<float> h_prev(static_cast<std::size_t>(rows * hidden));
          for (long row = 0; row < rows; ++row) {
            const float* arow = acts + row * gates;
            const float* tcrow = tcs + row * hidden;
            float* hrow = h_prev.data() + row * hidden;
            for (long j = 0; j < hidden; ++j) hrow[j] = arow[3 * hidden + j] * tcrow[j];
          }
          gemm::sgemm(gemm::Trans::kTrans, gemm::Trans::kNo, hidden, gates, rows, h_prev.data(),
                      hidden, dgates.data() + bg, gates, gw, gates, /*accumulate=*/true);
        }
        if (p_bias.requires_grad()) {
          // Column sums over all T·B rows, parallel over disjoint column
          // slices; each column stays row-ascending.
          float* pgb = p_bias.grad_storage().data();
          const float* pg = dgates.data();
          const long rows = steps * batch;
          parallel_for(static_cast<std::size_t>(gates), /*grain=*/16,
                       [&](std::size_t jb, std::size_t je) {
                         for (long i = 0; i < rows; ++i) {
                           const float* grow = pg + i * gates;
                           for (std::size_t j = jb; j < je; ++j) pgb[j] += grow[j];
                         }
                       });
        }
      });
}

LSTMCell::LSTMCell(long input_size, long hidden_size, Rng& rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  SG_CHECK(input_size > 0 && hidden_size > 0, "LSTMCell requires positive sizes");
  weight_x_ = register_parameter(
      init::xavier_uniform({input_size, 4 * hidden_size}, input_size, hidden_size, rng));
  weight_h_ = register_parameter(
      init::xavier_uniform({hidden_size, 4 * hidden_size}, hidden_size, hidden_size, rng));
  Tensor bias = init::zeros({4 * hidden_size});
  // Forget-gate bias at 1.0: standard trick so early training does not
  // immediately flush the cell state.
  for (long i = hidden_size; i < 2 * hidden_size; ++i) bias[i] = 1.0f;
  bias_ = register_parameter(std::move(bias));
}

Var LSTMCell::project_input(const Var& x) const {
  SG_CHECK(x.value().rank() == 2 && x.value().dim(1) == input_size_,
           "LSTMCell input must be [*, input_size]");
  return matmul(x, weight_x_);
}

Var LSTMCell::forward(const Var& x, long batch) const {
  return lstm_sequence(project_input(x), weight_h_, bias_, batch);
}

Lstm::Lstm(long input_size, long hidden_size, long output_size, Rng& rng,
           Activation output_activation)
    : cell_(input_size, hidden_size, rng),
      head_(hidden_size, output_size, rng),
      output_activation_(output_activation) {
  register_child(cell_);
  register_child(head_);
}

Var Lstm::head_outputs(const Var& hidden) const {
  return apply_activation(head_.forward(hidden), output_activation_);
}

Var Lstm::forward(const Var& inputs, long batch) const {
  SG_SCOPE("nn/lstm_forward");
  // The projection is a statement-local temporary: under InferenceGuard
  // it is freed before the head runs.
  const Var hidden = lstm_sequence(cell_.project_input(inputs), cell_.weight_h(), cell_.bias(), batch);
  return head_outputs(hidden);
}

Var Lstm::forward_repeat(const Var& input, long steps) const {
  SG_SCOPE("nn/lstm_forward");
  SG_CHECK(steps > 0, "forward_repeat requires steps > 0");
  // The input is static across steps, so one projection serves all of
  // them.
  const Var hidden = lstm_sequence(tile0(cell_.project_input(input), steps), cell_.weight_h(),
                                   cell_.bias(), input.value().dim(0));
  return head_outputs(hidden);
}

ConvLSTMCell::ConvLSTMCell(long input_channels, long hidden_channels, long kernel, Rng& rng)
    : input_channels_(input_channels),
      hidden_channels_(hidden_channels),
      gates_(input_channels + hidden_channels, 4 * hidden_channels, kernel,
             Conv2dSpec{.stride = 1, .padding = (kernel - 1) / 2}, rng) {
  SG_CHECK(kernel % 2 == 1, "ConvLSTMCell kernel must be odd to preserve extents");
  register_child(gates_);
}

LstmState ConvLSTMCell::initial_state(long batch, long height, long width) const {
  Tensor zero({batch, hidden_channels_, height, width});
  return {Var::constant(zero), Var::constant(std::move(zero))};
}

LstmState ConvLSTMCell::step(const Var& x, const LstmState& state) const {
  SG_CHECK(x.value().rank() == 4 && x.value().dim(1) == input_channels_,
           "ConvLSTMCell input must be [B, input_channels, H, W]");
  Var stacked = concat_axis({x, state.h}, /*axis=*/1);
  Var gates = gates_.forward(stacked);
  const long H = hidden_channels_;
  Var i = sigmoid(slice_axis(gates, 1, 0, H));
  Var f = sigmoid(slice_axis(gates, 1, H, H));
  Var g = vtanh(slice_axis(gates, 1, 2 * H, H));
  Var o = sigmoid(slice_axis(gates, 1, 3 * H, H));
  Var c_next = add(mul(f, state.c), mul(i, g));
  Var h_next = mul(o, vtanh(c_next));
  return {h_next, c_next};
}

}  // namespace spectra::nn

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "nn/init.h"
#include "nn/layers.h"
#include "nn/lstm.h"
#include "nn/optim.h"
#include "nn/serialize.h"
#include "support/lstm_reference.h"
#include "util/error.h"

namespace spectra::nn {
namespace {

TEST(InitTest, XavierBounds) {
  Rng rng(1);
  Tensor t = init::xavier_uniform({10, 20}, 10, 20, rng);
  const double bound = std::sqrt(6.0 / 30.0);
  for (long i = 0; i < t.numel(); ++i) {
    EXPECT_LE(std::fabs(t[i]), bound + 1e-6);
  }
}

TEST(InitTest, HeNormalVariance) {
  Rng rng(2);
  Tensor t = init::he_normal({200, 50}, 200, rng);
  double sum_sq = 0.0;
  for (long i = 0; i < t.numel(); ++i) sum_sq += static_cast<double>(t[i]) * static_cast<double>(t[i]);
  EXPECT_NEAR(sum_sq / static_cast<double>(t.numel()), 2.0 / 200.0, 2e-3);
}

TEST(InitTest, Zeros) {
  Tensor t = init::zeros({4, 4});
  EXPECT_FLOAT_EQ(t.sum(), 0.0f);
}

TEST(LinearTest, ForwardShapeAndValue) {
  Rng rng(3);
  Linear layer(4, 3, rng);
  Var x = Var::constant(Tensor({2, 4}, {1, 0, 0, 0, 0, 1, 0, 0}));
  Var y = layer.forward(x);
  EXPECT_EQ(y.value().dim(0), 2);
  EXPECT_EQ(y.value().dim(1), 3);
  EXPECT_THROW(layer.forward(Var::constant(Tensor({2, 5}))), spectra::Error);
}

TEST(LinearTest, ParameterCount) {
  Rng rng(4);
  Linear layer(10, 7, rng);
  EXPECT_EQ(layer.parameter_count(), 10 * 7 + 7);
  EXPECT_EQ(layer.parameters().size(), 2u);
}

TEST(MlpTest, HiddenAndOutputActivations) {
  Rng rng(5);
  Mlp mlp({3, 8, 1}, Activation::kRelu, Activation::kSigmoid, rng);
  Var x = Var::constant(Tensor({4, 3}));
  Var y = mlp.forward(x);
  EXPECT_EQ(y.value().dim(1), 1);
  for (long i = 0; i < y.value().numel(); ++i) {
    EXPECT_GE(y.value()[i], 0.0f);
    EXPECT_LE(y.value()[i], 1.0f);
  }
}

TEST(ConvStackTest, PreservesSpatialWithPadding) {
  Rng rng(6);
  ConvStack stack({3, 8, 2}, 3, Conv2dSpec{.stride = 1, .padding = 1}, Activation::kLeakyRelu,
                  Activation::kNone, rng);
  Var x = Var::constant(Tensor({2, 3, 5, 7}));
  Var y = stack.forward(x);
  EXPECT_EQ(y.value().dim(1), 2);
  EXPECT_EQ(y.value().dim(2), 5);
  EXPECT_EQ(y.value().dim(3), 7);
}

TEST(LstmCellTest, ForwardShapesAndStateEvolution) {
  Rng rng(7);
  LSTMCell cell(5, 8, rng);
  const long steps = 4, batch = 3;
  Var x = Var::constant(init::gaussian({steps * batch, 5}, 1.0f, rng));
  Var h = cell.forward(x, batch);
  ASSERT_EQ(h.value().dim(0), steps * batch);
  EXPECT_EQ(h.value().dim(1), 8);
  // Hidden states are bounded by tanh.
  for (long i = 0; i < h.value().numel(); ++i) EXPECT_LE(std::fabs(h.value()[i]), 1.0f);
}

TEST(LstmCellTest, ForgetBiasInitializedToOne) {
  Rng rng(8);
  LSTMCell cell(2, 4, rng);
  const std::vector<Var> params = cell.parameters();
  const Tensor& bias = params[2].value();  // wx, wh, bias registration order
  ASSERT_EQ(bias.numel(), 16);
  for (long i = 4; i < 8; ++i) EXPECT_FLOAT_EQ(bias[i], 1.0f);
  EXPECT_FLOAT_EQ(bias[0], 0.0f);
}

TEST(LstmTest, ForwardRepeatProducesSteps) {
  Rng rng(9);
  Lstm lstm(4, 6, 2, rng);
  const long batch = 3;
  Var input = Var::constant(init::gaussian({batch, 4}, 1.0f, rng));
  const Tensor outputs = lstm.forward_repeat(input, 10).value();
  ASSERT_EQ(outputs.dim(0), 10 * batch);
  EXPECT_EQ(outputs.dim(1), 2);
  // The recurrent state evolves: the first and last steps differ.
  bool any_diff = false;
  const long step = batch * 2;
  for (long i = 0; i < step; ++i) {
    if (std::fabs(static_cast<double>(outputs[i] - outputs[9 * step + i])) > 1e-6) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ConvLstmTest, StepPreservesGeometry) {
  Rng rng(10);
  ConvLSTMCell cell(3, 5, 3, rng);
  LstmState state = cell.initial_state(2, 4, 6);
  Var x = Var::constant(init::gaussian({2, 3, 4, 6}, 1.0f, rng));
  LstmState next = cell.step(x, state);
  EXPECT_EQ(next.h.value().dim(1), 5);
  EXPECT_EQ(next.h.value().dim(2), 4);
  EXPECT_EQ(next.h.value().dim(3), 6);
}

TEST(ConvLstmTest, EvenKernelRejected) {
  Rng rng(11);
  EXPECT_THROW(ConvLSTMCell(3, 5, 4, rng), spectra::Error);
}

TEST(OptimizerTest, SgdConvergesOnQuadratic) {
  // Minimize (w - 3)^2.
  Var w = Var::leaf(Tensor::scalar(0.0f));
  Sgd opt({w}, 0.1f);
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    Var loss = mul(add_scalar(w, -3.0f), add_scalar(w, -3.0f));
    loss.backward();
    opt.step();
  }
  EXPECT_NEAR(w.value()[0], 3.0f, 1e-3);
}

TEST(OptimizerTest, AdamFitsLinearRegression) {
  Rng rng(12);
  // y = x * W* with W* = [[2], [-1]].
  Tensor x_data = init::gaussian({64, 2}, 1.0f, rng);
  Tensor y_data({64, 1});
  for (long i = 0; i < 64; ++i) {
    y_data[i] = 2.0f * x_data[i * 2] - 1.0f * x_data[i * 2 + 1];
  }
  Linear model(2, 1, rng);
  Adam opt(model.parameters(), 0.05f);
  Var x = Var::constant(x_data);
  Var y = Var::constant(y_data);
  float final_loss = 1e9f;
  for (int i = 0; i < 300; ++i) {
    opt.zero_grad();
    Var loss = mse_loss(model.forward(x), y);
    loss.backward();
    opt.step();
    final_loss = loss.value()[0];
  }
  EXPECT_LT(final_loss, 1e-3f);
}

TEST(OptimizerTest, GradClipScalesLargeGradients) {
  Var w = Var::leaf(Tensor({2}, {1.0f, 1.0f}));
  Sgd opt({w}, 1.0f);
  opt.zero_grad();
  Var loss = sum(mul_scalar(w, 100.0f));
  loss.backward();
  opt.clip_grad_norm(1.0f);
  double norm_sq = 0.0;
  for (long i = 0; i < 2; ++i)
    norm_sq += static_cast<double>(w.grad()[i]) * static_cast<double>(w.grad()[i]);
  EXPECT_NEAR(std::sqrt(norm_sq), 1.0, 1e-4);
}

TEST(OptimizerTest, RejectsConstants) {
  EXPECT_THROW(Sgd({Var::constant(Tensor::scalar(1.0f))}, 0.1f), spectra::Error);
}

TEST(SerializeTest, RoundTripPreservesParameters) {
  Rng rng(13);
  Linear a(4, 3, rng);
  Linear b(4, 3, rng);  // different init
  const std::string path = testing::TempDir() + "/sg_params_test.bin";
  std::vector<Var> pa = a.parameters();
  save_parameters(path, pa);
  std::vector<Var> pb = b.parameters();
  load_parameters(path, pb);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (long j = 0; j < pa[i].value().numel(); ++j) {
      EXPECT_FLOAT_EQ(pa[i].value()[j], pb[i].value()[j]);
    }
  }
}

TEST(SerializeTest, ShapeMismatchRejected) {
  Rng rng(14);
  Linear a(4, 3, rng);
  Linear wrong(5, 3, rng);
  const std::string path = testing::TempDir() + "/sg_params_mismatch.bin";
  std::vector<Var> pa = a.parameters();
  save_parameters(path, pa);
  std::vector<Var> pw = wrong.parameters();
  EXPECT_THROW(load_parameters(path, pw), spectra::Error);
}

TEST(SerializeTest, MissingFileRejected) {
  Rng rng(15);
  Linear a(2, 2, rng);
  std::vector<Var> pa = a.parameters();
  EXPECT_THROW(load_parameters("/nonexistent/sg.bin", pa), spectra::Error);
}

// Parameterized sweep: MLP trained on a separable toy task converges for
// a range of widths.
class MlpWidthTest : public testing::TestWithParam<long> {};

TEST_P(MlpWidthTest, FitsXorLikeTask) {
  const long width = GetParam();
  Rng rng(16);
  Mlp mlp({2, width, 1}, Activation::kTanh, Activation::kNone, rng);
  // XOR corners.
  Tensor x({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  Tensor y({4, 1}, {0, 1, 1, 0});
  Adam opt(mlp.parameters(), 0.05f);
  float loss_v = 1e9f;
  for (int i = 0; i < 600; ++i) {
    opt.zero_grad();
    Var loss = mse_loss(mlp.forward(Var::constant(x)), Var::constant(y));
    loss.backward();
    opt.step();
    loss_v = loss.value()[0];
  }
  EXPECT_LT(loss_v, 0.05f) << "width " << width;
}

INSTANTIATE_TEST_SUITE_P(Widths, MlpWidthTest, testing::Values(4L, 8L, 16L));

// --- whole-sequence LSTM op vs the per-step composition (tests/support) ---
// lstm_sequence claims a bitwise-equal forward; its backward forms the
// weight gradients as one product over all T·B rows, so gradients match
// the per-step composition within a float-rounding bound.

void expect_bitwise(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  for (long i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " diverges at flat index " << i;
  }
}

// Max-abs difference relative to max(1, max |expected|).
float relative_max_abs(const Tensor& got, const Tensor& expected) {
  float diff = 0.0f, scale = 1.0f;
  for (long i = 0; i < expected.numel(); ++i) {
    diff = std::max(diff, std::fabs(got[i] - expected[i]));
    scale = std::max(scale, std::fabs(expected[i]));
  }
  return diff / scale;
}

struct SeqCase {
  long steps, batch, gates_in_hidden;
};

struct SeqRun {
  Tensor h;
  std::vector<Tensor> grads;  // x_proj, W_hh, bias
};

// Runs the op (or the per-step oracle) from fixed leaves; the loss
// weights every hidden state differently so each step's dh is distinct.
SeqRun run_sequence(long steps, long batch, long hidden, bool oracle_path) {
  Rng rng(static_cast<std::uint64_t>(1000 + steps * 31 + batch * 7 + hidden));
  Var x_proj = Var::leaf(init::gaussian({steps * batch, 4 * hidden}, 1.0f, rng));
  Var weight_h = Var::leaf(init::gaussian({hidden, 4 * hidden}, 0.4f, rng));
  Var bias = Var::leaf(init::gaussian({4 * hidden}, 0.5f, rng));
  const Tensor loss_weights = init::gaussian({steps * batch, hidden}, 1.0f, rng);
  Var h = oracle_path ? oracle::reference_lstm_sequence(x_proj, weight_h, bias, batch)
                      : lstm_sequence(x_proj, weight_h, bias, batch);
  sum(mul(h, Var::constant(loss_weights))).backward();
  return {h.value(), {x_proj.grad(), weight_h.grad(), bias.grad()}};
}

class LstmSequenceOracleTest : public testing::TestWithParam<SeqCase> {};

TEST_P(LstmSequenceOracleTest, ForwardBitwiseBackwardWithinBound) {
  const SeqCase c = GetParam();
  const SeqRun op = run_sequence(c.steps, c.batch, c.gates_in_hidden, false);
  const SeqRun ref = run_sequence(c.steps, c.batch, c.gates_in_hidden, true);
  expect_bitwise(op.h, ref.h, "hidden states");
  const char* names[] = {"x_proj", "W_hh", "bias"};
  float worst = 0.0f;
  for (std::size_t i = 0; i < op.grads.size(); ++i) {
    const float err = relative_max_abs(op.grads[i], ref.grads[i]);
    worst = std::max(worst, err);
    EXPECT_LE(err, 1e-5f) << "grad " << names[i];
  }
  std::printf("[oracle] lstm_sequence T=%ld B=%ld H=%ld grad relative max-abs %.3g\n", c.steps,
              c.batch, c.gates_in_hidden, static_cast<double>(worst));
}

// T = 1 and B = 1 edges, the trainer shape (T = 168, B = 6, H = 24) and
// the serve shape (T = 504, B = 16), plus H = 70 whose 4H = 280 spans two
// column blocks of the packed recurrent product.
INSTANTIATE_TEST_SUITE_P(Shapes, LstmSequenceOracleTest,
                         testing::Values(SeqCase{1, 5, 12}, SeqCase{9, 1, 12},
                                         SeqCase{1, 1, 4}, SeqCase{168, 6, 24},
                                         SeqCase{504, 16, 24}, SeqCase{6, 3, 70}));

TEST(LstmSequenceTest, RejectsMisshapenOperands) {
  Rng rng(45);
  const long hidden = 4;
  Var weight_h = Var::leaf(init::gaussian({hidden, 4 * hidden}, 0.4f, rng));
  Var bias = Var::leaf(Tensor({4 * hidden}));
  Var good = Var::leaf(init::gaussian({6, 4 * hidden}, 1.0f, rng));
  EXPECT_NO_THROW(lstm_sequence(good, weight_h, bias, 3));
  // x_proj must be [T·B, 4H]: wrong width, rank, or rows not a multiple of B.
  EXPECT_THROW(lstm_sequence(Var::leaf(Tensor({6, 4 * hidden - 1})), weight_h, bias, 3),
               spectra::Error);
  EXPECT_THROW(lstm_sequence(Var::leaf(Tensor({6 * 4 * hidden})), weight_h, bias, 3),
               spectra::Error);
  EXPECT_THROW(lstm_sequence(good, weight_h, bias, 4), spectra::Error);
  EXPECT_THROW(lstm_sequence(good, weight_h, bias, 0), spectra::Error);
  // W_hh must be [H, 4H] and the bias [4H].
  EXPECT_THROW(lstm_sequence(good, Var::leaf(Tensor({hidden, 3 * hidden})), bias, 3),
               spectra::Error);
  EXPECT_THROW(lstm_sequence(good, weight_h, Var::leaf(Tensor({hidden})), 3), spectra::Error);
}

TEST(LstmSequenceTest, InferenceModeMatchesRecordedForward) {
  Rng rng(46);
  Var x_proj = Var::leaf(init::gaussian({7 * 3, 4 * 5}, 1.0f, rng));
  Var weight_h = Var::leaf(init::gaussian({5, 4 * 5}, 0.4f, rng));
  Var bias = Var::leaf(init::gaussian({4 * 5}, 0.5f, rng));
  const Var recorded = lstm_sequence(x_proj, weight_h, bias, 3);
  EXPECT_TRUE(recorded.requires_grad());
  InferenceGuard no_grad;
  const Var unrecorded = lstm_sequence(x_proj, weight_h, bias, 3);
  EXPECT_FALSE(unrecorded.requires_grad());
  expect_bitwise(unrecorded.value(), recorded.value(), "inference forward");
}

TEST(LstmSequenceTest, LossOnLastStepOnlyMatchesOracle) {
  // Only the final hidden state reaches the loss: every earlier dh comes
  // from the recurrence alone.
  const long steps = 12, batch = 2, hidden = 6;
  auto run = [&](bool oracle_path) {
    Rng rng(47);
    Var x_proj = Var::leaf(init::gaussian({steps * batch, 4 * hidden}, 1.0f, rng));
    Var weight_h = Var::leaf(init::gaussian({hidden, 4 * hidden}, 0.4f, rng));
    Var bias = Var::leaf(init::gaussian({4 * hidden}, 0.5f, rng));
    Var h = oracle_path ? oracle::reference_lstm_sequence(x_proj, weight_h, bias, batch)
                        : lstm_sequence(x_proj, weight_h, bias, batch);
    sum(slice_axis(h, 0, (steps - 1) * batch, batch)).backward();
    return std::vector<Tensor>{x_proj.grad(), weight_h.grad(), bias.grad()};
  };
  const std::vector<Tensor> op = run(false);
  const std::vector<Tensor> ref = run(true);
  for (std::size_t i = 0; i < op.size(); ++i) EXPECT_LE(relative_max_abs(op[i], ref[i]), 1e-5f);
}

TEST(LstmSequenceTest, LstmForwardMatchesPerStepOracle) {
  // Lstm::forward at the trainer shape: batched projection, one sequence
  // node, one head product — forward bitwise, parameter and input
  // gradients within the bound.
  const long kSteps = 168, kBatch = 6, kIn = 28, kHidden = 24, kOut = 16;
  struct Run {
    Tensor out;
    std::vector<Tensor> grads;
  };
  auto run = [&](bool oracle_path) {
    Rng model_rng(91);
    Lstm lstm(kIn, kHidden, kOut, model_rng, Activation::kTanh);
    Rng data_rng(92);
    Var inputs = Var::leaf(init::gaussian({kSteps * kBatch, kIn}, 1.0f, data_rng));
    Var out = oracle_path ? oracle::reference_lstm_forward(lstm, inputs, kBatch)
                          : lstm.forward(inputs, kBatch);
    sum(out).backward();
    Run r{out.value(), {inputs.grad()}};
    for (const Var& p : lstm.parameters()) r.grads.push_back(p.grad());
    return r;
  };
  const Run op = run(false);
  const Run ref = run(true);
  expect_bitwise(op.out, ref.out, "lstm outputs");
  ASSERT_EQ(op.grads.size(), ref.grads.size());
  for (std::size_t i = 0; i < op.grads.size(); ++i) {
    EXPECT_LE(relative_max_abs(op.grads[i], ref.grads[i]), 1e-5f) << "grad " << i;
  }
}

}  // namespace
}  // namespace spectra::nn

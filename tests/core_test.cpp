// The SpectraGAN core: config validation, component shapes, the
// differentiable IFFT bridge (value + gradient), masked spectrum targets,
// a short training run and whole-city generation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "core/config.h"
#include "core/discriminators.h"
#include "core/encoder.h"
#include "core/fourier_bridge.h"
#include "core/losses.h"
#include "core/spectrum_generator.h"
#include "core/time_generator.h"
#include "core/trainer.h"
#include "core/variants.h"
#include "data/dataset.h"
#include "data/sampler.h"
#include "dsp/fft.h"
#include "dsp/spectrum.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "support/fft_bridge_reference.h"
#include "support/lstm_reference.h"
#include "util/error.h"

namespace spectra::core {
namespace {

SpectraGanConfig tiny_config() {
  SpectraGanConfig config;
  config.train_steps = 24;
  config.spectrum_bins = 8;
  config.hidden_channels = 6;
  config.encoder_mid_channels = 8;
  config.spectrum_mid_channels = 8;
  config.lstm_hidden = 8;
  config.cond_dim = 8;
  config.disc_mlp_hidden = 8;
  config.noise_channels = 2;
  config.iterations = 4;
  config.batch = 2;
  return config;
}

TEST(ConfigTest, DefaultsValidate) {
  EXPECT_NO_THROW(default_config().validate());
  EXPECT_NO_THROW(tiny_config().validate());
}

TEST(ConfigTest, InvalidSettingsRejected) {
  SpectraGanConfig bad = tiny_config();
  bad.spectrum_bins = 1000;  // > T/2+1
  EXPECT_THROW(bad.validate(), spectra::Error);
  bad = tiny_config();
  bad.use_spectrum_generator = false;
  bad.use_time_generator = false;
  EXPECT_THROW(bad.validate(), spectra::Error);
  bad = tiny_config();
  bad.mask_quantile = 1.5f;
  EXPECT_THROW(bad.validate(), spectra::Error);
}

TEST(ConfigTest, FullBins) {
  SpectraGanConfig config;
  config.train_steps = 168;
  EXPECT_EQ(config.full_bins(), 85);
}

TEST(VariantTest, AllNamesResolve) {
  for (const char* name :
       {"SpectraGAN", "SpectraGAN-", "Spec-only", "Time-only", "Time-only+"}) {
    EXPECT_NO_THROW(variant_config(name).validate()) << name;
  }
  EXPECT_THROW(variant_config("nonsense"), spectra::Error);
}

TEST(VariantTest, SwitchesMatchPaperDefinitions) {
  EXPECT_FALSE(spec_only_config().use_time_generator);
  EXPECT_FALSE(time_only_config().use_spectrum_generator);
  EXPECT_TRUE(time_only_plus_config().extra_time_generator);
  const SpectraGanConfig minus = pixel_context_config();
  EXPECT_EQ(minus.patch.context_h, minus.patch.traffic_h);
}

TEST(EncoderTest, OutputAlignedWithTrafficPatch) {
  SpectraGanConfig config = tiny_config();
  Rng rng(1);
  ContextEncoder encoder(config, rng);
  nn::Var ctx = nn::Var::constant(nn::init::gaussian(
      {3, config.context_channels, config.patch.context_h, config.patch.context_w}, 1.0f, rng));
  nn::Var h = encoder.forward(ctx);
  EXPECT_EQ(h.value().dim(1), config.hidden_channels);
  EXPECT_EQ(h.value().dim(2), config.patch.traffic_h);
  EXPECT_EQ(h.value().dim(3), config.patch.traffic_w);
}

TEST(EncoderTest, PixelContextVariantGeometry) {
  SpectraGanConfig config = tiny_config();
  config.patch.context_h = config.patch.traffic_h;
  config.patch.context_w = config.patch.traffic_w;
  Rng rng(2);
  ContextEncoder encoder(config, rng);
  nn::Var ctx = nn::Var::constant(nn::init::gaussian(
      {2, config.context_channels, config.patch.context_h, config.patch.context_w}, 1.0f, rng));
  EXPECT_EQ(encoder.forward(ctx).value().dim(2), config.patch.traffic_h);
}

TEST(SpectrumGeneratorTest, OutputShape) {
  SpectraGanConfig config = tiny_config();
  Rng rng(3);
  SpectrumGenerator gen(config, rng);
  nn::Var h = nn::Var::constant(
      nn::init::gaussian({2, config.hidden_channels, 4, 4}, 1.0f, rng));
  nn::Var z = nn::Var::constant(nn::init::gaussian({2, config.noise_channels, 4, 4}, 1.0f, rng));
  nn::Var spec = gen.forward(h, z);
  EXPECT_EQ(spec.value().dim(1), 2 * config.spectrum_bins);
  EXPECT_EQ(spec.value().dim(2), 4);
}

TEST(TimeGeneratorTest, OutputShape) {
  SpectraGanConfig config = tiny_config();
  Rng rng(4);
  TimeGenerator gen(config, rng);
  nn::Var h = nn::Var::constant(nn::init::gaussian({2, config.hidden_channels, 4, 4}, 1.0f, rng));
  nn::Var z = nn::Var::constant(nn::init::gaussian({2, config.noise_channels, 4, 4}, 1.0f, rng));
  nn::Var out = gen.forward(h, z, 30);
  EXPECT_EQ(out.value().dim(0), 2);
  EXPECT_EQ(out.value().dim(1), 30);
  EXPECT_EQ(out.value().dim(2), 16);
}

TEST(TimeGeneratorTest, TimeEncodedInputsAreStepMajorRows) {
  Rng rng(7);
  const long steps = 30, batch = 3, width = 5, day = 24;
  nn::Var cond = nn::Var::leaf(nn::init::gaussian({batch, width}, 1.0f, rng));
  for (bool week : {true, false}) {
    cond.zero_grad();
    const nn::Var x = time_encoded_inputs(cond, steps, day, week);
    ASSERT_EQ(x.value().dim(0), steps * batch);
    ASSERT_EQ(x.value().dim(1), width + kTimeFeatures);
    const nn::Tensor weights = nn::init::gaussian(x.value().shape(), 1.0f, rng);
    nn::sum(nn::mul(x, nn::Var::constant(weights))).backward();
    for (long t = 0; t < steps; ++t) {
      const double d = 2.0 * M_PI * static_cast<double>(t % day) / day;
      const double w = 2.0 * M_PI * static_cast<double>(t % (7 * day)) / (7 * day);
      const float clock[4] = {static_cast<float>(std::sin(d)), static_cast<float>(std::cos(d)),
                              week ? static_cast<float>(std::sin(w)) : 0.0f,
                              week ? static_cast<float>(std::cos(w)) : 0.0f};
      for (long b = 0; b < batch; ++b) {
        const float* row = x.value().data() + (t * batch + b) * (width + kTimeFeatures);
        for (long j = 0; j < width; ++j) ASSERT_EQ(row[j], cond.value()[b * width + j]);
        for (long j = 0; j < kTimeFeatures; ++j) ASSERT_EQ(row[width + j], clock[j]);
      }
    }
    // Each cond entry's gradient sums its column over every step.
    for (long b = 0; b < batch; ++b) {
      for (long j = 0; j < width; ++j) {
        float expected = 0.0f;
        for (long t = 0; t < steps; ++t) {
          expected += weights[(t * batch + b) * (width + kTimeFeatures) + j];
        }
        EXPECT_EQ(cond.grad()[b * width + j], expected);
      }
    }
  }
}

TEST(DiscriminatorTest, LogitShapes) {
  SpectraGanConfig config = tiny_config();
  Rng rng(5);
  SpectrumDiscriminator ds(config, rng);
  TimeDiscriminator dt(config, rng);
  nn::Var h = nn::Var::constant(nn::init::gaussian({3, config.hidden_channels, 4, 4}, 1.0f, rng));
  nn::Var spec = nn::Var::constant(
      nn::init::gaussian({3, 2 * config.spectrum_bins, 16}, 1.0f, rng));
  nn::Var traffic = nn::Var::constant(nn::init::gaussian({3, config.train_steps, 16}, 1.0f, rng));
  EXPECT_EQ(ds.forward(spec, h).value().dim(0), 3);
  EXPECT_EQ(ds.forward(spec, h).value().dim(1), 1);
  EXPECT_EQ(dt.forward(traffic, h).value().dim(1), 1);
}

TEST(FourierBridgeTest, MatchesDspIrfft) {
  const long T = 24;
  const long f_gen = 6;
  Rng rng(6);
  nn::Tensor spec = nn::init::gaussian({1, 2 * f_gen, 2}, 1.0f, rng);
  nn::Var out = irfft_bridge(nn::Var::constant(spec), T, 1);
  ASSERT_EQ(out.value().dim(1), T);

  // Reference: unpack pixel 0's bins (model emits Y/T; restore Y) and run
  // the dsp irfft.
  std::vector<dsp::Complex> full(static_cast<std::size_t>(T / 2 + 1), dsp::Complex(0, 0));
  for (long i = 0; i < f_gen; ++i) {
    full[static_cast<std::size_t>(i)] =
        dsp::Complex(spec[(2 * i) * 2 + 0], spec[(2 * i + 1) * 2 + 0]) * static_cast<double>(T);
  }
  const std::vector<double> expected = dsp::irfft(full, T);
  for (long t = 0; t < T; ++t) {
    EXPECT_NEAR(out.value()[t * 2 + 0], expected[static_cast<std::size_t>(t)], 1e-5);
  }
}

TEST(FourierBridgeTest, ExpansionTilesPeriodicSignal) {
  const long T = 24;
  const long f_gen = 4;
  nn::Tensor spec({1, 2 * f_gen, 1});
  spec[2 * 1 * 1] = 12.0f;  // re of bin 1 -> one cosine cycle per window
  nn::Var base = irfft_bridge(nn::Var::constant(spec), T, 1);
  nn::Var expanded = irfft_bridge(nn::Var::constant(spec), T, 3);
  ASSERT_EQ(expanded.value().dim(1), 3 * T);
  for (long t = 0; t < 3 * T; ++t) {
    EXPECT_NEAR(expanded.value()[t], base.value()[t % T], 1e-5);
  }
}

TEST(FourierBridgeTest, GradientMatchesFiniteDifference) {
  const long T = 16;
  const long f_gen = 5;
  Rng rng(7);
  nn::Tensor spec = nn::init::gaussian({1, 2 * f_gen, 1}, 1.0f, rng);

  auto loss_value = [&](const nn::Tensor& s) {
    nn::Var out = irfft_bridge(nn::Var::constant(s), T, 1);
    // Weighted sum so gradient is nontrivial.
    float acc = 0.0f;
    for (long t = 0; t < T; ++t) acc += static_cast<float>(t + 1) * out.value()[t];
    return acc;
  };

  nn::Var leaf = nn::Var::leaf(spec);
  nn::Var out = irfft_bridge(leaf, T, 1);
  nn::Tensor weights({1, T, 1});
  for (long t = 0; t < T; ++t) weights[t] = static_cast<float>(t + 1);
  nn::Var loss = nn::sum(nn::mul(out, nn::Var::constant(weights)));
  loss.backward();

  const float eps = 1e-2f;
  for (long i = 0; i < spec.numel(); ++i) {
    nn::Tensor plus = spec, minus = spec;
    plus[i] += eps;
    minus[i] -= eps;
    const float numeric = (loss_value(plus) - loss_value(minus)) / (2.0f * eps);
    EXPECT_NEAR(leaf.grad()[i], numeric, 2e-2f * std::max(1.0f, std::fabs(numeric)))
        << "element " << i;
  }
}

TEST(FourierBridgeTest, DcAndNyquistImaginaryHaveZeroGradient) {
  const long T = 16;
  const long f_gen = T / 2 + 1;  // includes the Nyquist bin
  Rng rng(8);
  nn::Var leaf = nn::Var::leaf(nn::init::gaussian({1, 2 * f_gen, 1}, 1.0f, rng));
  nn::Var loss = nn::sum(irfft_bridge(leaf, T, 1));
  loss.backward();
  EXPECT_FLOAT_EQ(leaf.grad()[1], 0.0f);                    // im(DC)
  EXPECT_FLOAT_EQ(leaf.grad()[2 * (f_gen - 1) + 1], 0.0f);  // im(Nyquist)
}

TEST(LossesTest, BatchSpectrumMatchesRfft) {
  const long T = 24;
  nn::Tensor traffic({1, T, 1});
  Rng rng(9);
  std::vector<double> series(static_cast<std::size_t>(T));
  for (long t = 0; t < T; ++t) {
    series[static_cast<std::size_t>(t)] = rng.uniform(0, 1);
    traffic[t] = static_cast<float>(series[static_cast<std::size_t>(t)]);
  }
  const nn::Tensor spec = batch_spectrum(traffic, 5);
  const std::vector<dsp::Complex> expected = dsp::rfft(series);  // targets are Y/T
  for (long i = 0; i < 5; ++i) {
    EXPECT_NEAR(spec[2 * i], expected[static_cast<std::size_t>(i)].real() / T, 1e-5);
    EXPECT_NEAR(spec[2 * i + 1], expected[static_cast<std::size_t>(i)].imag() / T, 1e-5);
  }
}

TEST(LossesTest, MaskedTargetZeroesWeakBins) {
  const long T = 48;
  nn::Tensor traffic({1, T, 1});
  for (long t = 0; t < T; ++t) {
    traffic[t] = static_cast<float>(1.0 + std::cos(2.0 * M_PI * 2.0 * static_cast<double>(t) /
                                                   static_cast<double>(T)));
  }
  const long f_gen = 10;
  const nn::Tensor masked = masked_spectrum_target(traffic, f_gen, 0.75);
  // Only DC (bin 0) and bin 2 carry energy; everything else must be 0.
  for (long i = 0; i < f_gen; ++i) {
    const double mag = std::hypot(masked[2 * i], masked[2 * i + 1]);
    if (i == 0 || i == 2) {
      EXPECT_GT(mag, 0.4);  // DC carries the mean (1.0), bin 2 half the cosine
    } else {
      EXPECT_NEAR(mag, 0.0, 1e-5);
    }
  }
}

// --- tolerance oracle: truncated-DFT GEMMs vs the per-series FFT loops ---

// One geometry of the oracle sweep and the max-abs error bound each use
// of the truncated-DFT basis must hold against the FFT reference
// (tests/support/fft_bridge_reference). Inputs are N(0, 1) spectra,
// output gradients and traffic; `f_gen = base_steps/2 + 1` is the full
// band, covering the DC and Nyquist edge bins.
struct OracleCase {
  long base_steps;
  long expand_k;
  long f_gen;
  float forward_bound;   // irfft_bridge value
  float backward_bound;  // irfft_bridge gradient
  float spectrum_bound;  // batch_spectrum / masked_spectrum_target at T = k*base_steps
};

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << "T" << c.base_steps << "_k" << c.expand_k << "_f" << c.f_gen;
}

class DftOracleTest : public testing::TestWithParam<OracleCase> {};

float max_abs_diff(const nn::Tensor& a, const nn::Tensor& b) {
  EXPECT_EQ(a.shape(), b.shape());
  float worst = 0.0f;
  for (long i = 0; i < a.numel(); ++i) worst = std::max(worst, std::fabs(a[i] - b[i]));
  return worst;
}

TEST_P(DftOracleTest, BridgeForwardAndBackwardMatchFftReference) {
  const OracleCase c = GetParam();
  const long t_out = c.expand_k * c.base_steps;
  Rng rng(static_cast<std::uint64_t>(t_out * 100 + c.f_gen));
  nn::Var leaf = nn::Var::leaf(nn::init::gaussian({2, 2 * c.f_gen, 3}, 1.0f, rng));
  const nn::Tensor upstream = nn::init::gaussian({2, t_out, 3}, 1.0f, rng);
  nn::Var out = irfft_bridge(leaf, c.base_steps, c.expand_k);
  nn::sum(nn::mul(out, nn::Var::constant(upstream))).backward();

  const float fwd_err =
      max_abs_diff(out.value(), oracle::reference_bridge_forward(leaf.value(), c.base_steps,
                                                                 c.expand_k));
  const float bwd_err = max_abs_diff(
      leaf.grad(), oracle::reference_bridge_backward(upstream, c.f_gen, c.base_steps, c.expand_k));
  EXPECT_LE(fwd_err, c.forward_bound);
  EXPECT_LE(bwd_err, c.backward_bound);
  // im(DC) has an exactly zero gradient; so has im(Nyquist) when the band
  // reaches it.
  EXPECT_EQ(leaf.grad()[1 * 3], 0.0f);
  if (2 * c.expand_k * (c.f_gen - 1) == t_out) {
    EXPECT_EQ(leaf.grad()[(2 * (c.f_gen - 1) + 1) * 3], 0.0f);
  }
  std::printf("[oracle] T*k=%ld f_gen=%ld bridge fwd max-abs %.3g, bwd max-abs %.3g\n", t_out,
              c.f_gen, static_cast<double>(fwd_err), static_cast<double>(bwd_err));
}

TEST_P(DftOracleTest, SpectrumTargetsMatchFftReference) {
  const OracleCase c = GetParam();
  // The targets see the k*base_steps series directly; a full-band case
  // stays full band at that length.
  const long T = c.expand_k * c.base_steps;
  const long f_gen = c.f_gen == c.base_steps / 2 + 1 ? T / 2 + 1 : c.f_gen;
  Rng rng(static_cast<std::uint64_t>(T * 100 + f_gen + 1));
  const nn::Tensor traffic = nn::init::gaussian({2, T, 5}, 1.0f, rng);
  const nn::Tensor plain = batch_spectrum(traffic, f_gen);
  const nn::Tensor plain_ref = oracle::reference_batch_spectrum(traffic, f_gen);
  const float spec_err = max_abs_diff(plain, plain_ref);
  EXPECT_LE(spec_err, c.spectrum_bound);

  // Masked target: kept bins agree within the bound; a mask bit may flip
  // only where the bin's magnitude is within the bound of its series'
  // quantile threshold.
  const double q = 0.75;
  const nn::Tensor masked = masked_spectrum_target(traffic, f_gen, q);
  const nn::Tensor masked_ref = oracle::reference_masked_spectrum_target(traffic, f_gen, q);
  const long P = traffic.dim(2);
  long flips = 0;
  for (long b = 0; b < traffic.dim(0); ++b) {
    for (long p = 0; p < P; ++p) {
      auto at = [&](long i) { return (b * 2 * f_gen + i) * P + p; };
      std::vector<double> mags(static_cast<std::size_t>(f_gen));
      for (long i = 0; i < f_gen; ++i) {
        mags[static_cast<std::size_t>(i)] =
            std::hypot(plain_ref[at(2 * i)], plain_ref[at(2 * i + 1)]);
      }
      const double threshold = dsp::quantile(mags, q);
      for (long i = 0; i < f_gen; ++i) {
        const bool kept = masked[at(2 * i)] != 0.0f || masked[at(2 * i + 1)] != 0.0f;
        const bool kept_ref = masked_ref[at(2 * i)] != 0.0f || masked_ref[at(2 * i + 1)] != 0.0f;
        if (kept != kept_ref) {
          ++flips;
          EXPECT_LE(std::fabs(mags[static_cast<std::size_t>(i)] - threshold), c.spectrum_bound)
              << "mask bit flipped away from the threshold at b=" << b << " p=" << p
              << " bin=" << i;
        } else if (kept) {
          EXPECT_LE(std::fabs(masked[at(2 * i)] - masked_ref[at(2 * i)]), c.spectrum_bound);
          EXPECT_LE(std::fabs(masked[at(2 * i + 1)] - masked_ref[at(2 * i + 1)]), c.spectrum_bound);
        }
      }
    }
  }
  std::printf("[oracle] T=%ld f_gen=%ld spectrum max-abs %.3g, mask flips %ld\n", T, f_gen,
              static_cast<double>(spec_err), flips);
}

// Max-abs bounds per length, 3-8x the measured error (printed as
// [oracle] lines): float accumulation error grows with the reduction
// length and the output magnitude, so the bridge bounds grow with T*k.
// Spectrum targets are normalized by 1/T and stay near float epsilon.
INSTANTIATE_TEST_SUITE_P(
    Lengths, DftOracleTest,
    testing::Values(OracleCase{24, 1, 6, 5e-6f, 1e-5f, 5e-7f},
                    OracleCase{24, 1, 13, 5e-6f, 1e-5f, 5e-7f},
                    OracleCase{168, 1, 28, 1e-4f, 1e-4f, 5e-7f},
                    OracleCase{168, 1, 85, 1e-4f, 1e-4f, 5e-7f},
                    OracleCase{168, 2, 28, 1e-4f, 1.5e-4f, 5e-7f},
                    OracleCase{168, 2, 85, 1e-4f, 1.5e-4f, 5e-7f},
                    OracleCase{168, 3, 28, 1e-4f, 2e-4f, 5e-7f},
                    OracleCase{168, 3, 85, 1e-4f, 2e-4f, 5e-7f}));

TEST(SpectraGanTest, ParameterPartition) {
  SpectraGan model(tiny_config(), 11);
  EXPECT_GT(model.generator_parameters().size(), 0u);
  EXPECT_GT(model.discriminator_parameters().size(), 0u);
}

TEST(SpectraGanTest, ShortTrainingRunsAndGenerates) {
  data::DatasetConfig dc;
  dc.weeks = 1;
  data::CountryDataset dataset = data::make_country2(dc);

  SpectraGanConfig config = tiny_config();
  SpectraGan model(config, 12);
  data::PatchSampler sampler(dataset, {0, 1}, config.patch, 0, config.train_steps);
  Rng rng(13);
  const TrainStats stats = model.train(sampler, rng);
  EXPECT_EQ(stats.iterations, config.iterations);
  EXPECT_TRUE(std::isfinite(stats.final_l1_loss));

  const data::City& target = dataset.cities[2];
  const geo::CityTensor out = model.generate_city(target.context, 2 * config.train_steps, rng);
  EXPECT_EQ(out.steps(), 2 * config.train_steps);
  EXPECT_EQ(out.height(), target.height());
  for (double v : out.values()) EXPECT_GE(v, 0.0);
}

TEST(SpectraGanTest, GenerationRequiresMultipleOfTrainingWindow) {
  SpectraGanConfig config = tiny_config();
  SpectraGan model(config, 14);
  geo::ContextTensor context(config.context_channels, 12, 12);
  Rng rng(15);
  EXPECT_THROW(model.generate_city(context, config.train_steps + 1, rng), spectra::Error);
  EXPECT_THROW(model.generate_city(geo::ContextTensor(5, 12, 12), config.train_steps, rng),
               spectra::Error);
}

TEST(SpectraGanTest, SaveLoadReproducesGeneration) {
  SpectraGanConfig config = tiny_config();
  SpectraGan a(config, 16);
  SpectraGan b(config, 999);  // different init
  const std::string path = testing::TempDir() + "/sg_model.bin";
  a.save(path);
  b.load(path);

  geo::ContextTensor context(config.context_channels, 12, 12);
  Rng rng_fill(17);
  for (double& v : context.values()) v = rng_fill.uniform(0, 1);
  Rng rng_a(21), rng_b(21);
  const geo::CityTensor out_a = a.generate_city(context, config.train_steps, rng_a);
  const geo::CityTensor out_b = b.generate_city(context, config.train_steps, rng_b);
  for (long i = 0; i < out_a.size(); ++i) {
    EXPECT_NEAR(out_a[i], out_b[i], 1e-6);
  }
}

class VariantTrainingTest : public testing::TestWithParam<const char*> {};

TEST_P(VariantTrainingTest, EachVariantTrainsAndGenerates) {
  data::DatasetConfig dc;
  dc.weeks = 1;
  data::CountryDataset dataset = data::make_country2(dc);

  SpectraGanConfig config = variant_config(GetParam());
  // Shrink to test scale.
  config.train_steps = 24;
  config.spectrum_bins = 8;
  config.hidden_channels = 6;
  config.encoder_mid_channels = 8;
  config.spectrum_mid_channels = 8;
  config.lstm_hidden = 8;
  config.cond_dim = 8;
  config.disc_mlp_hidden = 8;
  config.iterations = 3;
  config.batch = 2;

  SpectraGan model(config, 22);
  data::PatchSampler sampler(dataset, {0}, config.patch, 0, config.train_steps);
  Rng rng(23);
  EXPECT_NO_THROW(model.train(sampler, rng));
  const geo::CityTensor out =
      model.generate_city(dataset.cities[1].context, config.train_steps, rng);
  EXPECT_EQ(out.steps(), config.train_steps);
}

INSTANTIATE_TEST_SUITE_P(Variants, VariantTrainingTest,
                         testing::Values("SpectraGAN", "SpectraGAN-", "Spec-only", "Time-only",
                                         "Time-only+"));

// --- recurrent critics and generators vs the per-step oracle ---
// G^t, R^t and DoppelGANger's generator and critic run each sequence as
// one nn::lstm_sequence node with batched products around it. Their
// forward values must equal the per-step composition (tests/support)
// bitwise; gradients may differ only by the summation order of the
// batched weight products, within kRecurrentGradBound of max(1, |ref|).
constexpr float kRecurrentGradBound = 2e-5f;

float relative_max_abs(const nn::Tensor& got, const nn::Tensor& expected) {
  EXPECT_TRUE(got.same_shape(expected));
  float diff = 0.0f, scale = 1.0f;
  for (long i = 0; i < expected.numel(); ++i) {
    diff = std::max(diff, std::fabs(got[i] - expected[i]));
    scale = std::max(scale, std::fabs(expected[i]));
  }
  return diff / scale;
}

void expect_values_bitwise(const nn::Tensor& got, const nn::Tensor& expected, const char* what) {
  ASSERT_TRUE(got.same_shape(expected)) << what;
  for (long i = 0; i < expected.numel(); ++i) {
    ASSERT_EQ(got[i], expected[i]) << what << " diverges at flat index " << i;
  }
}

// Runs `forward` on both paths from the same leaves and compares the
// outputs bitwise and the gradients of `params` + `inputs` within the
// bound; returns the worst relative gradient difference.
template <typename Fwd>
float compare_with_oracle(const std::vector<nn::Var>& params, std::vector<nn::Var> inputs,
                          Fwd forward, const char* what) {
  auto run = [&](bool oracle_path) {
    for (nn::Var p : params) p.zero_grad();
    for (nn::Var& x : inputs) x = nn::Var::leaf(x.value());
    nn::Var out = forward(oracle_path, inputs);
    nn::sum(nn::mul(out, out)).backward();
    std::vector<nn::Tensor> tensors{out.value()};
    for (const nn::Var& p : params) tensors.push_back(p.grad());
    for (const nn::Var& x : inputs) tensors.push_back(x.grad());
    return tensors;
  };
  const std::vector<nn::Tensor> op = run(false);
  const std::vector<nn::Tensor> ref = run(true);
  expect_values_bitwise(op[0], ref[0], what);
  float worst = 0.0f;
  for (std::size_t i = 1; i < op.size(); ++i) {
    const float err = relative_max_abs(op[i], ref[i]);
    worst = std::max(worst, err);
    EXPECT_LE(err, kRecurrentGradBound) << what << " gradient " << i;
  }
  return worst;
}

class RecurrentOracleTest : public testing::TestWithParam<long> {};

TEST_P(RecurrentOracleTest, TimeGeneratorMatchesPerStepOracle) {
  const long steps = GetParam();
  const SpectraGanConfig config;
  Rng rng(61);
  TimeGenerator gen(config, rng);
  const long batch = config.batch, side = config.patch.traffic_h;
  nn::Var h = nn::Var::constant(
      nn::init::gaussian({batch, config.hidden_channels, side, side}, 1.0f, rng));
  nn::Var z = nn::Var::constant(
      nn::init::gaussian({batch, config.noise_channels, side, side}, 1.0f, rng));
  const float worst = compare_with_oracle(
      gen.parameters(), {h, z}, [&](bool oracle_path, const std::vector<nn::Var>& in) {
        if (!oracle_path) return gen.forward(in[0], in[1], steps);
        nn::Var flat = nn::reshape(nn::concat_axis({in[0], in[1]}, 1),
                                   {batch, (config.hidden_channels + config.noise_channels) *
                                               side * side});
        nn::Var cond = nn::vtanh(gen.condition().forward(flat));
        nn::Var out = oracle::reference_lstm_forward(
            gen.lstm(), time_encoded_inputs(cond, steps, gen.steps_per_day()), batch);
        return nn::transpose01(nn::reshape(out, {steps, batch, side * side}));
      }, "G^t");
  std::printf("[oracle] G^t T*k=%ld grad relative max-abs %.3g\n", steps,
              static_cast<double>(worst));
}

TEST_P(RecurrentOracleTest, TimeDiscriminatorMatchesPerStepOracle) {
  const long steps = GetParam();
  const SpectraGanConfig config;
  Rng rng(62);
  TimeDiscriminator critic(config, rng);
  const long batch = config.batch, side = config.patch.traffic_h, pixels = side * side;
  nn::Var traffic = nn::Var::constant(nn::init::gaussian({batch, steps, pixels}, 1.0f, rng));
  nn::Var h = nn::Var::constant(
      nn::init::gaussian({batch, config.hidden_channels, side, side}, 1.0f, rng));
  const float worst = compare_with_oracle(
      critic.parameters(), {traffic, h}, [&](bool oracle_path, const std::vector<nn::Var>& in) {
        if (!oracle_path) return critic.forward(in[0], in[1]);
        // The pre-sequence R^t: one [B, P] slice per critiqued step.
        nn::Var cond = nn::vtanh(critic.condition().forward(
            nn::reshape(in[1], {batch, config.hidden_channels * pixels})));
        std::vector<nn::Var> rows;
        for (long t = 0; t < steps; t += critic.stride()) {
          rows.push_back(nn::reshape(nn::slice_axis(in[0], 1, t, 1), {batch, pixels}));
        }
        return oracle::reference_mean_step_logits(critic.cell(), critic.head(),
                                                  nn::concat_axis(rows, 0), cond, batch);
      }, "R^t");
  std::printf("[oracle] R^t T*k=%ld grad relative max-abs %.3g\n", steps,
              static_cast<double>(worst));
}

// DoppelGANger's generator and critic at its own shapes: a cond+4 -> 1
// sigmoid LSTM over the day-clock inputs, and a per-step scalar critic.
TEST_P(RecurrentOracleTest, DoppelGangerRecurrencesMatchPerStepOracle) {
  const long steps = GetParam();
  const SpectraGanConfig config;
  Rng rng(63);
  nn::Lstm gen(config.cond_dim + kTimeFeatures, config.lstm_hidden, 1, rng,
               nn::Activation::kSigmoid);
  nn::LSTMCell disc_cell(1 + config.cond_dim, config.lstm_hidden, rng);
  nn::Linear disc_head(config.lstm_hidden, 1, rng);
  const long batch = config.batch;
  nn::Var cond = nn::Var::constant(nn::init::gaussian({batch, config.cond_dim}, 0.5f, rng));
  const float gen_worst = compare_with_oracle(
      gen.parameters(), {cond}, [&](bool oracle_path, const std::vector<nn::Var>& in) {
        nn::Var x = time_encoded_inputs(in[0], steps, config.steps_per_day, false);
        return oracle_path ? oracle::reference_lstm_forward(gen, x, batch) : gen.forward(x, batch);
      }, "DoppelGANger generator");

  std::vector<nn::Var> disc_params = disc_cell.parameters();
  for (const nn::Var& p : disc_head.parameters()) disc_params.push_back(p);
  nn::Var series = nn::Var::constant(nn::init::gaussian({batch, steps}, 1.0f, rng));
  const float disc_worst = compare_with_oracle(
      disc_params, {series, cond}, [&](bool oracle_path, const std::vector<nn::Var>& in) {
        nn::Var x_steps = nn::reshape(nn::transpose01(in[0]), {steps * batch, 1});
        return oracle_path
                   ? oracle::reference_mean_step_logits(disc_cell, disc_head, x_steps, in[1], batch)
                   : mean_step_logits(disc_cell, disc_head, x_steps, in[1], batch);
      }, "DoppelGANger critic");
  std::printf("[oracle] DoppelGANger T=%ld grad relative max-abs gen %.3g critic %.3g\n", steps,
              static_cast<double>(gen_worst), static_cast<double>(disc_worst));
}

INSTANTIATE_TEST_SUITE_P(Lengths, RecurrentOracleTest, testing::Values(168L, 504L));

}  // namespace
}  // namespace spectra::core

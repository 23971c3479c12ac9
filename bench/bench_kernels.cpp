// Kernel-level throughput bench (DESIGN.md §6c): GEMM / conv2d / LSTM /
// Fourier bridge at the shapes the SpectraGAN trainer and server actually
// run, each measured against the direct kernel it replaced so the
// speedup is computed within one run on one machine. Emits
// BENCH_KERNELS.json (override with SPECTRA_BENCH_OUT) — the seed point
// of the kernel perf trajectory; CI re-runs this at reduced iterations
// and fails if any kernel's speedup regresses >20% against the committed
// baseline (scripts/check_bench_kernels.py).
//
// Knobs: SPECTRA_BENCH_ITERS (timed iterations per kernel, default 200),
// SPECTRA_THREADS (kernels are measured at 1 thread — the single-thread
// speedup is the contract; the parallel layer is bench_parallel_scaling's
// subject).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.h"
#include "core/fourier_bridge.h"
#include "nn/autograd.h"
#include "nn/conv.h"
#include "nn/gemm.h"
#include "nn/init.h"
#include "nn/lstm.h"
#include "nn/ops.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "support/fft_bridge_reference.h"
#include "support/lstm_reference.h"
#include "util/env.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace spectra;

struct KernelResult {
  std::string name;
  std::string shape;
  double flops_per_call = 0.0;
  double seconds_ref = 0.0;
  double seconds_new = 0.0;
  double speedup() const { return seconds_new > 0.0 ? seconds_ref / seconds_new : 0.0; }
  double gflops(double seconds) const {
    return seconds > 0.0 ? flops_per_call / seconds * 1e-9 : 0.0;
  }
};

long g_iters = 200;

// Paired protocol: alternate blocks of kPairBlock reference calls and
// kPairBlock new calls until each side has run `g_iters` times, and
// average each side. A host speed change during a row then lands on
// both sides of its ratio instead of on one. Each block starts with one
// untimed call that re-warms the caches the other side's block evicted
// (and, the first time, grows the workspace arenas), so each side is
// timed warm, as when it ran all its calls in one stretch.
//
// Probes are off inside the timed loops. The kernels carry SG_SCOPEs that
// the references they replaced do not, so with SPECTRA_TRACE or
// SPECTRA_PROFILE set the probes would land on one side of each ratio.
// The untimed call that opens each block still records, so a traced or
// profiled run keeps one probe tree per block.
constexpr long kPairBlock = 10;

template <typename RefFn, typename NewFn>
void time_pair(KernelResult& r, RefFn&& ref, NewFn&& fresh) {
  using Clock = std::chrono::steady_clock;
  const bool profiling = obs::profile_enabled();
  const bool tracing = obs::trace_enabled();
  auto time_block = [&](auto& fn, long block) {
    obs::profile_set_enabled(false);
    obs::trace_set_enabled(false);
    const Clock::time_point start = Clock::now();
    for (long i = 0; i < block; ++i) fn();
    const Clock::duration elapsed = Clock::now() - start;
    obs::profile_set_enabled(profiling);
    obs::trace_set_enabled(tracing);
    return elapsed;
  };
  Clock::duration ref_total{};
  Clock::duration new_total{};
  for (long done = 0; done < g_iters; done += kPairBlock) {
    const long block = std::min(kPairBlock, g_iters - done);
    ref();
    ref_total += time_block(ref, block);
    fresh();
    new_total += time_block(fresh, block);
  }
  const double iters = static_cast<double>(g_iters);
  r.seconds_ref = std::chrono::duration<double>(ref_total).count() / iters;
  r.seconds_new = std::chrono::duration<double>(new_total).count() / iters;
}

// The pre-PR matmul kernel, verbatim: serial triple loop with the
// zero-skip branch (src/nn/ops.cpp before the GEMM routing).
void naive_matmul(long m, long k, long n, const float* pa, const float* pb, float* py) {
  for (long i = 0; i < m * n; ++i) py[i] = 0.0f;
  for (long i = 0; i < m; ++i) {
    for (long p = 0; p < k; ++p) {
      const float av = pa[i * k + p];
      if (av == 0.0f) continue;
      const float* brow = pb + p * n;
      float* yrow = py + i * n;
      for (long j = 0; j < n; ++j) yrow[j] += av * brow[j];
    }
  }
}

KernelResult bench_matmul(const std::string& name, long m, long k, long n) {
  Rng rng(5);
  const nn::Tensor a = nn::init::gaussian({m, k}, 1.0f, rng);
  const nn::Tensor b = nn::init::gaussian({k, n}, 1.0f, rng);
  nn::Tensor y({m, n});

  KernelResult r;
  r.name = name;
  r.shape = "[" + std::to_string(m) + "x" + std::to_string(k) + "]*[" + std::to_string(k) + "x" +
            std::to_string(n) + "]";
  r.flops_per_call = 2.0 * static_cast<double>(m) * static_cast<double>(k) * static_cast<double>(n);
  time_pair(
      r, [&] { naive_matmul(m, k, n, a.data(), b.data(), y.data()); },
      [&] {
        nn::gemm::sgemm(nn::gemm::Trans::kNo, nn::gemm::Trans::kNo, m, n, k, a.data(), k,
                        b.data(), n, y.data(), n, /*accumulate=*/false);
      });
  return r;
}

KernelResult bench_conv_forward(const std::string& name, long N, long C, long H, long W, long O,
                                long kernel, long stride, long padding) {
  Rng rng(7);
  const nn::Var x = nn::Var::constant(nn::init::gaussian({N, C, H, W}, 1.0f, rng));
  const nn::Var w = nn::Var::constant(nn::init::gaussian({O, C, kernel, kernel}, 0.5f, rng));
  const nn::Var b = nn::Var::constant(nn::init::gaussian({O}, 0.5f, rng));
  const long Ho = nn::conv2d_out_extent(H, kernel, stride, padding);
  const long Wo = nn::conv2d_out_extent(W, kernel, stride, padding);

  KernelResult r;
  r.name = name;
  r.shape = "x[" + std::to_string(N) + "," + std::to_string(C) + "," + std::to_string(H) + "," +
            std::to_string(W) + "] w[" + std::to_string(O) + "," + std::to_string(C) + "," +
            std::to_string(kernel) + "," + std::to_string(kernel) + "] s" +
            std::to_string(stride) + " p" + std::to_string(padding);
  r.flops_per_call = 2.0 * static_cast<double>(N * O * C * kernel * kernel * Ho * Wo);
  nn::InferenceGuard guard;  // forward only: no graph bookkeeping in the timing
  nn::Conv2dSpec direct{.stride = stride, .padding = padding, .impl = nn::Conv2dImpl::kDirect};
  nn::Conv2dSpec lowered{.stride = stride, .padding = padding, .impl = nn::Conv2dImpl::kIm2col};
  time_pair(r, [&] { nn::conv2d(x, w, b, direct); },
            [&] { nn::conv2d(x, w, b, lowered); });
  return r;
}

KernelResult bench_conv_train_step(const std::string& name, long N, long C, long H, long W, long O,
                                   long kernel, long stride, long padding) {
  Rng rng(9);
  nn::Var x = nn::Var::leaf(nn::init::gaussian({N, C, H, W}, 1.0f, rng));
  nn::Var w = nn::Var::leaf(nn::init::gaussian({O, C, kernel, kernel}, 0.5f, rng));
  nn::Var b = nn::Var::leaf(nn::init::gaussian({O}, 0.5f, rng));
  const long Ho = nn::conv2d_out_extent(H, kernel, stride, padding);
  const long Wo = nn::conv2d_out_extent(W, kernel, stride, padding);

  KernelResult r;
  r.name = name;
  r.shape = "fwd+bwd x[" + std::to_string(N) + "," + std::to_string(C) + "," + std::to_string(H) +
            "," + std::to_string(W) + "] w[" + std::to_string(O) + ",...," +
            std::to_string(kernel) + "]";
  // forward + dx + dw ≈ 3× the forward contraction.
  r.flops_per_call = 3.0 * 2.0 * static_cast<double>(N * O * C * kernel * kernel * Ho * Wo);
  auto run = [&](nn::Conv2dImpl impl) {
    nn::Conv2dSpec spec{.stride = stride, .padding = padding, .impl = impl};
    x.zero_grad(), w.zero_grad(), b.zero_grad();
    nn::sum(nn::conv2d(x, w, b, spec)).backward();
  };
  time_pair(r, [&] { run(nn::Conv2dImpl::kDirect); },
            [&] { run(nn::Conv2dImpl::kIm2col); });
  return r;
}

// Shared setup of the LSTM rows: the G^t-shaped layer and a step-major
// [T·B, in] input.
struct LstmBench {
  LstmBench(long T_, long B_, long in, long hidden, long out)
      : T(T_), B(B_), model_rng(13), lstm(in, hidden, out, model_rng, nn::Activation::kNone) {
    Rng rng(15);
    inputs = nn::Var::constant(nn::init::gaussian({T * B, in}, 1.0f, rng));
  }

  // Contraction flops of one forward: input projection, recurrent
  // product and head, per step.
  double forward_flops() const {
    const nn::LSTMCell& cell = lstm.cell();
    const long in = cell.input_size(), hidden = cell.hidden_size();
    const long out = lstm.head().out_features();
    return static_cast<double>(T) * 2.0 *
           static_cast<double>(B * (in * 4 * hidden + hidden * 4 * hidden + hidden * out));
  }

  std::string shape(const char* mode) const {
    return std::string(mode) + " T=" + std::to_string(T) + " B=" + std::to_string(B) +
           " in=" + std::to_string(lstm.cell().input_size()) +
           " H=" + std::to_string(lstm.cell().hidden_size()) +
           " out=" + std::to_string(lstm.head().out_features());
  }

  void zero_params() const {
    for (nn::Var& p : lstm.parameters()) p.zero_grad();
  }

  // The per-step path (tests/support oracle): one gate step and one head
  // product per timestep, each step's output summed into the loss. With
  // `batched_projection` false every step also projects its own input
  // (the pre-batching path).
  nn::Var per_step_loss(bool batched_projection) const {
    const nn::LSTMCell& cell = lstm.cell();
    nn::Var all_proj = batched_projection ? cell.project_input(inputs) : nn::Var();
    nn::LstmState state{nn::Var::constant(nn::Tensor({B, cell.hidden_size()})),
                        nn::Var::constant(nn::Tensor({B, cell.hidden_size()}))};
    nn::Var loss;
    for (long t = 0; t < T; ++t) {
      nn::Var x_proj = batched_projection
                           ? nn::slice_axis(all_proj, /*axis=*/0, t * B, B)
                           : cell.project_input(nn::slice_axis(inputs, /*axis=*/0, t * B, B));
      state = oracle::reference_lstm_step(x_proj, state, cell.weight_h(), cell.bias());
      nn::Var step_loss = nn::sum(lstm.head().forward(state.h));
      loss = loss.defined() ? nn::add(loss, step_loss) : step_loss;
    }
    return loss;
  }

  long T, B;
  Rng model_rng;
  nn::Lstm lstm;
  nn::Var inputs;
};

// Full recurrent training step at G^t shape: the whole-sequence op
// (batched projection, one sequence node, one head product, batched
// weight gradients) against the per-step path with a per-step input
// projection.
KernelResult bench_lstm_train_step(const std::string& name, long T, long B, long in, long hidden,
                                   long out) {
  LstmBench lb(T, B, in, hidden, out);
  KernelResult r;
  r.name = name;
  r.shape = lb.shape("fwd+bwd");
  // forward + backward ≈ 3× the forward contraction flops.
  r.flops_per_call = 3.0 * lb.forward_flops();
  time_pair(
      r,
      [&] {
        lb.zero_params();
        lb.per_step_loss(/*batched_projection=*/false).backward();
      },
      [&] {
        lb.zero_params();
        nn::sum(lb.lstm.forward(lb.inputs, B)).backward();
      });
  return r;
}

// The same with the batched [T·B, 4H] input projection on both arms, so
// only the recurrence, head and weight gradients differ.
KernelResult bench_lstm_fused_train(const std::string& name, long T, long B, long in, long hidden,
                                    long out) {
  LstmBench lb(T, B, in, hidden, out);
  KernelResult r;
  r.name = name;
  r.shape = lb.shape("fwd+bwd");
  r.flops_per_call = 3.0 * lb.forward_flops();
  time_pair(
      r,
      [&] {
        lb.zero_params();
        lb.per_step_loss(/*batched_projection=*/true).backward();
      },
      [&] {
        lb.zero_params();
        nn::sum(lb.lstm.forward(lb.inputs, B)).backward();
      });
  return r;
}

// Inference forward at the serve shape (G^t over T = 504 steps of a
// 16-patch batch): the per-step oracle against the sequence op, both
// under InferenceGuard.
KernelResult bench_lstm_sequence_serve(const std::string& name, long T, long B, long in,
                                       long hidden, long out) {
  LstmBench lb(T, B, in, hidden, out);
  KernelResult r;
  r.name = name;
  r.shape = lb.shape("fwd");
  r.flops_per_call = lb.forward_flops();
  nn::InferenceGuard no_grad;
  time_pair(r, [&] { oracle::reference_lstm_forward(lb.lstm, lb.inputs, B); },
            [&] { lb.lstm.forward(lb.inputs, B); });
  return r;
}

// The Fourier bridge at the serve shape (a [16, 56, 16] spectrum batch,
// k = 3 expansion of the hourly week): one GEMM per batch element
// against the cached truncated-DFT basis vs the per-series irfft loop it
// replaced. Forward only, as in inference.
KernelResult bench_dft_bridge(const std::string& name, long B, long f_gen, long P, long base_steps,
                              long expand_k) {
  Rng rng(37);
  const nn::Tensor spec = nn::init::gaussian({B, 2 * f_gen, P}, 1.0f, rng);
  const nn::Var spec_var = nn::Var::constant(spec);
  KernelResult r;
  r.name = name;
  r.shape = "bridge [" + std::to_string(B) + "," + std::to_string(2 * f_gen) + "," +
            std::to_string(P) + "] T=" + std::to_string(base_steps) + " k=" +
            std::to_string(expand_k);
  r.flops_per_call = 2.0 * static_cast<double>(B * expand_k * base_steps * 2 * f_gen * P);
  nn::InferenceGuard guard;
  time_pair(r, [&] { oracle::reference_bridge_forward(spec, base_steps, expand_k); },
            [&] { core::irfft_bridge(spec_var, base_steps, expand_k); });
  return r;
}

void emit_json(const std::vector<KernelResult>& results, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    SG_LOG_ERROR << "bench_kernels: cannot open " << path;
    return;
  }
  std::fprintf(f, "{\n  \"schema\": 1,\n  \"threads\": 1,\n  \"iters\": %ld,\n  \"kernels\": [\n",
               g_iters);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"shape\": \"%s\", \"flops_per_call\": %.0f,\n"
                 "     \"seconds_ref\": %.9f, \"seconds_new\": %.9f,\n"
                 "     \"gflops_ref\": %.3f, \"gflops_new\": %.3f, \"speedup\": %.3f}%s\n",
                 r.name.c_str(), r.shape.c_str(), r.flops_per_call, r.seconds_ref, r.seconds_new,
                 r.gflops(r.seconds_ref), r.gflops(r.seconds_new), r.speedup(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  g_iters = env_long("SPECTRA_BENCH_ITERS", 200);
  // Single-thread contract: the JSON records per-core kernel quality;
  // thread scaling is bench_parallel_scaling's subject.
  set_parallel_threads(1);

  std::vector<KernelResult> results;
  // matmul at trainer shapes: the batched LSTM input projection
  // (T·B=1008 rows), the per-step hidden→gates product, and the
  // spectrum/time discriminator MLP layer.
  results.push_back(bench_matmul("matmul_lstm_xproj_batched", 1008, 28, 96));
  results.push_back(bench_matmul("matmul_lstm_gate_h", 6, 24, 96));
  results.push_back(bench_matmul("matmul_disc_mlp", 6, 128, 48));
  results.push_back(bench_matmul("matmul_square_256", 256, 256, 256));
  // conv2d at trainer shapes: encoder conv1/conv2 and the spectrum
  // generator output conv (§2.2 geometry, default config).
  results.push_back(bench_conv_forward("conv_fwd_encoder1", 6, 27, 8, 8, 24, 3, 1, 1));
  results.push_back(bench_conv_forward("conv_fwd_encoder2_s2", 6, 24, 8, 8, 16, 3, 2, 1));
  results.push_back(bench_conv_forward("conv_fwd_spectrum_out", 6, 32, 4, 4, 56, 3, 1, 1));
  results.push_back(bench_conv_train_step("conv_train_encoder1", 6, 27, 8, 8, 24, 3, 1, 1));
  // Full recurrent training step at G^t shape: the sequence op vs the
  // per-step path with per-step and with batched input projections, and
  // the serve-shape inference forward.
  results.push_back(bench_lstm_train_step("lstm_train_gt", 168, 6, 28, 24, 16));
  results.push_back(bench_lstm_fused_train("lstm_fused_train", 168, 6, 28, 24, 16));
  results.push_back(bench_lstm_sequence_serve("lstm_sequence_serve", 504, 16, 28, 24, 16));
  // The Fourier bridge at the serve shape.
  results.push_back(bench_dft_bridge("dft_bridge_serve", 16, 28, 16, 168, 3));

  std::printf("%-28s %-14s %-14s %-10s %-10s %s\n", "kernel", "ref s/call", "new s/call",
              "ref GF/s", "new GF/s", "speedup");
  for (const KernelResult& r : results) {
    std::printf("%-28s %-14.3e %-14.3e %-10.2f %-10.2f %.2fx\n", r.name.c_str(), r.seconds_ref,
                r.seconds_new, r.gflops(r.seconds_ref), r.gflops(r.seconds_new), r.speedup());
  }

  emit_json(results, env_string("SPECTRA_BENCH_OUT", "BENCH_KERNELS.json"));
  set_parallel_threads(0);
  spectra::bench::bench_report("bench_kernels");
  return 0;
}

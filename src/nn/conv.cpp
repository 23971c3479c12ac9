#include "nn/conv.h"

#include <algorithm>

#include "nn/gemm.h"
#include "obs/profile.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace spectra::nn {

long conv2d_out_extent(long in, long kernel, long stride, long padding) {
  SG_CHECK(stride >= 1 && padding >= 0 && kernel >= 1, "invalid conv2d geometry");
  const long span = in + 2 * padding - kernel;
  SG_CHECK(span >= 0, "conv2d kernel larger than padded input");
  return span / stride + 1;
}

namespace {

// Valid kernel-tap range [lo, hi) for an output coordinate, so the inner
// loops never branch on padding.
inline void tap_range(long out_coord, long stride, long padding, long in_extent, long kernel,
                      long& lo, long& hi) {
  const long origin = out_coord * stride - padding;
  lo = std::max<long>(0, -origin);
  hi = std::min<long>(kernel, in_extent - origin);
}

struct ConvGeom {
  long N, C, H, W, O, kh, kw, s, p, Ho, Wo;
  long ckk() const { return C * kh * kw; }
  long out_pixels() const { return Ho * Wo; }
  // 1×1 stride-1 unpadded convs are a plain channel mix: GEMM directly
  // on the input planes, no column matrix needed.
  bool is_pointwise() const { return kh == 1 && kw == 1 && s == 1 && p == 0; }
};

// Below this per-sample contraction size (2·O·C·kh·kw·Ho·Wo flops) the
// im2col copy costs more than the GEMM saves; kAuto falls back to the
// direct kernels.
constexpr long kDirectFlopThreshold = 16384;

bool resolve_use_gemm(const ConvGeom& g, Conv2dImpl impl) {
  if (impl == Conv2dImpl::kDirect) return false;
  if (impl == Conv2dImpl::kIm2col) return true;
  return 2 * g.O * g.ckk() * g.out_pixels() >= kDirectFlopThreshold;
}

// Attribute one conv contraction's work via its im2col dimensions:
// `passes` contractions of 2·O·ckk·out_pixels flops per sample, with the
// operand planes counted once each for traffic.
void add_conv_work(const ConvGeom& g, long passes) {
  if (passes == 0 || !obs::profile_enabled()) return;
  obs::profile_add_work(
      static_cast<double>(passes) * 2.0 * static_cast<double>(g.N * g.O) *
          static_cast<double>(g.ckk()) * static_cast<double>(g.out_pixels()),
      static_cast<double>(passes) * static_cast<double>(g.N) *
          (static_cast<double>(g.C * g.H * g.W) + static_cast<double>(g.O * g.ckk()) +
           static_cast<double>(g.O * g.out_pixels())) *
          4.0);
}

// Patch matrix for one sample: col[(c*kh+r)*kw+q][oh*Wo+ow] =
// x[c][oh*s-p+r][ow*s-p+q], zero where the tap falls in the padding.
void im2col(const ConvGeom& g, const float* xplane, float* col) {
  for (long c = 0; c < g.C; ++c) {
    for (long r = 0; r < g.kh; ++r) {
      for (long q = 0; q < g.kw; ++q) {
        float* dst = col + ((c * g.kh + r) * g.kw + q) * g.out_pixels();
        for (long oh = 0; oh < g.Ho; ++oh) {
          const long ih = oh * g.s - g.p + r;
          float* drow = dst + oh * g.Wo;
          if (ih < 0 || ih >= g.H) {
            std::fill(drow, drow + g.Wo, 0.0f);
            continue;
          }
          const float* xrow = xplane + (c * g.H + ih) * g.W;
          if (g.s == 1 && g.p == 0) {
            std::copy(xrow + q, xrow + q + g.Wo, drow);
            continue;
          }
          for (long ow = 0; ow < g.Wo; ++ow) {
            const long iw = ow * g.s - g.p + q;
            drow[ow] = (iw >= 0 && iw < g.W) ? xrow[iw] : 0.0f;
          }
        }
      }
    }
  }
}

// Scatter-add the column gradient back onto one input-gradient plane
// (the adjoint of im2col). Tap order (c, r, q, oh, ow) is fixed, so the
// accumulation order per input pixel never depends on threads.
void col2im_add(const ConvGeom& g, const float* dcol, float* gxplane) {
  for (long c = 0; c < g.C; ++c) {
    for (long r = 0; r < g.kh; ++r) {
      for (long q = 0; q < g.kw; ++q) {
        const float* src = dcol + ((c * g.kh + r) * g.kw + q) * g.out_pixels();
        for (long oh = 0; oh < g.Ho; ++oh) {
          const long ih = oh * g.s - g.p + r;
          if (ih < 0 || ih >= g.H) continue;
          const float* srow = src + oh * g.Wo;
          float* gxrow = gxplane + (c * g.H + ih) * g.W;
          for (long ow = 0; ow < g.Wo; ++ow) {
            const long iw = ow * g.s - g.p + q;
            if (iw >= 0 && iw < g.W) gxrow[iw] += srow[ow];
          }
        }
      }
    }
  }
}

// --- direct kernels (fallback for tiny shapes; pre-GEMM reference) ---

void forward_direct(const ConvGeom& g, const float* px, const float* pw, const float* pb,
                    float* py) {
  // Each (n, o) output plane is written by exactly one chunk, with the
  // same inner-loop order as the serial code — bitwise deterministic.
  parallel_for(
      static_cast<std::size_t>(g.N * g.O), /*grain=*/1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t no = begin; no < end; ++no) {
          const long n = static_cast<long>(no) / g.O;
          const long o = static_cast<long>(no) % g.O;
          float* yplane = py + (n * g.O + o) * g.out_pixels();
          const float bias_v = pb[o];
          for (long i = 0; i < g.out_pixels(); ++i) yplane[i] = bias_v;
          for (long c = 0; c < g.C; ++c) {
            const float* xplane = px + (n * g.C + c) * g.H * g.W;
            const float* wplane = pw + (o * g.C + c) * g.kh * g.kw;
            for (long oh = 0; oh < g.Ho; ++oh) {
              long r_lo, r_hi;
              tap_range(oh, g.s, g.p, g.H, g.kh, r_lo, r_hi);
              const long ih0 = oh * g.s - g.p;
              float* yrow = yplane + oh * g.Wo;
              for (long r = r_lo; r < r_hi; ++r) {
                const float* xrow = xplane + (ih0 + r) * g.W;
                const float* wrow = wplane + r * g.kw;
                for (long ow = 0; ow < g.Wo; ++ow) {
                  long q_lo, q_hi;
                  tap_range(ow, g.s, g.p, g.W, g.kw, q_lo, q_hi);
                  const long iw0 = ow * g.s - g.p;
                  float acc = 0.0f;
                  for (long q = q_lo; q < q_hi; ++q) acc += xrow[iw0 + q] * wrow[q];
                  yrow[ow] += acc;
                }
              }
            }
          }
        }
      });
}

void backward_direct_dx(const ConvGeom& g, const float* pg, const float* pw, float* pgx) {
  parallel_for(
      static_cast<std::size_t>(g.N * g.C), /*grain=*/1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t nc = begin; nc < end; ++nc) {
          const long n = static_cast<long>(nc) / g.C;
          const long c = static_cast<long>(nc) % g.C;
          float* gxplane = pgx + (n * g.C + c) * g.H * g.W;
          for (long o = 0; o < g.O; ++o) {
            const float* gplane = pg + (n * g.O + o) * g.out_pixels();
            const float* wplane = pw + (o * g.C + c) * g.kh * g.kw;
            for (long oh = 0; oh < g.Ho; ++oh) {
              long r_lo, r_hi;
              tap_range(oh, g.s, g.p, g.H, g.kh, r_lo, r_hi);
              const long ih0 = oh * g.s - g.p;
              const float* grow = gplane + oh * g.Wo;
              for (long r = r_lo; r < r_hi; ++r) {
                float* gxrow = gxplane + (ih0 + r) * g.W;
                const float* wrow = wplane + r * g.kw;
                for (long ow = 0; ow < g.Wo; ++ow) {
                  const float gv = grow[ow];
                  if (gv == 0.0f) continue;
                  long q_lo, q_hi;
                  tap_range(ow, g.s, g.p, g.W, g.kw, q_lo, q_hi);
                  const long iw0 = ow * g.s - g.p;
                  for (long q = q_lo; q < q_hi; ++q) gxrow[iw0 + q] += gv * wrow[q];
                }
              }
            }
          }
        }
      });
}

void backward_direct_dw(const ConvGeom& g, const float* pg, const float* px, float* pgw) {
  parallel_for(
      static_cast<std::size_t>(g.O * g.C), /*grain=*/1,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t oc = begin; oc < end; ++oc) {
          const long o = static_cast<long>(oc) / g.C;
          const long c = static_cast<long>(oc) % g.C;
          float* gwplane = pgw + (o * g.C + c) * g.kh * g.kw;
          for (long n = 0; n < g.N; ++n) {
            const float* gplane = pg + (n * g.O + o) * g.out_pixels();
            const float* xplane = px + (n * g.C + c) * g.H * g.W;
            for (long oh = 0; oh < g.Ho; ++oh) {
              long r_lo, r_hi;
              tap_range(oh, g.s, g.p, g.H, g.kh, r_lo, r_hi);
              const long ih0 = oh * g.s - g.p;
              const float* grow = gplane + oh * g.Wo;
              for (long r = r_lo; r < r_hi; ++r) {
                const float* xrow = xplane + (ih0 + r) * g.W;
                float* gwrow = gwplane + r * g.kw;
                for (long ow = 0; ow < g.Wo; ++ow) {
                  const float gv = grow[ow];
                  if (gv == 0.0f) continue;
                  long q_lo, q_hi;
                  tap_range(ow, g.s, g.p, g.W, g.kw, q_lo, q_hi);
                  const long iw0 = ow * g.s - g.p;
                  for (long q = q_lo; q < q_hi; ++q) gwrow[q] += gv * xrow[iw0 + q];
                }
              }
            }
          }
        }
      });
}

// --- im2col + GEMM lowering ---

void forward_gemm(const ConvGeom& g, const float* px, const float* pw, const float* pb,
                  float* py) {
  // Parallel over samples: each worker fills its plane's bias rows,
  // materializes its own column matrix (thread-local scratch), and runs
  // the GEMM inline (nested parallel_for executes on the worker).
  parallel_for(
      static_cast<std::size_t>(g.N), /*grain=*/1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t nu = begin; nu < end; ++nu) {
          const long n = static_cast<long>(nu);
          float* yplane = py + n * g.O * g.out_pixels();
          for (long o = 0; o < g.O; ++o) {
            std::fill(yplane + o * g.out_pixels(), yplane + (o + 1) * g.out_pixels(), pb[o]);
          }
          const float* bmat;
          if (g.is_pointwise()) {
            bmat = px + n * g.C * g.H * g.W;  // x plane already is [C, H·W]
          } else {
            float* col = gemm::scratch(1, static_cast<std::size_t>(g.ckk() * g.out_pixels()));
            im2col(g, px + n * g.C * g.H * g.W, col);
            bmat = col;
          }
          gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kNo, g.O, g.out_pixels(), g.ckk(), pw,
                      g.ckk(), bmat, g.out_pixels(), yplane, g.out_pixels(),
                      /*accumulate=*/true);
        }
      });
}

void backward_gemm_dx(const ConvGeom& g, const float* pg, const float* pw, float* pgx) {
  // dcol = Wᵀ · G per sample, then col2im scatter-adds it onto the
  // sample's input-gradient plane; samples are disjoint, so parallel
  // over n (pointwise convs accumulate straight into the plane).
  parallel_for(
      static_cast<std::size_t>(g.N), /*grain=*/1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t nu = begin; nu < end; ++nu) {
          const long n = static_cast<long>(nu);
          const float* gplane = pg + n * g.O * g.out_pixels();
          float* gxplane = pgx + n * g.C * g.H * g.W;
          if (g.is_pointwise()) {
            gemm::sgemm(gemm::Trans::kTrans, gemm::Trans::kNo, g.C, g.out_pixels(), g.O, pw, g.C,
                        gplane, g.out_pixels(), gxplane, g.out_pixels(), /*accumulate=*/true);
            continue;
          }
          float* dcol = gemm::scratch(2, static_cast<std::size_t>(g.ckk() * g.out_pixels()));
          gemm::sgemm(gemm::Trans::kTrans, gemm::Trans::kNo, g.ckk(), g.out_pixels(), g.O, pw,
                      g.ckk(), gplane, g.out_pixels(), dcol, g.out_pixels(),
                      /*accumulate=*/false);
          col2im_add(g, dcol, gxplane);
        }
      });
}

void backward_gemm_dw(const ConvGeom& g, const float* pg, const float* px, float* pgw) {
  // dW += G · colᵀ accumulated sample by sample. The n loop stays serial
  // so the reduction order over samples is fixed; the GEMM inside fans
  // out over disjoint rows of dW.
  for (long n = 0; n < g.N; ++n) {
    const float* gplane = pg + n * g.O * g.out_pixels();
    const float* bmat;
    if (g.is_pointwise()) {
      bmat = px + n * g.C * g.H * g.W;
    } else {
      float* col = gemm::scratch(1, static_cast<std::size_t>(g.ckk() * g.out_pixels()));
      im2col(g, px + n * g.C * g.H * g.W, col);
      bmat = col;
    }
    gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kTrans, g.O, g.ckk(), g.out_pixels(), gplane,
                g.out_pixels(), bmat, g.out_pixels(), pgw, g.ckk(), /*accumulate=*/true);
  }
}

}  // namespace

Var conv2d(const Var& input, const Var& weight, const Var& bias, const Conv2dSpec& spec) {
  const Tensor& x = input.value();
  const Tensor& w = weight.value();
  const Tensor& b = bias.value();
  SG_CHECK(x.rank() == 4, "conv2d input must be [N,C,H,W]");
  SG_CHECK(w.rank() == 4, "conv2d weight must be [O,C,kh,kw]");
  SG_CHECK(b.rank() == 1, "conv2d bias must be [O]");
  ConvGeom g;
  g.N = x.dim(0), g.C = x.dim(1), g.H = x.dim(2), g.W = x.dim(3);
  g.O = w.dim(0), g.kh = w.dim(2), g.kw = w.dim(3);
  SG_CHECK(w.dim(1) == g.C, "conv2d weight channel mismatch");
  SG_CHECK(b.dim(0) == g.O, "conv2d bias length mismatch");
  g.s = spec.stride, g.p = spec.padding;
  g.Ho = conv2d_out_extent(g.H, g.kh, g.s, g.p);
  g.Wo = conv2d_out_extent(g.W, g.kw, g.s, g.p);
  const bool use_gemm = resolve_use_gemm(g, spec.impl);

  Tensor y({g.N, g.O, g.Ho, g.Wo});
  {
    SG_SCOPE("nn/conv2d_forward");
    add_conv_work(g, /*passes=*/1);
    if (use_gemm) {
      forward_gemm(g, x.data(), w.data(), b.data(), y.data());
    } else {
      forward_direct(g, x.data(), w.data(), b.data(), y.data());
    }
  }

  return Var::make_op(
      std::move(y), {input, weight, bias}, [g, use_gemm](const Tensor& grad, std::vector<Var>& parents) {
        const Tensor& px = parents[0].value();
        const Tensor& pw = parents[1].value();
        const bool need_dx = parents[0].requires_grad();
        const bool need_dw = parents[1].requires_grad();
        const bool need_db = parents[2].requires_grad();
        SG_SCOPE("nn/conv2d_backward");
        // dx and dw are each one more contraction of the forward's shape.
        add_conv_work(g, (need_dx ? 1 : 0) + (need_dw ? 1 : 0));

        // The three gradients are computed by separate loop nests so every
        // parallel chunk owns a disjoint slice of exactly one buffer. The
        // bias reduction is shared by both implementations; dx/dw go
        // through GEMM (per-sample planes / serial sample accumulation)
        // or the direct nests depending on the forward's choice.
        if (need_db) {
          Tensor* gb = &parents[2].grad_storage();
          const long O = g.O, N = g.N, pixels = g.out_pixels();
          parallel_for(static_cast<std::size_t>(O), /*grain=*/1,
                       [&](std::size_t begin, std::size_t end) {
                         for (std::size_t ou = begin; ou < end; ++ou) {
                           const long o = static_cast<long>(ou);
                           for (long n = 0; n < N; ++n) {
                             const float* grow = grad.data() + (n * O + o) * pixels;
                             float acc = 0.0f;
                             for (long i = 0; i < pixels; ++i) acc += grow[i];
                             (*gb)[o] += acc;
                           }
                         }
                       });
        }

        if (need_dx) {
          float* pgx = parents[0].grad_storage().data();
          if (use_gemm) {
            backward_gemm_dx(g, grad.data(), pw.data(), pgx);
          } else {
            backward_direct_dx(g, grad.data(), pw.data(), pgx);
          }
        }

        if (need_dw) {
          float* pgw = parents[1].grad_storage().data();
          if (use_gemm) {
            backward_gemm_dw(g, grad.data(), px.data(), pgw);
          } else {
            backward_direct_dw(g, grad.data(), px.data(), pgw);
          }
        }
      });
}

}  // namespace spectra::nn

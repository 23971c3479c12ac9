#include "geo/patching.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace spectra::geo {

void PatchSpec::validate() const {
  SG_CHECK(traffic_h > 0 && traffic_w > 0, "traffic patch must be non-empty");
  SG_CHECK(context_h >= traffic_h && context_w >= traffic_w,
           "context patch must contain the traffic patch");
  SG_CHECK((context_h - traffic_h) % 2 == 0 && (context_w - traffic_w) % 2 == 0,
           "context halo must be symmetric (same parity extents)");
  SG_CHECK(stride > 0 && stride <= traffic_h && stride <= traffic_w,
           "stride must be in [1, traffic patch size] so windows cover every pixel");
}

std::vector<PatchWindow> enumerate_windows(long height, long width, const PatchSpec& spec) {
  spec.validate();
  SG_CHECK(height >= spec.traffic_h && width >= spec.traffic_w,
           "city smaller than one traffic patch");
  std::vector<long> rows, cols;
  for (long r = 0;; r += spec.stride) {
    const long clamped = std::min(r, height - spec.traffic_h);
    rows.push_back(clamped);
    if (clamped == height - spec.traffic_h) break;
  }
  for (long c = 0;; c += spec.stride) {
    const long clamped = std::min(c, width - spec.traffic_w);
    cols.push_back(clamped);
    if (clamped == width - spec.traffic_w) break;
  }
  std::vector<PatchWindow> windows;
  windows.reserve(rows.size() * cols.size());
  for (long r : rows) {
    for (long c : cols) windows.push_back({r, c});
  }
  return windows;
}

std::vector<float> extract_context_patch(const ContextTensor& context, const PatchWindow& window,
                                         const PatchSpec& spec) {
#ifndef NDEBUG
  spec.validate();  // callers own the spec; per-window cost is debug-only
#endif
  const long C = context.steps();
  const long H = context.height();
  const long W = context.width();
  const long r0 = window.row - spec.halo_h();
  const long c0 = window.col - spec.halo_w();
  std::vector<float> patch(static_cast<std::size_t>(C * spec.context_h * spec.context_w), 0.0f);
  for (long ch = 0; ch < C; ++ch) {
    for (long i = 0; i < spec.context_h; ++i) {
      const long row = r0 + i;
      if (row < 0 || row >= H) continue;  // zero padding outside the city
      for (long j = 0; j < spec.context_w; ++j) {
        const long col = c0 + j;
        if (col < 0 || col >= W) continue;
        patch[static_cast<std::size_t>((ch * spec.context_h + i) * spec.context_w + j)] =
            static_cast<float>(context.at(ch, row, col));
      }
    }
  }
  return patch;
}

std::vector<float> extract_traffic_patch(const CityTensor& traffic, const PatchWindow& window,
                                         const PatchSpec& spec) {
#ifndef NDEBUG
  spec.validate();  // callers own the spec; per-window cost is debug-only
#endif
  const long T = traffic.steps();
  SG_CHECK(window.row >= 0 && window.row + spec.traffic_h <= traffic.height() &&
               window.col >= 0 && window.col + spec.traffic_w <= traffic.width(),
           "traffic patch window out of bounds");
  std::vector<float> patch(static_cast<std::size_t>(T * spec.traffic_h * spec.traffic_w));
  std::size_t k = 0;
  for (long t = 0; t < T; ++t) {
    for (long i = 0; i < spec.traffic_h; ++i) {
      for (long j = 0; j < spec.traffic_w; ++j) {
        patch[k++] = static_cast<float>(traffic.at(t, window.row + i, window.col + j));
      }
    }
  }
  return patch;
}

OverlapAccumulator::OverlapAccumulator(long steps, long height, long width,
                                       OverlapAggregation aggregation)
    : aggregation_(aggregation), sum_(steps, height, width), count_(height, width) {
  if (aggregation_ == OverlapAggregation::kMedian) {
    contributions_.resize(static_cast<std::size_t>(steps * height * width));
  }
}

void OverlapAccumulator::add_patch(const PatchWindow& window, const PatchSpec& spec,
                                   const std::vector<float>& patch) {
  add_patch(window, spec, patch.data(), patch.size());
}

void OverlapAccumulator::add_patch(const PatchWindow& window, const PatchSpec& spec,
                                   const float* values, std::size_t size) {
  static obs::Counter& patches = obs::Registry::instance().counter("geo.patches_accumulated");
  patches.inc();
  const long T = sum_.steps();
  const long H = sum_.height();
  const long W = sum_.width();
  SG_CHECK(static_cast<long>(size) == T * spec.traffic_h * spec.traffic_w,
           "patch size does not match accumulator geometry");
  std::size_t k = 0;
  for (long t = 0; t < T; ++t) {
    for (long i = 0; i < spec.traffic_h; ++i) {
      for (long j = 0; j < spec.traffic_w; ++j) {
        const double v = static_cast<double>(values[k++]);
        sum_.at(t, window.row + i, window.col + j) += v;
        if (aggregation_ == OverlapAggregation::kMedian) {
          contributions_[static_cast<std::size_t>((t * H + window.row + i) * W + window.col + j)]
              .push_back(v);
        }
      }
    }
  }
  for (long i = 0; i < spec.traffic_h; ++i) {
    for (long j = 0; j < spec.traffic_w; ++j) count_.at(window.row + i, window.col + j) += 1.0;
  }
}

CityTensor OverlapAccumulator::finalize() const {
  SG_SCOPE("geo/assemble_city");
  static obs::Histogram& seconds = obs::Registry::instance().histogram("geo.assemble_seconds");
  obs::ScopedTimer timer(seconds);
  CityTensor out = sum_;
  const long H = out.height();
  const long W = out.width();
  const long T = out.steps();
  // Each (i, j) pixel column is finalized independently; chunking the
  // flattened H*W axis gives disjoint writes into `out` and (for the
  // median path) a per-chunk scratch buffer reused across pixels.
  parallel_for(
      static_cast<std::size_t>(H * W), /*grain=*/8,
      [&](std::size_t begin, std::size_t end) {
        std::vector<double> values;
        for (std::size_t ij = begin; ij < end; ++ij) {
          const long i = static_cast<long>(ij) / W;
          const long j = static_cast<long>(ij) % W;
          const double n = count_.at(i, j);
          SG_CHECK(n > 0.0, "pixel not covered by any patch");
          for (long t = 0; t < T; ++t) {
            if (aggregation_ == OverlapAggregation::kMean) {
              out.at(t, i, j) /= n;
            } else {
              // One partition pass: nth_element places the upper median;
              // for even counts the lower median is the maximum of the
              // left partition — no second nth_element, no fresh copy.
              const std::vector<double>& contribs =
                  contributions_[static_cast<std::size_t>((t * H + i) * W + j)];
              values.assign(contribs.begin(), contribs.end());
              const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
              std::nth_element(values.begin(), mid, values.end());
              double median = *mid;
              if (values.size() % 2 == 0) {
                median = 0.5 * (*std::max_element(values.begin(), mid) + median);
              }
              out.at(t, i, j) = median;
            }
          }
        }
      });
  return out;
}

}  // namespace spectra::geo

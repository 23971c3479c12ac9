#include "nn/gemm.h"

#include <algorithm>
#include <vector>

#include "nn/dispatch.h"
#include "nn/gemm_micro.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace spectra::nn::gemm {

namespace {

obs::Counter& grows_counter() {
  static obs::Counter& c = obs::Registry::instance().counter("gemm.workspace_grows");
  return c;
}

obs::Counter& calls_counter() {
  static obs::Counter& c = obs::Registry::instance().counter("gemm.calls");
  return c;
}

obs::Gauge& bytes_gauge() {
  static obs::Gauge& g = obs::Registry::instance().gauge("gemm.workspace_bytes");
  return g;
}

// The active workspace of this thread: null means the implicit
// thread-local default below. WorkspaceScope swaps request-owned
// workspaces in and out (serve daemon); kernels never see the
// difference. Deliberately thread_local rather than a guarded shared
// structure — per-thread ownership is what keeps the GEMM hot path off
// the capability layer entirely (DESIGN §6d: nn holds no locks).
thread_local Workspace* tls_workspace = nullptr;

Workspace& thread_default_workspace() {
  thread_local Workspace tls_default_workspace;
  return tls_default_workspace;
}

// Pack the (kc × nc) block of op(B) starting at (pc, jc) into nr-wide
// column panels: dst[panel jp][p][j] at offset (jp*kc + p)*nr + j.
// Columns beyond nc are zero-padded; the padded lanes feed accumulator
// columns that are never written back. `nr` is the active dispatch
// level's panel width.
void pack_b(Trans tb, const float* b, long ldb, long pc, long jc, long kc, long nc, long nr,
            float* dst) {
  const long panels = (nc + nr - 1) / nr;
  for (long jp = 0; jp < panels; ++jp) {
    const long j0 = jp * nr;
    const long jw = std::min(nr, nc - j0);
    float* panel = dst + jp * kc * nr;
    if (tb == Trans::kNo) {
      // op(B)[p][j] = b[(pc+p)*ldb + jc+j]: copy row fragments.
      for (long p = 0; p < kc; ++p) {
        const float* src = b + (pc + p) * ldb + jc + j0;
        float* out = panel + p * nr;
        for (long j = 0; j < jw; ++j) out[j] = src[j];
        for (long j = jw; j < nr; ++j) out[j] = 0.0f;
      }
    } else {
      // op(B)[p][j] = b[(jc+j)*ldb + pc+p]: gather nr source rows.
      for (long p = 0; p < kc; ++p) {
        float* out = panel + p * nr;
        for (long j = 0; j < nr; ++j) {
          out[j] = j < jw ? b[(jc + j0 + j) * ldb + pc + p] : 0.0f;
        }
      }
    }
  }
}

// The micro-kernel template itself lives in gemm_micro.h so the per-ISA
// TUs (gemm_kernels_avx2.cpp, gemm_kernels_avx512.cpp) instantiate the
// same body at wider lanes. This TU owns the always-available levels:
// the 4-lane generic tile (the pre-dispatch kernel, unchanged shapes)
// and, on AArch64, a wider-unrolled NEON tile.
constexpr detail::MicroKernelSet kGenericSet = {
    /*mr=*/kMR,
    /*nr=*/kNR,
    {detail::micro_kernel<1, 4, 2>, detail::micro_kernel<2, 4, 2>, detail::micro_kernel<3, 4, 2>,
     detail::micro_kernel<4, 4, 2>, nullptr, nullptr, nullptr, nullptr},
};
static_assert(kNR == 4 * 2, "generic tile instantiation must match gemm.h blocking constants");

#if defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
constexpr detail::MicroKernelSet kNeonSet = {
    /*mr=*/4,
    /*nr=*/16,
    {detail::micro_kernel<1, 4, 4>, detail::micro_kernel<2, 4, 4>, detail::micro_kernel<3, 4, 4>,
     detail::micro_kernel<4, 4, 4>, nullptr, nullptr, nullptr, nullptr},
};
#endif

// The register tile sgemm feeds: resolved once per call from the
// dispatch layer (the level itself is selected once per process).
const detail::MicroKernelSet& active_kernel_set() {
  switch (active_simd_level()) {
    case SimdLevel::kAvx2:
      return *detail::kernels_avx2();
    case SimdLevel::kAvx512:
      return *detail::kernels_avx512();
    case SimdLevel::kNeon:
      return *detail::kernels_neon();
    case SimdLevel::kGeneric:
      break;
  }
  return *detail::kernels_generic();
}

// One packed (kc × nc) block of op(B) against the matching k-slice of
// op(A), landing in C's nc-column slice (c points at its first column).
struct Block {
  Trans ta;
  long m;
  const float* a;
  long lda;
  long pc;
  long kc;
  const float* bp;
  long nc;
  float* c;
  long ldc;
  bool add_to_c;
};

// Row panels [rp_begin, rp_end) of one block. sgemm splits the panels
// over threads; PackedB::multiply runs them all on the calling thread.
// Either way each C element sees the same micro-kernel and p order.
void multiply_block(const detail::MicroKernelSet& ks, const Block& blk, long rp_begin,
                    long rp_end) {
  const long a_row_stride = blk.ta == Trans::kNo ? blk.lda : 1;
  const long a_col_stride = blk.ta == Trans::kNo ? 1 : blk.lda;
  for (long rp = rp_begin; rp < rp_end; ++rp) {
    const long i0 = rp * ks.mr;
    const long mr = std::min(ks.mr, blk.m - i0);
    const float* abase = blk.ta == Trans::kNo ? blk.a + i0 * blk.lda + blk.pc
                                              : blk.a + blk.pc * blk.lda + i0;
    const detail::MicroFn kernel = ks.fns[mr - 1];
    for (long j0 = 0, jp = 0; j0 < blk.nc; j0 += ks.nr, ++jp) {
      kernel(blk.kc, abase, a_row_stride, a_col_stride, blk.bp + jp * blk.kc * ks.nr,
             blk.c + i0 * blk.ldc + j0, blk.ldc, std::min(ks.nr, blk.nc - j0), blk.add_to_c);
    }
  }
}

}  // namespace

namespace detail {

const MicroKernelSet* kernels_generic() { return &kGenericSet; }

const MicroKernelSet* kernels_neon() {
#if defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
  return &kNeonSet;
#else
  return nullptr;
#endif
}

}  // namespace detail

Workspace::~Workspace() { release(); }

float* Workspace::get(int slot, std::size_t floats) {
  SG_CHECK(slot >= 0 && slot < kScratchSlots, "gemm scratch slot out of range");
  std::vector<float>& arena = arenas_[slot];
  if (arena.size() < floats) {
    const std::size_t grown = floats - arena.size();
    arena.resize(floats);
    grows_counter().inc();
    bytes_gauge().add(static_cast<double>(grown * sizeof(float)));
  }
  return arena.data();
}

void Workspace::release() {
  const std::size_t held = bytes();
  if (held == 0) return;
  for (std::vector<float>& arena : arenas_) {
    arena.clear();
    arena.shrink_to_fit();
  }
  bytes_gauge().add(-static_cast<double>(held));
}

std::size_t Workspace::bytes() const {
  std::size_t total = 0;
  for (const std::vector<float>& arena : arenas_) total += arena.size() * sizeof(float);
  return total;
}

WorkspaceScope::WorkspaceScope(Workspace& ws) : prev_(tls_workspace) { tls_workspace = &ws; }

WorkspaceScope::~WorkspaceScope() { tls_workspace = prev_; }

float* scratch(int slot, std::size_t floats) {
  Workspace* ws = tls_workspace;
  return (ws != nullptr ? *ws : thread_default_workspace()).get(slot, floats);
}

void sgemm(Trans ta, Trans tb, long m, long n, long k, const float* a, long lda, const float* b,
           long ldb, float* c, long ldc, bool accumulate) {
  SG_CHECK(m >= 0 && n >= 0 && k >= 0, "sgemm negative extent");
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) {
      for (long i = 0; i < m; ++i) std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
    }
    return;
  }
  calls_counter().inc();
  SG_SCOPE("nn/gemm");
  if (obs::profile_enabled()) {
    // 2·M·N·K flops; traffic counts each operand once plus the C
    // write-back (the roofline convention, ignoring blocking reuse).
    obs::profile_add_work(
        2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k),
        (static_cast<double>(m) * static_cast<double>(k) +
         static_cast<double>(k) * static_cast<double>(n) +
         2.0 * static_cast<double>(m) * static_cast<double>(n)) *
            4.0);
  }

  // The register tile of the active SIMD level. Within a level the tile
  // is fixed, the k loop stays serial, and threads still split only M —
  // so results are bitwise identical for any thread count, and (because
  // every level accumulates each C element in the same p-ascending
  // order, gemm_micro.h) across dispatch levels too.
  const detail::MicroKernelSet& ks = active_kernel_set();
  const long nr_tile = ks.nr;
  const long row_panels = (m + ks.mr - 1) / ks.mr;

  for (long jc = 0; jc < n; jc += kNC) {
    const long nc = std::min(kNC, n - jc);
    const long panels = (nc + nr_tile - 1) / nr_tile;
    for (long pc = 0; pc < k; pc += kKC) {
      const long kc = std::min(kKC, k - pc);
      // One shared read-only packed block per (jc, pc); row panels below
      // all read it, so it is packed once on the calling thread.
      float* bp = scratch(0, static_cast<std::size_t>(panels * kc * nr_tile));
      pack_b(tb, b, ldb, pc, jc, kc, nc, nr_tile, bp);
      const Block block{ta, m, a, lda, pc, kc, bp, nc, c + jc, ldc, accumulate || pc > 0};
      // Threads split only the M dimension; each row panel owns its C
      // rows and runs the identical instruction sequence regardless of
      // which thread executes it — bitwise deterministic.
      parallel_for(static_cast<std::size_t>(row_panels), /*grain=*/1,
                   [&](std::size_t begin, std::size_t end) {
                     multiply_block(ks, block, static_cast<long>(begin), static_cast<long>(end));
                   });
    }
  }
}

PackedB::PackedB(Trans tb, long k, long n, const float* b, long ldb)
    : ks_(&active_kernel_set()), k_(k), n_(n) {
  SG_CHECK(k > 0 && n > 0, "PackedB requires positive extents");
  const long nr_tile = ks_->nr;
  std::size_t total = 0;
  for (long jc = 0; jc < n; jc += kNC) {
    const long panels = (std::min(kNC, n - jc) + nr_tile - 1) / nr_tile;
    total += static_cast<std::size_t>(panels * k * nr_tile);
  }
  panels_.resize(total);
  float* dst = panels_.data();
  for (long jc = 0; jc < n; jc += kNC) {
    const long nc = std::min(kNC, n - jc);
    const long panels = (nc + nr_tile - 1) / nr_tile;
    for (long pc = 0; pc < k; pc += kKC) {
      const long kc = std::min(kKC, k - pc);
      pack_b(tb, b, ldb, pc, jc, kc, nc, nr_tile, dst);
      dst += panels * kc * nr_tile;
    }
  }
}

void PackedB::multiply(Trans ta, long m, const float* a, long lda, float* c, long ldc,
                       bool accumulate) const {
  const long nr_tile = ks_->nr;
  const long row_panels = (m + ks_->mr - 1) / ks_->mr;
  const float* bp = panels_.data();
  for (long jc = 0; jc < n_; jc += kNC) {
    const long nc = std::min(kNC, n_ - jc);
    const long panels = (nc + nr_tile - 1) / nr_tile;
    for (long pc = 0; pc < k_; pc += kKC) {
      const long kc = std::min(kKC, k_ - pc);
      multiply_block(*ks_, Block{ta, m, a, lda, pc, kc, bp, nc, c + jc, ldc, accumulate || pc > 0},
                     0, row_panels);
      bp += panels * kc * nr_tile;
    }
  }
}

}  // namespace spectra::nn::gemm

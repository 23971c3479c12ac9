// Probes: one RAII SG_SCOPE feeds both the hierarchical wall-clock
// profiler and the Chrome trace (obs/trace.h).
//
// A scope reads the steady clock once on entry and once on exit. When
// profiling is on, that interval is one call of the named child of the
// thread's current node in a per-thread parent→child timing tree (call
// counts, inclusive nanoseconds and attributed flop/byte work), merged
// across threads at report time. When tracing is on, the same two
// timestamps become one Chrome "X" event. When both are off, a scope
// costs one relaxed atomic load and a branch.
//
// Both are off by default. SPECTRA_PROFILE enables profiling at startup
// and registers an atexit report: the text tree always goes to stderr;
// when the value is a path (anything other than `1`/`true`) the JSON tree
// is also written there. SPECTRA_TRACE=<file> enables tracing (see
// obs/trace.h). Tests toggle them with profile_set_enabled() and
// trace_set_enabled().
//
//   void d_step() {
//     SG_SCOPE("train/d_step");
//     ...
//   }
//
// Kernels attribute work to the innermost open scope on their thread with
// profile_add_work(flops, bytes); the report derives GFLOP/s and
// arithmetic intensity (flops/byte) per node from it. Work is attributed
// to the node where it is reported, not summed up the tree — a conv node
// and the gemm node nested under it each carry their own accounting.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace spectra::obs {

namespace detail {
// Which probe consumers are on: a bit set of kProfileProbes and
// kTraceProbes, read once per scope entry.
inline constexpr unsigned kProfileProbes = 1;
inline constexpr unsigned kTraceProbes = 2;
extern std::atomic<unsigned> g_probes;

// Set or clear `bits` in g_probes.
void set_probes(unsigned bits, bool enabled);

struct ProfileNode;

// Idempotent SPECTRA_PROFILE / SPECTRA_TRACE autostart hook, invoked
// from Registry::instance() so the static-archive linker cannot drop it.
void probes_env_autostart();
}  // namespace detail

inline bool profile_enabled() {
  return (detail::g_probes.load(std::memory_order_relaxed) & detail::kProfileProbes) != 0;
}

// Runtime toggle (SPECTRA_PROFILE flips it on during static init).
inline void profile_set_enabled(bool enabled) {
  detail::set_probes(detail::kProfileProbes, enabled);
}

// Attribute `flops` floating-point operations and `bytes` of memory
// traffic to the innermost open scope on this thread. No-op when
// profiling is disabled or no scope is open.
void profile_add_work(double flops, double bytes);

// Aligned text tree: one row per node with calls, inclusive/exclusive
// seconds, GFLOP/s and arithmetic intensity where work was attributed.
// Per-thread trees are merged by path; scopes entered on pool workers
// appear as their own top-level subtrees.
std::string profile_report_text();

// The same tree as a JSON document:
//   {"wall_seconds": W, "tree": [{"name", "calls", "incl_seconds",
//    "excl_seconds", "flops", "bytes", "children": [...]}, ...]}
std::string profile_report_json();

// Write profile_report_json() to `path`, or honour $SPECTRA_PROFILE when
// `path` is empty (no-op when the knob is unset or a bare enable flag).
void profile_dump(const std::string& path = "");

// Discard every recorded node and restart the wall-clock origin. Only
// safe while no scopes are open. Tests only.
void profile_reset();

// Scoped probe. `name` must be a string literal (profile node identity is
// the pointer first, contents second; trace events keep the pointer).
class Scope {
 public:
  explicit Scope(const char* name) {
    const unsigned probes = detail::g_probes.load(std::memory_order_relaxed);
    if (probes != 0) enter(name, probes);
  }
  ~Scope() {
    if (probes_ != 0) exit();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  void enter(const char* name, unsigned probes);
  void exit();

  unsigned probes_ = 0;  // consumers on at entry; 0 while probes are off
  const char* name_ = nullptr;
  detail::ProfileNode* node_ = nullptr;  // nullptr unless profiling at entry
  std::uint64_t start_ns_ = 0;
};

}  // namespace spectra::obs

#define SG_SCOPE_CONCAT_INNER(a, b) a##b
#define SG_SCOPE_CONCAT(a, b) SG_SCOPE_CONCAT_INNER(a, b)

// -DSPECTRA_STRIP_PROBES compiles the scope away entirely; the CI
// obs-overhead job builds a stripped twin to measure what the disabled
// probes cost against truly probe-free code.
#if defined(SPECTRA_STRIP_PROBES)
#define SG_SCOPE(name) \
  do {                 \
  } while (false)
#else
#define SG_SCOPE(name) ::spectra::obs::Scope SG_SCOPE_CONCAT(sg_scope_, __COUNTER__)(name)
#endif

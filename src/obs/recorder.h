// Internal to src/obs: the one per-thread probe record behind SG_SCOPE
// and the process-wide state that reaches it. profile.cpp records into it
// and reports the profile tree; trace.cpp exports its trace events.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace spectra::obs::detail {

// One node of a thread's timing tree. Nodes are created on first entry
// and leaked (threads may outlive main during shutdown; report code may
// walk a tree while its owner is still recording).
struct ProfileNode {
  const char* name = nullptr;
  ProfileNode* parent = nullptr;
  std::vector<ProfileNode*> children;
  std::uint64_t calls = 0;
  std::uint64_t incl_ns = 0;
  double flops = 0.0;
  double bytes = 0.0;
};

// One completed scope, in nanoseconds since the probe origin.
struct TraceEvent {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
};

// Per-thread record: the profile tree and the trace event buffer.
// Mutations come only from the owning thread; the mutex exists so
// reports, resets and stream drains can read from other threads.
// Uncontended in the hot path.
struct ThreadRecord {
  Mutex mutex SG_ACQUIRED_AFTER(lock_order::obs)
      SG_ACQUIRED_BEFORE(lock_order::fft_cache);
  ProfileNode root SG_GUARDED_BY(mutex);
  ProfileNode* current SG_GUARDED_BY(mutex) = &root;
  // Subtrees profile_reset detached: kept (and reachable) because a
  // scope still open at the reset points into them.
  std::vector<ProfileNode*> detached SG_GUARDED_BY(mutex);
  std::vector<TraceEvent> events SG_GUARDED_BY(mutex);
  std::uint32_t tid = 0;  // assigned once at registration, const afterwards
};

struct ProbeState {
  Mutex mutex SG_ACQUIRED_AFTER(lock_order::obs)
      SG_ACQUIRED_BEFORE(lock_order::fft_cache);
  std::vector<ThreadRecord*> records SG_GUARDED_BY(mutex);  // leaked; one per thread
  std::uint32_t next_tid SG_GUARDED_BY(mutex) = 1;
  // The one clock origin of every probe timestamp. Set at construction,
  // never reset — reads need no lock.
  const std::chrono::steady_clock::time_point origin = std::chrono::steady_clock::now();
  // Start of the profile report's wall clock, in probe nanoseconds.
  // Atomic, not guarded: profile_reset rewrites it while reports read it.
  std::atomic<std::uint64_t> wall_start_ns{0};
};

// The leaked process state and the calling thread's leaked record.
ProbeState& probe_state();
ThreadRecord& thread_record();

// Steady-clock nanoseconds since ProbeState::origin.
std::uint64_t probe_now_ns();

// Called after a scope appended one trace event to its thread's record.
// Defined by the trace export (trace.cpp), which alone knows the stream.
void trace_event_recorded();

}  // namespace spectra::obs::detail

#include "obs/trace.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace spectra::obs {

namespace {

using detail::ProbeState;
using detail::ThreadRecord;
using detail::TraceEvent;

// Streaming trace sink. `mutex` serializes drains; the hot path only
// touches the atomics and takes the mutex via try_lock, so a drain in
// progress never blocks recording threads.
struct TraceStream {
  Mutex mutex SG_ACQUIRED_AFTER(lock_order::obs)
      SG_ACQUIRED_BEFORE(lock_order::fft_cache);
  std::ofstream out SG_GUARDED_BY(mutex);
  std::string path SG_GUARDED_BY(mutex);
  bool any_event SG_GUARDED_BY(mutex) = false;  // comma needed before the next event
  std::atomic<bool> streaming{false};     // fast check before the pending math
  std::atomic<std::uint64_t> pending{0};  // events buffered since last drain
};

TraceStream& trace_stream() {
  static TraceStream* s = new TraceStream();  // leaked: threads may still record during exit
  return *s;
}

void format_event(std::ostream& out, const TraceEvent& event, std::uint32_t tid) {
  out << "{\"name\":\"" << json_escape(event.name)
      << "\",\"cat\":\"spectra\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
      << ",\"ts\":" << event.start_ns / 1000 << ",\"dur\":" << event.dur_ns / 1000 << '}';
}

// Move every buffered event into the open stream. Caller holds
// `stream.mutex`; buffers are cleared as they drain, bounding memory.
void drain_locked(TraceStream& stream) SG_REQUIRES(stream.mutex) {
  if (!stream.out.is_open()) return;
  std::vector<TraceEvent> batch;
  std::vector<ThreadRecord*> records;
  {
    ProbeState& s = detail::probe_state();
    MutexLock registry_lock(s.mutex);
    records = s.records;
  }
  for (ThreadRecord* record : records) {
    batch.clear();
    {
      MutexLock lock(record->mutex);
      batch.swap(record->events);
    }
    for (const TraceEvent& event : batch) {
      if (stream.any_event) stream.out << ",\n";
      stream.any_event = true;
      format_event(stream.out, event, record->tid);
    }
  }
  stream.pending.store(0, std::memory_order_relaxed);
  stream.out.flush();
  Registry::instance().counter("trace.stream_flushes").inc();
}

}  // namespace

void detail::trace_event_recorded() {
  TraceStream& stream = trace_stream();
  if (!stream.streaming.load(std::memory_order_relaxed)) return;
  const std::uint64_t pending = stream.pending.fetch_add(1, std::memory_order_relaxed) + 1;
  if (pending < kStreamFlushEvents) return;
  // Opportunistic drain: whichever thread crosses the threshold while
  // the stream is free does the work; others keep recording.
  if (stream.mutex.try_lock()) {
    MutexLock lock(stream.mutex, std::adopt_lock);
    drain_locked(stream);
  }
}

std::string trace_json() {
  ProbeState& s = detail::probe_state();
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  MutexLock registry_lock(s.mutex);
  for (ThreadRecord* record : s.records) {
    MutexLock lock(record->mutex);
    for (const TraceEvent& event : record->events) {
      if (!first) out << ',';
      first = false;
      format_event(out, event, record->tid);
    }
  }
  out << "]}";
  return out.str();
}

void trace_flush(const std::string& path) {
  std::string target = path;
  if (target.empty()) {
    const char* env = std::getenv("SPECTRA_TRACE");
    if (env != nullptr) target = env;
  }
  if (target.empty()) return;
  // When the stream owns that file, a whole-document overwrite would
  // corrupt it — route through a drain instead.
  {
    TraceStream& stream = trace_stream();
    MutexLock lock(stream.mutex);
    if (stream.out.is_open() && stream.path == target) {
      drain_locked(stream);
      return;
    }
  }
  std::ofstream out(target);
  if (!out) return;
  out << trace_json() << '\n';
}

void trace_reset() {
  {
    ProbeState& s = detail::probe_state();
    MutexLock registry_lock(s.mutex);
    for (ThreadRecord* record : s.records) {
      MutexLock lock(record->mutex);
      record->events.clear();
    }
  }
  trace_stream().pending.store(0, std::memory_order_relaxed);
}

bool trace_recover_partial(const std::string& path) {
  std::string tail;
  {
    std::ifstream in(path);
    if (!in) return false;
    std::ostringstream contents;
    contents << in.rdbuf();
    tail = contents.str();
  }
  // Streaming files open with '[' and only a clean close writes the
  // final ']'. A kill between drains leaves the file ending at an event
  // boundary ('}'), so the terminator alone cannot tell complete from
  // cut — the leading '[' can. Whole-document dumps start with '{' and
  // are written in one shot; leave them (and already-closed streams)
  // alone.
  std::size_t begin = 0;
  while (begin < tail.size() && (tail[begin] == '\n' || tail[begin] == ' ')) ++begin;
  std::size_t end = tail.size();
  while (end > begin && (tail[end - 1] == '\n' || tail[end - 1] == ' ')) --end;
  if (end == begin || tail[begin] != '[') return false;
  if (tail[end - 1] == ']') return false;
  // Drop any record cut mid-write: keep through the last complete event
  // (event JSON is flat, so the last '}' always closes an event), or
  // just the '[' header when the kill landed before the first drain.
  const std::size_t brace = tail.find_last_of('}', end - 1);
  const std::size_t keep = (brace == std::string::npos || brace < begin) ? begin : brace;
  {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    out << tail.substr(0, keep + 1) << "\n]\n";
  }
  const std::string recovered = path + ".recovered";
  std::remove(recovered.c_str());
  return std::rename(path.c_str(), recovered.c_str()) == 0;
}

void trace_stream_open(const std::string& path) {
  if (path.empty()) return;
  TraceStream& stream = trace_stream();
  // Lock-free already-open check: a drain (which holds the stream mutex)
  // may fault in Registry::instance(), whose env hooks re-enter here —
  // bailing on the atomic avoids self-deadlock on the mutex.
  if (stream.streaming.load(std::memory_order_relaxed)) return;
  MutexLock lock(stream.mutex);
  if (stream.out.is_open()) return;
  trace_recover_partial(path);
  stream.out.open(path);
  if (!stream.out) return;
  stream.path = path;
  stream.any_event = false;
  stream.out << "[\n";
  stream.out.flush();
  stream.streaming.store(true, std::memory_order_relaxed);
}

void trace_stream_drain() {
  TraceStream& stream = trace_stream();
  MutexLock lock(stream.mutex);
  drain_locked(stream);
}

void trace_stream_close() {
  TraceStream& stream = trace_stream();
  MutexLock lock(stream.mutex);
  if (!stream.out.is_open()) return;
  stream.streaming.store(false, std::memory_order_relaxed);
  drain_locked(stream);
  stream.out << "\n]\n";
  stream.out.close();
  stream.path.clear();
  stream.any_event = false;
}

}  // namespace spectra::obs

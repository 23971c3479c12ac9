#include "obs/profile.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace spectra::obs {

namespace detail {

std::atomic<unsigned> g_probes{0};

void set_probes(unsigned bits, bool enabled) {
  if (enabled) {
    g_probes.fetch_or(bits, std::memory_order_relaxed);
  } else {
    g_probes.fetch_and(~bits, std::memory_order_relaxed);
  }
}

ProbeState& probe_state() {
  static ProbeState* s = new ProbeState();  // leaked: threads may still record during exit
  return *s;
}

ThreadRecord& thread_record() {
  thread_local ThreadRecord* record = [] {
    auto* r = new ThreadRecord();  // leaked: reports and drains read it after thread exit
    ProbeState& s = probe_state();
    MutexLock lock(s.mutex);
    r->tid = s.next_tid++;
    s.records.push_back(r);
    return r;
  }();
  return *record;
}

std::uint64_t probe_now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - probe_state().origin)
                                        .count());
}

void probes_env_autostart() {
  // sg-lint: allow(mutable-static) once-guard for the env autostart hook
  static bool done = false;
  if (done) return;
  done = true;
  // `1`/`true` only enable; anything else is additionally the JSON dump
  // path (profile_dump reads the knob again at exit).
  if (std::getenv("SPECTRA_PROFILE") != nullptr) {
    profile_set_enabled(true);
    std::atexit([] {
      std::fputs(profile_report_text().c_str(), stderr);
      profile_dump();
    });
  }
  const char* trace = std::getenv("SPECTRA_TRACE");
  if (trace != nullptr && trace[0] != '\0') {
    trace_set_enabled(true);
    trace_stream_open(trace);
    std::atexit([] { trace_stream_close(); });
  }
}

}  // namespace detail

namespace {

using detail::ProfileNode;
using detail::ThreadRecord;

// Primary autostart: runs at static init in any binary that opens scopes
// (they reference this TU). The Registry::instance() hook is the
// backstop; the once-guard makes the pair idempotent.
const bool g_probes_env_init = [] {
  detail::probes_env_autostart();
  return true;
}();

// --- merged report tree -------------------------------------------------

// Aggregate of same-path nodes across threads.
struct MergedNode {
  const char* name = nullptr;
  std::uint64_t calls = 0;
  std::uint64_t incl_ns = 0;
  double flops = 0.0;
  double bytes = 0.0;
  std::vector<MergedNode> children;
};

MergedNode& merged_child(MergedNode& parent, const char* name) {
  for (MergedNode& child : parent.children) {
    if (child.name == name || std::strcmp(child.name, name) == 0) return child;
  }
  parent.children.emplace_back();
  parent.children.back().name = name;
  return parent.children.back();
}

// The record's mutex must be held by the caller for the root of the walk.
void merge_into(MergedNode& dst, const ProfileNode& src) {
  dst.calls += src.calls;
  dst.incl_ns += src.incl_ns;
  dst.flops += src.flops;
  dst.bytes += src.bytes;
  for (const ProfileNode* child : src.children) {
    merge_into(merged_child(dst, child->name), *child);
  }
}

// Snapshot every thread's tree into one merged root (name == nullptr).
MergedNode merged_snapshot() {
  MergedNode root;
  detail::ProbeState& s = detail::probe_state();
  MutexLock registry_lock(s.mutex);
  for (ThreadRecord* record : s.records) {
    MutexLock lock(record->mutex);
    merge_into(root, record->root);
  }
  return root;
}

std::uint64_t children_incl_ns(const MergedNode& node) {
  std::uint64_t total = 0;
  for (const MergedNode& child : node.children) total += child.incl_ns;
  return total;
}

// Exclusive time: inclusive minus children's inclusive (clamped — a
// child's open scope can momentarily exceed its parent's recorded time).
std::uint64_t excl_ns(const MergedNode& node) {
  const std::uint64_t children = children_incl_ns(node);
  return node.incl_ns > children ? node.incl_ns - children : 0;
}

void format_text(const MergedNode& node, int depth, std::ostringstream& out) {
  const double incl_s = static_cast<double>(node.incl_ns) * 1e-9;
  char row[256];
  std::string label(static_cast<std::size_t>(2 * depth), ' ');
  label += node.name;
  std::snprintf(row, sizeof(row), "%-42s %9llu %11.6f %11.6f", label.c_str(),
                static_cast<unsigned long long>(node.calls),
                incl_s, static_cast<double>(excl_ns(node)) * 1e-9);
  out << row;
  if (node.flops > 0.0) {
    std::snprintf(row, sizeof(row), " %9.3f", incl_s > 0.0 ? node.flops / incl_s * 1e-9 : 0.0);
    out << row;
    if (node.bytes > 0.0) {
      std::snprintf(row, sizeof(row), " %8.2f", node.flops / node.bytes);
      out << row;
    }
  }
  out << '\n';
  for (const MergedNode& child : node.children) format_text(child, depth + 1, out);
}

void format_json(const MergedNode& node, std::ostringstream& out) {
  const double incl_s = static_cast<double>(node.incl_ns) * 1e-9;
  out << "{\"name\":\"" << json_escape(node.name) << "\",\"calls\":" << node.calls
      << ",\"incl_seconds\":" << incl_s
      << ",\"excl_seconds\":" << static_cast<double>(excl_ns(node)) * 1e-9
      << ",\"flops\":" << node.flops << ",\"bytes\":" << node.bytes;
  if (node.flops > 0.0 && incl_s > 0.0) {
    out << ",\"gflops\":" << node.flops / incl_s * 1e-9;
  }
  out << ",\"children\":[";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i != 0) out << ',';
    format_json(node.children[i], out);
  }
  out << "]}";
}

double wall_seconds() {
  const std::uint64_t start = detail::probe_state().wall_start_ns.load(std::memory_order_relaxed);
  return static_cast<double>(detail::probe_now_ns() - start) * 1e-9;
}

}  // namespace

void Scope::enter(const char* name, unsigned probes) {
  probes_ = probes;
  name_ = name;
  if ((probes & detail::kProfileProbes) != 0) {
    ThreadRecord& record = detail::thread_record();
    MutexLock lock(record.mutex);
    ProfileNode* parent = record.current;
    for (ProfileNode* child : parent->children) {
      // String literals make pointer identity the common case; the strcmp
      // covers the same name spelled in two translation units.
      if (child->name == name || std::strcmp(child->name, name) == 0) {
        node_ = child;
        break;
      }
    }
    if (node_ == nullptr) {
      node_ = new ProfileNode();  // leaked with the tree
      node_->name = name;
      node_->parent = parent;
      parent->children.push_back(node_);
    }
    record.current = node_;
  }
  start_ns_ = detail::probe_now_ns();
}

void Scope::exit() {
  const std::uint64_t dur_ns = detail::probe_now_ns() - start_ns_;
  const bool traced = (probes_ & detail::kTraceProbes) != 0;
  ThreadRecord& record = detail::thread_record();
  {
    MutexLock lock(record.mutex);
    if (node_ != nullptr) {
      node_->calls += 1;
      node_->incl_ns += dur_ns;
      // Pop to the scope's own parent (not current->parent) so an exit
      // after profile_reset or mismatched nesting cannot walk off the tree.
      record.current = node_->parent != nullptr ? node_->parent : &record.root;
    }
    if (traced) record.events.push_back({name_, start_ns_, dur_ns});
  }
  if (traced) detail::trace_event_recorded();
}

void profile_add_work(double flops, double bytes) {
  if (!profile_enabled()) return;
  ThreadRecord& record = detail::thread_record();
  MutexLock lock(record.mutex);
  if (record.current == &record.root) return;  // no open scope on this thread
  record.current->flops += flops;
  record.current->bytes += bytes;
}

std::string profile_report_text() {
  const MergedNode root = merged_snapshot();
  std::ostringstream out;
  char row[256];
  std::snprintf(row, sizeof(row), "# profile tree — wall %.6f s\n%-42s %9s %11s %11s %9s %8s\n",
                wall_seconds(), "scope", "calls", "incl(s)", "excl(s)", "GFLOP/s", "f/B");
  out << row;
  for (const MergedNode& child : root.children) format_text(child, 0, out);
  return out.str();
}

std::string profile_report_json() {
  const MergedNode root = merged_snapshot();
  std::ostringstream out;
  out << "{\"wall_seconds\":" << wall_seconds() << ",\"tree\":[";
  for (std::size_t i = 0; i < root.children.size(); ++i) {
    if (i != 0) out << ',';
    format_json(root.children[i], out);
  }
  out << "]}";
  return out.str();
}

void profile_dump(const std::string& path) {
  std::string target = path;
  if (target.empty()) {
    const char* env = std::getenv("SPECTRA_PROFILE");
    if (env != nullptr && std::strcmp(env, "1") != 0 && std::strcmp(env, "true") != 0) {
      target = env;
    }
  }
  if (target.empty()) return;
  std::ofstream out(target);
  if (!out) return;
  out << profile_report_json() << '\n';
}

void profile_reset() {
  detail::ProbeState& s = detail::probe_state();
  {
    MutexLock registry_lock(s.mutex);
    for (ThreadRecord* record : s.records) {
      MutexLock lock(record->mutex);
      std::vector<ProfileNode*>& children = record->root.children;
      record->detached.insert(record->detached.end(), children.begin(), children.end());
      children.clear();
      record->current = &record->root;
    }
  }
  s.wall_start_ns.store(detail::probe_now_ns(), std::memory_order_relaxed);
}

}  // namespace spectra::obs

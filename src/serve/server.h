// Generation-as-a-service (DESIGN §6g): a long-running in-process server
// that turns one-shot `generate_city` calls into queued, cancellable
// requests against one shared read-only model.
//
// Shape of the system:
//
//   clients ──submit──▶ bounded queue ──▶ N serve workers ──rows──▶ RowSink
//                        (backpressure)    (shared ThreadPool)       (per request)
//
// Each worker pops a request, binds a pooled per-request GEMM workspace
// (gemm::WorkspaceScope), and runs `generate_city_streamed` on the shared
// `const SpectraGan`. Because serve workers are ThreadPool workers, every
// nested `parallel_for` inside the generator executes inline — a
// request's entire forward/sew pipeline is one serial instruction stream
// on one worker, while the pool multiplexes up to `workers` requests'
// batched patch forwards through the same GEMM/conv kernels. That is
// also the determinism argument: each request computes exactly the
// serial (SPECTRA_THREADS=1) path, which the PR-2/PR-4 contracts pin
// bitwise-equal to every other thread count — so a (seed, context, T)
// request returns identical rows no matter how many other requests are
// in flight or how they interleave (tests/serve_test.cpp, 1-vs-8).
//
// Failure isolation: a request that violates model preconditions (wrong
// channel count, bad T) or whose sink throws fails *that request*
// (`serve.requests_failed`, message in the handle) and the server keeps
// serving — the daemon must never die to a bad request.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "geo/city_tensor.h"
#include "geo/strip_accumulator.h"
#include "nn/gemm.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace spectra::serve {

// Thrown by submit(OnFull::kReject) when the queue is at capacity.
class QueueFullError : public Error {
 public:
  explicit QueueFullError(std::string message) : Error(std::move(message)) {}
};

// One city-generation request: the (seed, context, steps) triple that
// fully determines the output, plus the aggregation mode.
struct Request {
  std::uint64_t seed = 0;
  long steps = 0;
  geo::ContextTensor context;
  geo::OverlapAggregation aggregation = geo::OverlapAggregation::kMean;
};

enum class RequestState {
  kQueued,     // accepted, waiting for a worker
  kRunning,    // a worker is generating
  kDone,       // all rows delivered
  kFailed,     // model precondition or sink failure; see error()
  kCancelled,  // cancel() observed mid-stream (or server stopped first)
};

// Client-side view of a submitted request. Copyable (shared state); the
// sink passed to submit() must outlive the terminal state.
class RequestHandle {
 public:
  std::uint64_t id() const;

  // Cooperative cancellation: the serving worker checks before every row
  // delivery, so after cancel() returns no further rows reach the sink.
  // Cancelling a finished request is a no-op.
  void cancel();

  // Block until the request reaches a terminal state and return it.
  RequestState wait() const;

  RequestState state() const;
  long rows_streamed() const;
  std::string error() const;  // non-empty only for kFailed

  // Implementation detail (defined in server.cpp); public only so the
  // serving-side sink wrapper can name it.
  struct Shared;

 private:
  friend class Server;
  std::shared_ptr<Shared> shared_;
};

struct ServerOptions {
  std::size_t workers = 8;      // concurrent in-flight requests served
  std::size_t queue_limit = 32; // queued (not yet running) requests accepted

  // SPECTRA_SERVE_WORKERS / SPECTRA_SERVE_QUEUE with the defaults above.
  static ServerOptions from_env();
};

class Server {
 public:
  // The model is shared read-only across every request (the weights
  // registry hands out the same instance to any number of servers).
  Server(std::shared_ptr<const core::SpectraGan> model, ServerOptions options);
  explicit Server(std::shared_ptr<const core::SpectraGan> model)
      : Server(std::move(model), ServerOptions::from_env()) {}
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Backpressure policy when the queue is at queue_limit.
  enum class OnFull {
    kReject,  // throw QueueFullError (counted in serve.requests_rejected)
    kBlock,   // park the caller until a slot frees up
  };

  // Invoked exactly once, from a worker thread (or from stop() for
  // requests that never ran), immediately *before* the terminal state
  // becomes observable through the handle — so a completion frame hits
  // the wire before any wait() returns. Must not block on the handle.
  using CompletionFn = std::function<void(std::uint64_t id, RequestState state, long rows,
                                          const std::string& error)>;

  // Enqueue a request; rows stream into `sink` from a worker thread in
  // strictly increasing row order. `sink` must stay valid until the
  // handle reaches a terminal state.
  RequestHandle submit(Request request, geo::RowSink& sink, OnFull on_full = OnFull::kReject,
                       CompletionFn on_done = nullptr);

  // Stop accepting, cancel queued requests, finish running ones, join
  // workers. Idempotent; also run by the destructor.
  void stop();

  const ServerOptions& options() const { return options_; }
  const core::SpectraGan& model() const { return *model_; }

 private:
  struct Queued {
    Request request;
    geo::RowSink* sink = nullptr;
    std::shared_ptr<RequestHandle::Shared> shared;
    CompletionFn on_done;
  };

  void worker_loop();
  void process(Queued item);

  std::shared_ptr<const core::SpectraGan> model_;
  ServerOptions options_;

  Mutex mutex_ SG_ACQUIRED_AFTER(lock_order::serve) SG_ACQUIRED_BEFORE(lock_order::pool);
  CondVar queue_cv_;  // workers wait for work / stop; late stop() callers wait for the join
  CondVar space_cv_;  // kBlock submitters wait for space
  std::deque<Queued> queue_ SG_GUARDED_BY(mutex_);
  std::size_t running_ SG_GUARDED_BY(mutex_) = 0;  // requests currently on a worker
  bool stopping_ SG_GUARDED_BY(mutex_) = false;
  bool stop_done_ SG_GUARDED_BY(mutex_) = false;  // workers joined, pool torn down
  std::uint64_t next_id_ SG_GUARDED_BY(mutex_) = 1;

  // Pooled per-request GEMM workspaces: at most `workers` live at once,
  // recycled so steady-state request turnover never reallocates packed
  // panels (the gemm.workspace_grows contract, now per request instead
  // of per thread).
  std::vector<std::unique_ptr<nn::gemm::Workspace>> workspace_pool_ SG_GUARDED_BY(mutex_);

  // The workers: long-running tasks on a dedicated ThreadPool (the
  // sanctioned threading primitive — DESIGN §6a). Written by the
  // constructor, swapped out under mutex_ by the stop() that joins them.
  std::unique_ptr<ThreadPool> pool_ SG_GUARDED_BY(mutex_);
  std::vector<std::future<void>> workers_ SG_GUARDED_BY(mutex_);
};

}  // namespace spectra::serve

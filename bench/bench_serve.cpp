// Serving-throughput bench (DESIGN §6g): drive a Server the way the
// daemon does — closed-loop clients, each submitting generation
// requests and blocking for rows — and measure request throughput and
// latency tails solo (1 client) versus loaded (SPECTRA_SERVE_CLIENTS
// concurrent clients, default 8).
//
// Two contracts are asserted here, not just measured:
//   * the loaded phase must actually sustain `clients` concurrent
//     in-flight requests (serve.inflight_peak), and
//   * every response — solo, loaded, any interleaving — must be bitwise
//     identical to a direct generate_city call with the same
//     (seed, context, T): the serve determinism contract.
//
// Emits BENCH_SERVE.json (override with SPECTRA_BENCH_OUT) — gated in
// CI by scripts/check_bench_serve.py: determinism and concurrency are
// hard gates, the loaded/solo throughput ratio is machine-independent,
// and absolute req/s is compared against the committed baseline.
//
// Knobs: SPECTRA_SERVE_CLIENTS (default 8), SPECTRA_SERVE_REQS
// (requests per client per phase, default 16; at 4 the loaded phase
// lasted about 0.2 s and its req/s spread over 3x between runs),
// SPECTRA_SERVE_GRID (city extent, default 64).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_report.h"
#include "core/trainer.h"
#include "geo/strip_accumulator.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "serve/server.h"
#include "util/env.h"
#include "util/error.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using namespace spectra;

// Same deliberately small model as bench_megacity: the subject is the
// serving machinery, so the per-patch forward stays cheap while the
// patch geometry stays realistic.
core::SpectraGanConfig bench_config() {
  core::SpectraGanConfig config;
  config.patch = {.traffic_h = 8, .traffic_w = 8, .context_h = 16, .context_w = 16, .stride = 4};
  config.context_channels = 3;
  config.train_steps = 24;
  config.spectrum_bins = 8;
  config.hidden_channels = 6;
  config.encoder_mid_channels = 8;
  config.spectrum_mid_channels = 8;
  config.lstm_hidden = 8;
  config.cond_dim = 8;
  config.disc_mlp_hidden = 8;
  config.noise_channels = 2;
  return config;
}

struct PhaseResult {
  std::string name;
  long clients = 0;
  long requests = 0;
  double seconds = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double peak_rss_bytes = 0.0;
  double req_per_s() const {
    return seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
  }
};

double exact_quantile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

// Closed-loop phase: `clients` concurrent clients, each submitting
// `reqs` requests back-to-back (seed fixed per client so every response
// can be checked bitwise against the direct-generation reference).
PhaseResult run_phase(const std::string& name, serve::Server& server,
                      const geo::ContextTensor& context, long steps, long clients, long reqs,
                      const std::vector<geo::CityTensor>& reference) {
  std::vector<std::vector<double>> latencies(static_cast<std::size_t>(clients));
  std::atomic<long> mismatches{0};
  std::atomic<long> failures{0};

  Stopwatch phase_watch;
  {
    ThreadPool client_pool(static_cast<std::size_t>(clients));
    std::vector<std::future<void>> futures;
    for (long c = 0; c < clients; ++c) {
      futures.push_back(client_pool.submit([&, c] {
        const std::size_t slot = static_cast<std::size_t>(c);
        for (long i = 0; i < reqs; ++i) {
          serve::Request request;
          request.seed = 1000 + static_cast<std::uint64_t>(c);
          request.steps = steps;
          request.context = context;  // copy: requests own their context
          geo::CityTensorSink sink(steps, context.height(), context.width());
          Stopwatch watch;
          serve::RequestHandle handle =
              server.submit(std::move(request), sink, serve::Server::OnFull::kBlock);
          const serve::RequestState state = handle.wait();
          latencies[slot].push_back(watch.seconds());
          if (state != serve::RequestState::kDone) {
            failures.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (sink.take().values() != reference[slot].values()) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }));
    }
    for (std::future<void>& f : futures) f.get();
  }

  PhaseResult r;
  r.name = name;
  r.clients = clients;
  r.requests = clients * reqs;
  r.seconds = phase_watch.seconds();
  std::vector<double> all;
  for (const std::vector<double>& v : latencies) all.insert(all.end(), v.begin(), v.end());
  r.p50_s = exact_quantile(all, 0.50);
  r.p99_s = exact_quantile(all, 0.99);
  r.peak_rss_bytes = obs::sample_once().peak_rss_bytes;

  SG_CHECK(failures.load() == 0, "serve bench: requests failed in phase " + name);
  SG_CHECK(mismatches.load() == 0,
           "serve bench: response differed from direct generation in phase " + name +
               " — determinism contract broken");
  return r;
}

void emit_json(const std::vector<PhaseResult>& phases, double in_flight_peak, long grid,
               long steps, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    SG_LOG_ERROR << "bench_serve: cannot open " << path;
    return;
  }
  const PhaseResult& solo = phases.front();
  const PhaseResult& loaded = phases.back();
  std::fprintf(f, "{\n  \"schema\": 1,\n  \"threads\": %zu,\n", parallel_threads());
  std::fprintf(f, "  \"grid\": %ld,\n  \"steps\": %ld,\n", grid, steps);
  std::fprintf(f, "  \"req_per_s\": %.3f,\n", loaded.req_per_s());
  std::fprintf(f, "  \"p50_s\": %.4f,\n  \"p99_s\": %.4f,\n", loaded.p50_s, loaded.p99_s);
  std::fprintf(f, "  \"in_flight_peak\": %.0f,\n", in_flight_peak);
  std::fprintf(f, "  \"deterministic\": true,\n");
  std::fprintf(f, "  \"rss_growth_bytes\": %.0f,\n",
               loaded.peak_rss_bytes - solo.peak_rss_bytes);
  std::fprintf(f, "  \"phases\": [\n");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& r = phases[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"clients\": %ld, \"requests\": %ld,\n"
                 "     \"seconds\": %.3f, \"req_per_s\": %.3f, \"p50_s\": %.4f,\n"
                 "     \"p99_s\": %.4f, \"peak_rss_bytes\": %.0f}%s\n",
                 r.name.c_str(), r.clients, r.requests, r.seconds, r.req_per_s(), r.p50_s,
                 r.p99_s, r.peak_rss_bytes, i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  const long clients = env_long("SPECTRA_SERVE_CLIENTS", 8);
  const long reqs = env_long("SPECTRA_SERVE_REQS", 16);
  const long grid = env_long("SPECTRA_SERVE_GRID", 64);
  SG_CHECK(clients >= 1 && reqs >= 1 && grid >= 16, "bench_serve: bad knob values");

  const core::SpectraGanConfig config = bench_config();
  auto model = std::make_shared<const core::SpectraGan>(config, /*seed=*/16);

  geo::ContextTensor context(config.context_channels, grid, grid);
  Rng rng_fill(17);
  for (double& v : context.values()) v = rng_fill.uniform(0, 1);

  // Direct-generation references, one per client seed: the bitwise
  // ground truth every served response is compared against.
  std::vector<geo::CityTensor> reference;
  reference.reserve(static_cast<std::size_t>(clients));
  for (long c = 0; c < clients; ++c) {
    Rng rng(1000 + static_cast<std::uint64_t>(c));
    reference.push_back(model->generate_city(context, config.train_steps, rng));
  }

  serve::ServerOptions options;
  options.workers = static_cast<std::size_t>(clients);
  options.queue_limit = static_cast<std::size_t>(clients) * 4;
  serve::Server server(model, options);

  obs::MaxGauge& inflight = obs::Registry::instance().max_gauge("serve.inflight_peak");

  std::vector<PhaseResult> phases;
  // Solo FIRST: VmHWM is monotone per process, so loaded - solo RSS
  // growth is only meaningful in this order (and the solo phase warms
  // the workspace pool, so growth isolates load-driven allocation).
  phases.push_back(
      run_phase("solo", server, context, config.train_steps, 1, clients * reqs, reference));
  inflight.reset();
  phases.push_back(
      run_phase("loaded", server, context, config.train_steps, clients, reqs, reference));
  const double in_flight_peak = inflight.value();
  server.stop();

  // The load gate's reason to exist: the loaded phase must have had
  // `clients` requests genuinely in flight at once.
  SG_CHECK(in_flight_peak >= static_cast<double>(clients),
           "bench_serve: loaded phase never reached " + std::to_string(clients) +
               " concurrent in-flight requests");

  std::printf("%-7s %-8s %-9s %-9s %-9s %-9s %s\n", "phase", "clients", "requests", "seconds",
              "req/s", "p50 ms", "p99 ms");
  for (const PhaseResult& r : phases) {
    std::printf("%-7s %-8ld %-9ld %-9.2f %-9.2f %-9.1f %.1f\n", r.name.c_str(), r.clients,
                r.requests, r.seconds, r.req_per_s(), r.p50_s * 1e3, r.p99_s * 1e3);
  }
  std::printf("in-flight peak: %.0f, deterministic: yes, rss growth solo->loaded: %.1f MB\n",
              in_flight_peak,
              (phases[1].peak_rss_bytes - phases[0].peak_rss_bytes) / (1024.0 * 1024.0));

  emit_json(phases, in_flight_peak, grid, config.train_steps,
            env_string("SPECTRA_BENCH_OUT", "BENCH_SERVE.json"));
  spectra::bench::bench_report("bench_serve");
  return 0;
}

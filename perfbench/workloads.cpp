// Workload program of the repository benchmark. perfbench/run.py builds it,
// runs one workload per process and turns the raw measurements this
// program writes into the benchmark's metrics.
//
// Every workload runs the paper-scale default model
// (core::SpectraGanConfig{}) through public entry points only:
//
//   train     SpectraGan::train with checkpointing, one fresh model and
//             one empty checkpoint directory per leave-one-city-out fold
//   serve     WeightsRegistry + Server + daemon_loop over a pipe pair,
//             driven by one closed-loop load generator
//   megacity  SpectraGan::generate_city_streamed of a 128x128 city into
//             a SpillRowSink
//
// A run is: synthesize the inputs from --seed (untimed), set up
// kSetupReps times (setup_s is the median), then one timed pass that
// starts whole units of work (folds, request rounds, cities) until
// --seconds have elapsed. With --trace the pass instead does a fixed
// number of units, so two traced runs of one seed do identical work and
// their counts repeat exactly; it runs twice, once untraced (the overhead
// baseline) and once with the profiler on, bracketed by the profile and
// metrics JSON snapshots the program writes (obs::profile_dump,
// obs::dump_metrics). run.py diffs the two snapshots into the per-layer
// table.
//
// usage: perfbench_workloads --workload NAME --seed N --seconds S
//                         --run-dir DIR --out FILE [--trace]

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/trainer.h"
#include "data/context.h"
#include "data/dataset.h"
#include "data/sampler.h"
#include "geo/strip_accumulator.h"
#include "nn/dispatch.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/sampler.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/weights_registry.h"
#include "train/checkpoint.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace spectra;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Setups per run; setup_s is their median, so one slow set-up (a page
// cache miss, a scheduler hiccup) does not move the reported figure.
constexpr int kSetupReps = 9;

// How much work a pass does: whole units until `seconds` have elapsed,
// or exactly `units` units when units > 0 (the traced passes).
struct Budget {
  double seconds = 0.0;
  long units = 0;

  bool more(long done, Clock::time_point start) const {
    if (units > 0) return done < units;
    return done < 2 || seconds_since(start) < seconds;
  }
};

// Gives each thread of the process its own CPU, while there are enough,
// and moves every thread one CPU on every kStep. The CPUs of a shared host
// run at different speeds for seconds at a time (a CPU whose host core is
// free runs about 1.4x faster than one whose core is shared), so a run
// whose threads the scheduler leaves on a few CPUs inherits those CPUs'
// luck. Rotating makes every run sample all CPUs alike.
class CpuRotator {
 public:
  static constexpr std::chrono::milliseconds kStep{50};

  CpuRotator() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
    if (cpus_.size() > 1) thread_ = std::thread([this] { loop(); });
  }
  ~CpuRotator() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  CpuRotator(const CpuRotator&) = delete;
  CpuRotator& operator=(const CpuRotator&) = delete;

 private:
  void loop() {
    const auto self = static_cast<pid_t>(syscall(SYS_gettid));
    std::unique_lock<std::mutex> lock(mu_);
    for (std::size_t step = 0; !stop_; ++step) {
      // Oldest thread first, so the placement of long-lived threads does
      // not change when short-lived ones come and go.
      std::vector<pid_t> tids;
      std::error_code ec;
      for (const auto& entry : fs::directory_iterator("/proc/self/task", ec)) {
        const auto tid = static_cast<pid_t>(std::stol(entry.path().filename().string()));
        if (tid != self) tids.push_back(tid);
      }
      std::sort(tids.begin(), tids.end());
      for (std::size_t k = 0; k < tids.size(); ++k) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[(k + step) % cpus_.size()], &one);
        sched_setaffinity(tids[k], sizeof(one), &one);  // fails harmlessly if it exited
      }
      cv_.wait_for(lock, kStep, [this] { return stop_; });
    }
  }

  std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the members it reads
};

// --- raw-result JSON ---------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class JsonObject {
 public:
  void add_raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",\n") + json_string(key) + ": " + json;
  }
  void add(const std::string& key, double v) { add_raw(key, json_number(v)); }
  void add(const std::string& key, long v) { add_raw(key, std::to_string(v)); }
  void add(const std::string& key, const std::string& v) { add_raw(key, json_string(v)); }
  void add(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out += (i == 0 ? "" : ", ") + json_number(values[i]);
    }
    add_raw(key, out + "]");
  }
  void add(const std::string& key, const std::vector<std::string>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      out += (i == 0 ? "" : ", ") + json_string(values[i]);
    }
    add_raw(key, out + "]");
  }
  std::string str() const { return "{\n" + body_ + "\n}\n"; }

 private:
  std::string body_;
};

// --- shared helpers ----------------------------------------------------------

// FNV-1a 64 over raw bytes: the digest of a spilled city.
class Fnv1a {
 public:
  void update(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Digest of a spilled city; false when the file is short or holds a
// negative or non-finite value.
bool check_spill(const std::string& path, std::size_t values, Fnv1a& digest) {
  std::ifstream in(path, std::ios::binary);
  std::vector<double> buf(1 << 13);
  std::size_t seen = 0;
  while (in) {
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size() * sizeof(double)));
    const auto bytes = static_cast<std::size_t>(in.gcount());
    if (bytes % sizeof(double) != 0) return false;
    digest.update(buf.data(), bytes);
    for (std::size_t i = 0; i < bytes / sizeof(double); ++i) {
      if (!std::isfinite(buf[i]) || buf[i] < 0.0) return false;
    }
    seen += bytes / sizeof(double);
  }
  return seen == values;
}

bool bitwise_equal(const nn::Tensor& a, const nn::Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// Seeded Fisher-Yates: the request order and the held-out cities.
template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.uniform_index(i)]);
  }
}

std::vector<std::size_t> all_but(std::size_t n, std::size_t skip) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (i != skip) out.push_back(i);
  }
  return out;
}

// Everything a timed pass measured. run.py derives the metrics.
struct PassResult {
  double wall_s = 0.0;  // summed wall of the timed units
  double work = 0.0;    // units completed: iterations, requests, H*W*T values
  std::vector<double> latency_s;
  std::vector<double> first_output_s;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> layer;  // benchmark-side layer timers and counts
  std::vector<std::string> digests;

  void fail(const std::string& message) {
    ++failed;
    if (errors.size() < 20) errors.push_back(message);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual long clients() const { return 0; }
  // Whether run() rotates the threads round the CPUs (CpuRotator).
  virtual bool rotate_cpus() const { return true; }
  // One full set-up; returns its seconds. Called kSetupReps times; the
  // last set-up's state serves the timed passes.
  virtual double setup() = 0;
  // Untimed work between set-up and the passes (references, fixtures).
  virtual void prepare() {}
  // Units a traced pass runs: about `seconds` of work on a 4-vCPU
  // AVX-512 Xeon.
  virtual long nominal_units(double seconds) const = 0;
  virtual PassResult run_pass(const std::string& tag, const Budget& budget) = 0;
  // Set-up-phase layer timers (medians over the set-ups).
  virtual std::map<std::string, double> setup_layers() const { return {}; }
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// --- train -------------------------------------------------------------------

// Records when a file first appears: the first checkpoint is the first
// durable output of a training run. Snapshots are renamed into place, so
// the file exists only once it is complete.
class FirstFileWatcher {
 public:
  FirstFileWatcher(fs::path path, Clock::time_point start)
      : path_(std::move(path)), start_(start), thread_([this] { loop(); }) {}
  ~FirstFileWatcher() { stop(); }
  FirstFileWatcher(const FirstFileWatcher&) = delete;
  FirstFileWatcher& operator=(const FirstFileWatcher&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  // Seconds from `start` to the first sighting; negative if never seen.
  double seen_after() const { return seen_after_; }

 private:
  void loop() {
    while (!stop_.load()) {
      std::error_code ec;
      if (fs::exists(path_, ec)) {
        seen_after_ = seconds_since(start_);
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(250));
    }
  }

  fs::path path_;
  Clock::time_point start_;
  std::atomic<bool> stop_{false};
  double seen_after_ = -1.0;
  std::thread thread_;  // last: starts after the members it reads
};

class TrainWorkload : public Workload {
 public:
  // One unit is one fold: a fresh model trained for kFoldIterations with
  // one city held out. Four snapshots per fold, so retention prunes one.
  static constexpr long kFoldIterations = 100;
  static constexpr long kCkptEvery = 25;  // train::CheckpointOptions defaults
  static constexpr int kCkptKeep = 3;

  TrainWorkload(std::uint64_t seed, fs::path run_dir) : seed_(seed), run_dir_(std::move(run_dir)) {
    dataset_config_.seed = seed;
  }

  long nominal_units(double seconds) const override {
    return std::max(2L, std::lround(seconds / 5.0));
  }

  double setup() override {
    const Clock::time_point start = Clock::now();
    data::CountryDataset dataset = data::make_country1(dataset_config_);
    data::PatchSampler sampler(dataset, all_but(dataset.cities.size(), 0), config_.patch,
                               /*time_offset=*/0, config_.train_steps);
    synth_s_.push_back(seconds_since(start));
    core::SpectraGanConfig warm = config_;
    warm.iterations = 2;
    core::SpectraGan model(warm, seed_);
    Rng rng(seed_ ^ 0x5eed);
    model.train(sampler, rng, train::CheckpointOptions{});
    dataset_ = std::move(dataset);
    return seconds_since(start);
  }

  void prepare() override {
    held_out_.clear();
    for (std::size_t i = 0; i < dataset_.cities.size(); ++i) held_out_.push_back(i);
    Rng rng(seed_ ^ 0xf01d);
    shuffle(held_out_, rng);
  }

  PassResult run_pass(const std::string& tag, const Budget& budget) override {
    PassResult r;
    core::SpectraGanConfig config = config_;
    config.iterations = kFoldIterations;
    const Clock::time_point pass_start = Clock::now();
    for (long f = 0; budget.more(f, pass_start); ++f) {
      const std::string where = "fold " + std::to_string(f);
      const std::size_t held_out = held_out_[static_cast<std::size_t>(f) % held_out_.size()];
      data::PatchSampler sampler(dataset_, all_but(dataset_.cities.size(), held_out),
                                 config.patch, /*time_offset=*/0, config.train_steps);
      const auto fold_seed = seed_ + static_cast<std::uint64_t>(f + 1);
      core::SpectraGan model(config, fold_seed * 1000);
      Rng rng(fold_seed * 7919);
      const fs::path dir = run_dir_ / ("ckpt-" + tag + "-" + std::to_string(f));
      if (fs::exists(dir)) {
        r.fail(where + ": checkpoint directory is not fresh");
        continue;
      }
      train::CheckpointOptions ckpt;
      ckpt.dir = dir.string();
      ckpt.every = kCkptEvery;
      ckpt.keep_last = kCkptKeep;

      const Clock::time_point start = Clock::now();
      FirstFileWatcher first(dir / train::checkpoint_filename(kCkptEvery), start);
      const core::TrainStats stats = model.train(sampler, rng, ckpt);
      r.wall_s += seconds_since(start);
      first.stop();

      r.attempted += kFoldIterations;
      r.work += static_cast<double>(stats.iterations);
      r.latency_s.insert(r.latency_s.end(), stats.iter_seconds_history.begin(),
                         stats.iter_seconds_history.end());
      if (first.seen_after() < 0.0) {
        r.fail(where + ": first checkpoint never appeared");
      } else {
        r.first_output_s.push_back(first.seen_after());
      }
      verify_fold(r, where, model, stats, dir);
      fs::remove_all(dir);
    }
    return r;
  }

  std::map<std::string, double> setup_layers() const override {
    return {{"data.synth_s", median(synth_s_)}};
  }

 private:
  void verify_fold(PassResult& r, const std::string& where, const core::SpectraGan& model,
                   const core::TrainStats& stats, const fs::path& dir) const {
    if (stats.resumed_iteration != 0) r.fail(where + ": run resumed from a stale checkpoint");
    if (stats.iterations != kFoldIterations) r.fail(where + ": wrong iteration count");
    for (std::size_t i = 0; i < stats.d_loss_history.size(); ++i) {
      if (!std::isfinite(stats.d_loss_history[i]) || !std::isfinite(stats.g_adv_loss_history[i]) ||
          !std::isfinite(stats.l1_loss_history[i])) {
        r.fail(where + ": non-finite loss at iteration " + std::to_string(i));
      }
    }
    const std::optional<train::TrainingSnapshot> snap = train::load_latest(dir.string());
    if (!snap || snap->iteration != static_cast<std::uint64_t>(kFoldIterations)) {
      r.fail(where + ": load_latest did not read back the last snapshot");
      return;
    }
    const std::vector<nn::Var> gen = model.generator_parameters();
    const std::vector<nn::Var> disc = model.discriminator_parameters();
    bool same = snap->gen_params.size() == gen.size() && snap->disc_params.size() == disc.size();
    for (std::size_t i = 0; same && i < gen.size(); ++i) {
      same = bitwise_equal(snap->gen_params[i], gen[i].value());
    }
    for (std::size_t i = 0; same && i < disc.size(); ++i) {
      same = bitwise_equal(snap->disc_params[i], disc[i].value());
    }
    if (!same) r.fail(where + ": last snapshot differs from the trained parameters");
    const std::size_t expected =
        std::min<std::size_t>(kCkptKeep, static_cast<std::size_t>(kFoldIterations / kCkptEvery));
    if (train::list_checkpoints(dir.string()).size() != expected) {
      r.fail(where + ": checkpoint retention is not keep_last");
    }
  }

  std::uint64_t seed_;
  fs::path run_dir_;
  core::SpectraGanConfig config_;
  data::DatasetConfig dataset_config_;
  data::CountryDataset dataset_;
  std::vector<std::size_t> held_out_;  // seeded leave-one-city-out order
  std::vector<double> synth_s_;
};

// --- serve -------------------------------------------------------------------

class ServeWorkload : public Workload {
 public:
  static constexpr long kWorkers = 2;
  static constexpr long kOutstanding = 3;  // more clients than workers: a queue of ~1
  static constexpr long kHorizonWeeks = 3;  // T = 504, k = 3 expansion

  ServeWorkload(std::uint64_t seed, fs::path run_dir) : seed_(seed), run_dir_(std::move(run_dir)) {
    data::DatasetConfig dataset_config;
    dataset_config.seed = seed;
    const Clock::time_point start = Clock::now();
    dataset_ = data::make_country1(dataset_config);
    synth_s_ = seconds_since(start);
    steps_ = config_.train_steps * kHorizonWeeks;
    Rng rng(seed ^ 0x5e7e);
    for (std::size_t c = 0; c < dataset_.cities.size(); ++c) {
      request_seeds_.push_back(rng.next_u64());
    }
    order_seed_ = rng.next_u64();
    write_weights_fixture();
  }

  long clients() const override { return kOutstanding; }
  // One unit is one round of requests: every city once.
  long nominal_units(double seconds) const override {
    return std::max(1L, std::lround(seconds * 8.0 / static_cast<double>(dataset_.cities.size())));
  }

  double setup() override {
    server_.reset();
    registry_.reset();
    model_.reset();
    const Clock::time_point start = Clock::now();
    registry_ = std::make_unique<serve::WeightsRegistry>();
    const Clock::time_point load_start = Clock::now();
    model_ = registry_->get_or_load(config_, weights_dir_.string(), seed_);
    load_s_.push_back(seconds_since(load_start));
    serve::ServerOptions options;
    options.workers = kWorkers;
    options.queue_limit = 32;
    server_ = std::make_unique<serve::Server>(model_, options);
    const data::City& city = dataset_.cities.front();
    serve::Request warm;
    warm.seed = request_seeds_.front();
    warm.steps = steps_;
    warm.context = city.context;
    geo::CityTensorSink sink(steps_, city.height(), city.width());
    const serve::RequestState state = server_->submit(std::move(warm), sink).wait();
    if (state != serve::RequestState::kDone) throw std::runtime_error("warm-up request failed");
    return seconds_since(start);
  }

  void prepare() override {
    // The bitwise oracle: a direct generate_city per (city, seed).
    references_.clear();
    for (std::size_t c = 0; c < dataset_.cities.size(); ++c) {
      Rng rng(request_seeds_[c]);
      references_.push_back(model_->generate_city(dataset_.cities[c].context, steps_, rng));
    }
  }

  PassResult run_pass(const std::string& /*tag*/, const Budget& budget) override {
    PassResult r;
    int req_fds[2];
    int resp_fds[2];
    if (pipe(req_fds) != 0 || pipe(resp_fds) != 0) throw std::runtime_error("pipe failed");
    std::FILE* req_read = fdopen(req_fds[0], "rb");
    std::FILE* req_write = fdopen(req_fds[1], "wb");
    std::FILE* resp_read = fdopen(resp_fds[0], "rb");
    std::FILE* resp_write = fdopen(resp_fds[1], "wb");

    std::string daemon_error;
    std::thread daemon([&] {
      try {
        serve::daemon_loop(req_read, resp_write, *server_);
      } catch (const std::exception& e) {
        daemon_error = e.what();
      }
      std::fclose(resp_write);  // EOF for the load generator
    });

    struct Sent {
      std::size_t city = 0;
      Clock::time_point submitted;
      long rows = 0;
      bool mismatch = false;
    };
    std::vector<Sent> sent;
    std::vector<std::size_t> round(dataset_.cities.size());
    Rng order_rng(order_seed_);
    long completed = 0;
    double frame_bytes = 0.0;
    const Clock::time_point start = Clock::now();

    // Requests go out in rounds holding every city once, in a seeded
    // order: each city is served equally often whatever the number of
    // rounds, so the work per request does not depend on the seed.
    auto send_next = [&]() {
      if (sent.size() % round.size() == 0) {
        if (!budget.more(static_cast<long>(sent.size() / round.size()), start)) return false;
        for (std::size_t c = 0; c < round.size(); ++c) round[c] = c;
        shuffle(round, order_rng);
      }
      const std::size_t city_index = round[sent.size() % round.size()];
      const data::City& city = dataset_.cities[city_index];
      serve::WireRequest wire;
      wire.id = sent.size();
      wire.seed = request_seeds_[city_index];
      wire.steps = steps_;
      wire.channels = city.context.steps();  // ContextTensor: [C, H, W]
      wire.height = city.height();
      wire.width = city.width();
      wire.context = city.context.values();
      const std::vector<std::uint8_t> payload = serve::encode_request(wire);
      sent.push_back({city_index, Clock::now()});
      serve::write_frame(req_write, payload);
      return true;
    };

    try {
      bool sending = true;
      for (long i = 0; i < kOutstanding && sending; ++i) sending = send_next();
      std::vector<std::uint8_t> payload;
      while (completed < static_cast<long>(sent.size())) {
        if (!serve::read_frame(resp_read, payload)) {
          r.fail("daemon closed the stream early");
          break;
        }
        const Clock::time_point now = Clock::now();
        switch (serve::frame_type(payload)) {
          case serve::FrameType::kRow: {
            frame_bytes += static_cast<double>(payload.size() + 4);
            const serve::WireRow row = serve::decode_row(payload);
            if (row.id >= sent.size() || row.row != sent[row.id].rows) {
              r.fail("row out of order");
              break;
            }
            Sent& s = sent[row.id];
            if (s.rows++ == 0) {
              r.first_output_s.push_back(std::chrono::duration<double>(now - s.submitted).count());
            }
            if (!matches_reference(s.city, row)) s.mismatch = true;
            break;
          }
          case serve::FrameType::kDone: {
            const serve::WireDone done = serve::decode_done(payload);
            if (done.id >= sent.size()) {
              r.fail("completion for an unknown request");
              break;
            }
            const Sent& s = sent[done.id];
            const std::string what = "request " + std::to_string(done.id);
            r.latency_s.push_back(std::chrono::duration<double>(now - s.submitted).count());
            ++completed;
            const long height = dataset_.cities[s.city].height();
            if (done.state != serve::RequestState::kDone) {
              r.fail(what + " failed: " + done.message);
            } else if (done.rows != height || s.rows != height) {
              r.fail(what + " is missing rows");
            } else if (s.mismatch) {
              r.fail(what + " differs from direct generate_city");
            } else {
              r.work += 1.0;
            }
            if (sending) sending = send_next();
            break;
          }
          case serve::FrameType::kError:
            // A refused request never completes; count it and move on.
            r.fail("daemon refused a request: " + serve::decode_error(payload));
            ++completed;
            if (sending) sending = send_next();
            break;
          case serve::FrameType::kRequest:
            r.fail("unexpected request frame from the daemon");
            break;
        }
      }
    } catch (const std::exception& e) {
      r.fail(std::string("load generator: ") + e.what());
    }
    r.wall_s = seconds_since(start);

    std::fclose(req_write);  // daemon_loop returns at EOF
    std::vector<std::uint8_t> rest;
    try {
      while (serve::read_frame(resp_read, rest)) r.fail("frame after the last completion");
    } catch (const std::exception& e) {
      r.fail(std::string("torn stream: ") + e.what());
    }
    daemon.join();
    std::fclose(resp_read);
    std::fclose(req_read);
    if (!daemon_error.empty()) r.fail("daemon: " + daemon_error);
    r.attempted = static_cast<long>(sent.size());
    r.layer["serve.frame_bytes"] = frame_bytes;
    return r;
  }

  std::map<std::string, double> setup_layers() const override {
    return {{"data.synth_s", synth_s_}, {"serve.weights_load_s", median(load_s_)}};
  }

 private:
  // Untimed fixture: a real two-iteration training run that leaves one
  // snapshot for the registry to read.
  void write_weights_fixture() {
    weights_dir_ = run_dir_ / "weights";
    core::SpectraGanConfig config = config_;
    config.iterations = 2;
    std::vector<std::size_t> cities(dataset_.cities.size());
    for (std::size_t c = 0; c < cities.size(); ++c) cities[c] = c;
    data::PatchSampler sampler(dataset_, cities, config.patch, /*time_offset=*/0,
                               config.train_steps);
    core::SpectraGan model(config, seed_);
    Rng rng(seed_ ^ 0xf1c5);
    train::CheckpointOptions ckpt;
    ckpt.dir = weights_dir_.string();
    ckpt.every = 2;
    ckpt.keep_last = 1;
    model.train(sampler, rng, ckpt);
  }

  bool matches_reference(std::size_t city, const serve::WireRow& row) const {
    const geo::CityTensor& ref = references_[city];
    const long w = ref.width();
    if (static_cast<long>(row.values.size()) != ref.steps() * w) return false;
    for (long t = 0; t < ref.steps(); ++t) {
      const double* expected = &ref.values()[static_cast<std::size_t>(
          (t * ref.height() + row.row) * w)];
      if (std::memcmp(expected, &row.values[static_cast<std::size_t>(t * w)],
                      static_cast<std::size_t>(w) * sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  }

  std::uint64_t seed_;
  fs::path run_dir_;
  fs::path weights_dir_;
  core::SpectraGanConfig config_;
  data::CountryDataset dataset_;
  double synth_s_ = 0.0;
  long steps_ = 0;
  std::vector<std::uint64_t> request_seeds_;
  std::uint64_t order_seed_ = 0;
  std::vector<geo::CityTensor> references_;
  std::vector<double> load_s_;
  // Destroyed server first: it holds the model the registry shares.
  std::unique_ptr<serve::WeightsRegistry> registry_;
  std::shared_ptr<const core::SpectraGan> model_;
  std::unique_ptr<serve::Server> server_;
};

// --- megacity ----------------------------------------------------------------

// Times the spill sink's calls and the arrival of each band of rows,
// checks that rows arrive once each, in order and whole, and digests the
// rows the generator produced. The spilled file is read back after the
// city, outside the timed window, and must carry the same digest.
class CheckedSink : public geo::RowSink {
 public:
  CheckedSink(geo::SpillRowSink& inner, long row_values, long band_rows, Clock::time_point start)
      : inner_(inner), row_values_(row_values), band_rows_(band_rows), start_(start) {}

  void consume_row(long row, const std::vector<double>& values) override {
    if (row != rows_) ok_ = false;
    const double now = seconds_since(start_);
    if (rows_ == 0) first_row_s_ = now;
    ++rows_;
    if (rows_ % band_rows_ == 0) {
      band_s_.push_back(now - last_band_s_);
      last_band_s_ = now;
    }
    if (static_cast<long>(values.size()) != row_values_) ok_ = false;
    digest_.update(values.data(), values.size() * sizeof(double));
    const Clock::time_point write_start = Clock::now();
    inner_.consume_row(row, values);
    write_s_ += seconds_since(write_start);
  }

  double close() {
    const Clock::time_point write_start = Clock::now();
    inner_.close();
    write_s_ += seconds_since(write_start);
    return write_s_;
  }

  long rows() const { return rows_; }
  bool ok() const { return ok_; }
  double first_row_s() const { return first_row_s_; }
  // Seconds from the previous band's last row (or the start) to each
  // band's last row.
  const std::vector<double>& band_s() const { return band_s_; }
  std::string digest() const { return digest_.hex(); }

 private:
  geo::SpillRowSink& inner_;
  long row_values_;
  long band_rows_;
  Clock::time_point start_;
  long rows_ = 0;
  bool ok_ = true;
  double first_row_s_ = 0.0;
  double last_band_s_ = 0.0;
  std::vector<double> band_s_;
  double write_s_ = 0.0;
  Fnv1a digest_;
};

// Latency samples are bands of patch.stride rows at the sink: the strip
// accumulator emits one band per window strip, so a band is what a
// streaming consumer waits for. A city gives 64 of them; whole cities
// would give about eight per run, too few for a p90.
class MegacityWorkload : public Workload {
 public:
  static constexpr long kSide = 128;

  // A city waits for the slower of its two threads at every chunk group,
  // so rotation, which puts one of them on a slow CPU more often, made
  // cities about 7% slower without steadying the runs.
  bool rotate_cpus() const override { return false; }

  MegacityWorkload(std::uint64_t seed, fs::path run_dir)
      : seed_(seed), run_dir_(std::move(run_dir)) {
    const Clock::time_point start = Clock::now();
    Rng rng(seed);
    context_ = data::derive_context(data::sample_latent_fields(kSide, kSide, rng), rng);
    warm_context_ = data::derive_context(data::sample_latent_fields(16, 16, rng), rng);
    synth_s_ = seconds_since(start);
    noise_seed_ = rng.next_u64();
  }

  // One unit is one city.
  long nominal_units(double seconds) const override {
    return std::max(2L, std::lround(seconds / 3.8));
  }

  double setup() override {
    model_.reset();
    const Clock::time_point start = Clock::now();
    model_ = std::make_unique<core::SpectraGan>(config_, seed_);
    geo::CityTensorSink sink(config_.train_steps, warm_context_.height(), warm_context_.width());
    Rng rng(seed_ ^ 0x3a3a);
    model_->generate_city_streamed(warm_context_, config_.train_steps, rng, sink);
    return seconds_since(start);
  }

  PassResult run_pass(const std::string& tag, const Budget& budget) override {
    PassResult r;
    const long steps = config_.train_steps;
    double write_s = 0.0;
    double bytes = 0.0;
    Rng noise(noise_seed_);
    const Clock::time_point pass_start = Clock::now();
    for (long i = 0; budget.more(i, pass_start); ++i) {
      const std::string where = "city " + std::to_string(i);
      const fs::path path = run_dir_ / ("spill-" + tag + "-" + std::to_string(i) + ".bin");
      ++r.attempted;
      geo::SpillRowSink spill(path.string(), steps, kSide);
      Rng rng(noise.next_u64());
      const Clock::time_point start = Clock::now();
      CheckedSink sink(spill, steps * kSide, config_.patch.stride, start);
      bool generated = true;
      try {
        model_->generate_city_streamed(context_, steps, rng, sink);
        write_s += sink.close();
      } catch (const std::exception& e) {
        r.fail(where + ": " + e.what());
        generated = false;
      }
      const double latency = seconds_since(start);
      if (generated) {
        r.latency_s.insert(r.latency_s.end(), sink.band_s().begin(), sink.band_s().end());
        r.first_output_s.push_back(sink.first_row_s());
        r.wall_s += latency;
        const auto values = static_cast<std::size_t>(kSide * kSide * steps);
        bytes += static_cast<double>(spill.bytes_written());
        Fnv1a digest;
        if (sink.rows() != kSide || !sink.ok()) {
          r.fail(where + ": rows missing, repeated or out of order");
        } else if (!check_spill(path.string(), values, digest)) {
          r.fail(where + ": spilled city is short, negative or non-finite");
        } else if (digest.hex() != sink.digest()) {
          r.fail(where + ": spilled file differs from the rows the generator produced");
        } else {
          r.work += static_cast<double>(values);
          r.digests.push_back(digest.hex());
        }
      }
      std::error_code ec;
      fs::remove(path, ec);
    }
    r.layer["geo.sink_write_s"] = write_s;
    r.layer["geo.bytes_spilled"] = bytes;
    return r;
  }

  std::map<std::string, double> setup_layers() const override {
    return {{"data.synth_s", synth_s_}};
  }

 private:
  std::uint64_t seed_;
  fs::path run_dir_;
  core::SpectraGanConfig config_;
  geo::ContextTensor context_;
  geo::ContextTensor warm_context_;
  double synth_s_ = 0.0;
  std::uint64_t noise_seed_ = 0;  // each pass draws its cities' noise seeds from here
  std::unique_ptr<core::SpectraGan> model_;
};

// --- main --------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  fs::path run_dir;
  std::string out;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      a.trace = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--run-dir") {
      a.run_dir = value;
    } else if (flag == "--out") {
      a.out = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.seconds <= 0.0 || a.run_dir.empty() || a.out.empty()) {
    throw std::runtime_error(
        "usage: perfbench_workloads --workload NAME --seed N --seconds S --run-dir DIR --out FILE "
        "[--trace]");
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "train") return std::make_unique<TrainWorkload>(a.seed, a.run_dir);
  if (a.workload == "serve") return std::make_unique<ServeWorkload>(a.seed, a.run_dir);
  if (a.workload == "megacity") return std::make_unique<MegacityWorkload>(a.seed, a.run_dir);
  throw std::runtime_error("unknown workload " + a.workload);
}

void add_pass(JsonObject& json, const std::string& prefix, const PassResult& r) {
  json.add(prefix + "wall_s", r.wall_s);
  json.add(prefix + "work", r.work);
}

int run(const Args& a) {
  std::unique_ptr<Workload> workload = make_workload(a);
  std::unique_ptr<CpuRotator> rotator;
  if (workload->rotate_cpus()) rotator = std::make_unique<CpuRotator>();
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) setup_s.push_back(workload->setup());
  workload->prepare();

  JsonObject json;
  PassResult result;
  if (a.trace) {
    // Both passes together take about --seconds, like an untraced run.
    const Budget fixed{0.0, workload->nominal_units(a.seconds / 2.0)};
    const PassResult untraced = workload->run_pass("untraced", fixed);
    add_pass(json, "untraced_", untraced);
    obs::profile_set_enabled(true);
    obs::profile_dump((a.run_dir / "profile_begin.json").string());
    obs::dump_metrics((a.run_dir / "metrics_begin.json").string());
    result = workload->run_pass("traced", fixed);
    obs::profile_dump((a.run_dir / "profile_end.json").string());
    obs::dump_metrics((a.run_dir / "metrics_end.json").string());
    obs::profile_set_enabled(false);
    // One seed, two passes: the generated cities must not differ.
    if (!untraced.digests.empty() && untraced.digests != result.digests) {
      result.fail("traced and untraced passes generated different cities");
    }
    result.attempted += untraced.attempted;
    result.failed += untraced.failed;
    result.errors.insert(result.errors.end(), untraced.errors.begin(), untraced.errors.end());
  } else {
    result = workload->run_pass("timed", Budget{a.seconds, 0});
  }
  const double peak_rss_bytes = obs::sample_once().peak_rss_bytes;

  json.add("workload", a.workload);
  json.add("seed", static_cast<long>(a.seed));
  json.add("git_sha", std::string(SG_BUILD_GIT_SHA));
  json.add("simd_level", std::string(nn::simd_level_name(nn::active_simd_level())));
  json.add("threads", static_cast<long>(parallel_threads()));
  json.add("clients", workload->clients());
  json.add("setup_s", setup_s);
  add_pass(json, "", result);
  json.add("latency_s", result.latency_s);
  json.add("first_output_s", result.first_output_s);
  json.add("peak_rss_bytes", peak_rss_bytes);
  json.add("attempted", result.attempted);
  json.add("failed", result.failed);
  json.add("errors", result.errors);
  json.add("digests", result.digests);
  std::map<std::string, double> layer = workload->setup_layers();
  layer.insert(result.layer.begin(), result.layer.end());
  JsonObject layer_json;
  for (const auto& [key, value] : layer) layer_json.add(key, value);
  json.add_raw("layer", layer_json.str());

  std::ofstream out(a.out);
  out << json.str();
  if (!out) throw std::runtime_error("cannot write " + a.out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workloads: %s\n", e.what());
    return 1;
  }
}

// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload ssmw-cnn|p2p-mlp|msmw-tcp --seed N --seconds S
//             --trace 0|1 [--spans FILE]
//
// Trains one workload through the public core::train() for about S
// seconds and prints one JSON object on the last line of stdout. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it reports
// the per-layer metrics, taken by timing calls into each layer from this
// file and trace.cpp (see perfbench/README.md for every definition).
// Every train() call is checked; any failed check makes the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/trainer.h"
#include "data/dataset.h"
#include "net/codec.h"
#include "net/wire.h"
#include "nn/zoo.h"
#include "trace.h"

namespace {

using garfield::core::Deployment;
using garfield::core::DeploymentConfig;
using garfield::core::TrainResult;
using garfield::net::Payload;
using perfbench::now_ns;
using perfbench::Recorder;
using perfbench::Span;

// ------------------------------------------------------------- workloads

/// One benchmark workload: a deployment plus how it is timed and checked.
struct Workload {
  std::string name;
  DeploymentConfig config;    ///< seed/iterations are filled in per run
  std::size_t budget = 0;     ///< iterations of the accuracy run
  std::size_t iterations = 0; ///< N of the timed runs
  double accuracy_floor = 0;  ///< a budget run below this fails
  bool bitwise = false;       ///< sync: final_parameters repeat bitwise
  std::size_t setup_reps = 1; ///< 1-iteration runs per measuring round
};

// The three workloads map onto the paper's three architectures, each with
// a different layer in charge of the iteration time (README.md, "Why").
// Loop threads plus pool threads never exceed four, so a 4-core machine
// does not time scheduler noise.
Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  DeploymentConfig& c = w.config;
  c.dataset = "cluster";
  c.eval_every = 0;
  c.network = "";
  c.seed = seed;
  if (name == "ssmw-cnn") {
    c.deployment = Deployment::kSsmw;
    c.model = "mnist_cnn";
    c.nw = 6;
    c.fw = 1;
    c.gradient_gar = "multi_krum";
    c.worker_attack = "reversed";
    c.pool_threads = 3;
    w.budget = 300;
    w.iterations = 100;
    w.accuracy_floor = 0.6;
    w.bitwise = true;
    w.setup_reps = 1;
  } else if (name == "p2p-mlp") {
    c.deployment = Deployment::kDecentralized;
    c.model = "tiny_mlp";
    c.nw = 4;
    c.fw = 1;
    c.gradient_gar = "median";
    c.model_gar = "median";
    c.pool_threads = 1;
    c.dataset_noise = 0.8F;
    w.budget = 2000;
    w.iterations = 500;
    w.accuracy_floor = 0.6;
    w.bitwise = false;  // fastest-quorum selection at fw=1 is timing-bound
    w.setup_reps = 3;
  } else if (name == "msmw-tcp") {
    c.deployment = Deployment::kMsmw;
    c.model = "small_mlp";
    c.nps = 3;
    c.fps = 1;
    c.nw = 4;
    c.fw = 1;
    c.gradient_gar = "median";
    c.model_gar = "median";
    c.codec = "topk:k=0.01";
    c.transport = "tcp";
    c.pool_threads = 1;
    w.budget = 400;
    w.iterations = 100;
    w.accuracy_floor = 0.6;
    w.bitwise = true;
    w.setup_reps = 2;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (ssmw-cnn, p2p-mlp, msmw-tcp)");
  }
  return w;
}

// ---------------------------------------------------------------- stats

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Peak RSS of this process and of its largest reaped child (a rank). The
/// own figure is VmHWM, because ru_maxrss survives exec and would report
/// the launching interpreter's footprint when it is the larger one.
double peak_rss_mb() {
  long self_kb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::stol(line.substr(6));
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return double(std::max(self_kb, children.ru_maxrss)) / 1024.0;
}

/// Share of all CPU time the hypervisor gave other guests (steal) between
/// two readings of /proc/stat.
struct StealClock {
  std::uint64_t steal = 0, total = 0;
  static StealClock now() {
    StealClock c;
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    for (int i = 0; i < 8; ++i) {
      std::uint64_t v = 0;
      if (!(stat >> v)) break;
      c.total += v;
      if (i == 7) c.steal = v;
    }
    return c;
  }
  [[nodiscard]] double share_since(const StealClock& earlier) const {
    const std::uint64_t dt = total - earlier.total;
    return dt > 0 ? double(steal - earlier.steal) / double(dt) : 0.0;
  }
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

// ------------------------------------------------------------ checked runs

bool same_bits(const Payload& a, const Payload& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Runs train() and applies every correctness check the benchmark makes;
/// counts attempted and failed runs.
class Runner {
 public:
  /// One checked train() call. `floor` > 0 applies the accuracy floor;
  /// a non-null `reference` is the bitwise-equal final_parameters the run
  /// must reproduce (an empty reference is filled by this run).
  std::optional<TrainResult> run(const DeploymentConfig& config,
                                 double floor, Payload* reference,
                                 double& seconds) {
    ++attempted_;
    Recorder::instance().begin_run(++runs_);
    const std::int64_t t0 = now_ns();
    std::optional<TrainResult> result;
    std::string error;
    try {
      result = garfield::core::train(config);
    } catch (const std::exception& e) {
      error = std::string("train() threw: ") + e.what();
    }
    const std::int64_t t1 = now_ns();
    seconds = double(t1 - t0) * 1e-9;
    Recorder::instance().add("core.train", config.iterations, t0, t1);
    if (result) error = check(*result, config, floor, reference);
    if (error.empty()) return result;
    ++failed_;
    if (failures_.size() < 20) {
      failures_.push_back("seed " + std::to_string(config.seed) + ", " +
                          std::to_string(config.iterations) +
                          " iterations: " + error);
    }
    return std::nullopt;
  }

  [[nodiscard]] std::uint32_t last_run() const { return runs_; }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }
  /// A check made outside a single run (e.g. cross-backend parity).
  void fail(const std::string& why) {
    ++failed_;
    failures_.push_back(why);
  }

 private:
  static std::string check(const TrainResult& r, const DeploymentConfig& c,
                           double floor, Payload* reference) {
    if (r.iterations_run < c.iterations) {
      return "iterations_run " + std::to_string(r.iterations_run) + " < " +
             std::to_string(c.iterations);
    }
    if (r.final_parameters.empty()) return "final_parameters is empty";
    for (float x : r.final_parameters) {
      if (!std::isfinite(x)) return "final_parameters is not finite";
    }
    if (floor > 0 && !(r.final_accuracy >= floor)) {
      return "final_accuracy " + json_number(r.final_accuracy) +
             " below floor " + json_number(floor);
    }
    if (reference != nullptr) {
      if (reference->empty()) {
        *reference = r.final_parameters;
      } else if (!same_bits(*reference, r.final_parameters)) {
        return "final_parameters differ bitwise from an earlier run with "
               "the same seed";
      }
    }
    return "";
  }

  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::uint32_t runs_ = 0;
  std::vector<std::string> failures_;
};

/// Runs the workload's fixed iteration budget once, checked against the
/// accuracy floor, then untimed N-runs until `warmup_s` has passed.
/// Returns the budget run's test accuracy. On a 4-vCPU VM the first
/// seconds of load after an idle spell ran up to 30% slower. The bitwise
/// repeats are checked on the timed runs.
double warm_up(Runner& runner, const Workload& w, DeploymentConfig config,
               double warmup_s) {
  const std::int64_t start = now_ns();
  config.iterations = w.budget;
  double seconds = 0;
  const std::optional<TrainResult> r =
      runner.run(config, w.accuracy_floor, nullptr, seconds);
  config.iterations = w.iterations;
  while (double(now_ns() - start) * 1e-9 < warmup_s) {
    (void)runner.run(config, 0.0, nullptr, seconds);
  }
  return r ? r->final_accuracy : 0.0;
}

/// Wall times of one kind of run, each with the host steal share during it.
struct Timed {
  std::vector<double> seconds, steal;

  /// The median over the runs with at most the first quartile of steal:
  /// the quarter (or more, on ties) that other guests on a shared host
  /// disturbed least. They only ever add time, and on a 4-vCPU VM a run's
  /// wall time tracked its steal share (up to 25% of the CPU time,
  /// changing from one second to the next).
  [[nodiscard]] double least_disturbed() const {
    const double cut = quantile(steal, 0.25);
    std::vector<double> picked;
    for (std::size_t i = 0; i < seconds.size(); ++i) {
      if (steal[i] <= cut) picked.push_back(seconds[i]);
    }
    return median(picked);
  }
};

/// Wall times of 1-iteration runs (T_1) and N-iteration runs (T_N) of one
/// config, taken in rounds of `setup_reps` T_1 runs plus one T_N run.
struct Series {
  std::size_t iterations = 0;
  Timed t1, tn;
  std::vector<std::uint32_t> n_runs;  ///< Runner run ids of the T_N runs
  std::optional<TrainResult> last;    ///< the last passing N-run
  Payload reference_n;                ///< bitwise reference of the N-runs

  /// Steady-state updates per second: launch, setup, final evaluation and
  /// teardown cancel in T_N - T_1.
  [[nodiscard]] double its_per_s() const {
    if (tn.seconds.empty() || t1.seconds.empty()) return 0.0;
    const double dt = tn.least_disturbed() - t1.least_disturbed();
    return dt > 0 ? double(iterations - 1) / dt : 0.0;
  }
  [[nodiscard]] double setup_s() const { return t1.least_disturbed(); }
};

Series measure(Runner& runner, const Workload& w, DeploymentConfig config,
               double budget_s, std::size_t min_rounds) {
  Series s;
  s.iterations = w.iterations;
  Payload reference_1;
  Payload* ref1 = w.bitwise ? &reference_1 : nullptr;
  Payload* refn = w.bitwise ? &s.reference_n : nullptr;
  double seconds = 0;
  DeploymentConfig one = config;
  one.iterations = 1;
  (void)runner.run(one, 0.0, ref1, seconds);  // warm-up, checked
  config.iterations = w.iterations;
  const std::int64_t start = now_ns();
  double round_s = 0;
  for (std::size_t round = 0;; ++round) {
    const double elapsed = double(now_ns() - start) * 1e-9;
    if (round >= min_rounds && elapsed + round_s > budget_s) break;
    const std::int64_t r0 = now_ns();
    for (std::size_t k = 0; k < w.setup_reps; ++k) {
      const StealClock c0 = StealClock::now();
      if (runner.run(one, 0.0, ref1, seconds)) {
        s.t1.seconds.push_back(seconds);
        s.t1.steal.push_back(StealClock::now().share_since(c0));
      }
    }
    const StealClock c0 = StealClock::now();
    std::optional<TrainResult> r = runner.run(config, 0.0, refn, seconds);
    if (r) {
      s.tn.seconds.push_back(seconds);
      s.tn.steal.push_back(StealClock::now().share_since(c0));
      s.n_runs.push_back(runner.last_run());
      s.last = std::move(r);
    }
    round_s = double(now_ns() - r0) * 1e-9;
  }
  return s;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void detail(const std::string& key, const std::string& raw_json) {
    details_.emplace_back(key, raw_json);
  }
  void detail(const std::string& key, const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ",";
      out += json_number(values[i]);
    }
    detail(key, out + "]");
  }

  [[nodiscard]] std::string json(const Runner& runner) const {
    std::string out = "{\"correct\": ";
    out += runner.failed() == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(runner.attempted());
    out += ", \"failed\": " + std::to_string(runner.failed());
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += (i ? ", " : "") + json_string(m.name) +
             ": {\"value\": " + json_number(m.value) +
             ", \"unit\": " + json_string(m.unit) + "}";
    }
    out += "}, \"failures\": [";
    for (std::size_t i = 0; i < runner.failures().size(); ++i) {
      out += (i ? ", " : "") + json_string(runner.failures()[i]);
    }
    out += "], \"detail\": {";
    for (std::size_t i = 0; i < details_.size(); ++i) {
      out += (i ? ", " : "") + json_string(details_[i].first) + ": " +
             details_[i].second;
    }
    return out + "}}";
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> details_;
};

// ------------------------------------------------------------ end to end

void end_to_end(Runner& runner, const Workload& w, double seconds,
                Report& report) {
  const std::int64_t t0 = now_ns();
  const double accuracy = warm_up(runner, w, w.config, seconds * 0.2);
  const double left = seconds - double(now_ns() - t0) * 1e-9;
  const Series s = measure(runner, w, w.config, left, 3);
  const double ok = runner.attempted() == 0
                        ? 0.0
                        : 1.0 - double(runner.failed()) /
                                    double(runner.attempted());
  report.add("its_per_s", s.its_per_s(), "1/s");
  report.add("setup_s", s.setup_s(), "s");
  report.add("final_accuracy", accuracy, "fraction");
  report.add("ok_share", ok, "fraction");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.detail("t1_s", s.t1.seconds);
  report.detail("t1_steal", s.t1.steal);
  report.detail("tn_s", s.tn.seconds);
  report.detail("tn_steal", s.tn.steal);
  report.detail("iterations", std::to_string(w.iterations));
  report.detail("budget", std::to_string(w.budget));
}

// -------------------------------------------------------------- per layer

/// Per-call timings of one function, in microseconds.
struct Timings {
  std::vector<double> us;
  [[nodiscard]] double p50() const { return median(us); }
  [[nodiscard]] double p99() const { return quantile(us, 0.99); }
};

/// Call `body(i)` until `budget_s` passes (at least `min_calls` times, at
/// most `max_calls`), recording one span per call under `name`.
Timings replay(const std::string& name, double budget_s,
               std::size_t min_calls, std::size_t max_calls,
               const std::function<void(std::size_t)>& body) {
  Timings t;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < max_calls; ++i) {
    if (i >= min_calls && double(now_ns() - start) * 1e-9 > budget_s) break;
    const std::int64_t t0 = now_ns();
    body(i);
    const std::int64_t t1 = now_ns();
    Recorder::instance().add(name, i, t0, t1);
    t.us.push_back(double(t1 - t0) * 1e-3);
  }
  return t;
}

/// In-situ figures of the reporting loops, from the timed-GAR spans of the
/// given N-runs.
struct InSitu {
  std::vector<double> iter_ms;         ///< loop iteration periods
  std::vector<double> outside_gar_ms;  ///< period minus GAR time in it
  std::vector<double> gar_ms;          ///< GAR time per iteration
  std::vector<double> aggregate_us;    ///< every GAR call
  double calls_per_it = 0;             ///< GAR calls per loop iteration
  std::vector<double> craft_us;        ///< every attack craft
  double crafts_per_it = 0;
};

InSitu in_situ(const std::vector<Span>& spans,
               const std::vector<std::uint32_t>& runs,
               std::size_t iterations) {
  InSitu out;
  const std::set<std::uint32_t> wanted(runs.begin(), runs.end());
  // (run, thread) -> that loop's GAR spans in time order.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<const Span*>>
      loops;
  std::size_t gar_calls = 0, crafts = 0;
  for (const Span& s : spans) {
    if (wanted.count(s.run) == 0) continue;
    if (s.name.rfind("gars.", 0) == 0) {
      loops[{s.run, s.thread}].push_back(&s);
      out.aggregate_us.push_back(double(s.t1_ns - s.t0_ns) * 1e-3);
      ++gar_calls;
    } else if (s.name == "attacks.craft") {
      out.craft_us.push_back(double(s.t1_ns - s.t0_ns) * 1e-3);
      ++crafts;
    }
  }
  for (auto& [key, calls] : loops) {
    std::sort(calls.begin(), calls.end(), [](const Span* a, const Span* b) {
      return a->t0_ns < b->t0_ns;
    });
    // Iteration k spans from the k-th gradient aggregation to the next;
    // the first two iterations are warm-up.
    std::vector<std::int64_t> starts;
    for (const Span* s : calls) {
      if (s->name == "gars.grad") starts.push_back(s->t0_ns);
    }
    std::size_t cursor = 0;
    for (std::size_t k = 2; k + 1 < starts.size(); ++k) {
      double gar_ns = 0;
      while (cursor < calls.size() && calls[cursor]->t0_ns < starts[k]) {
        ++cursor;
      }
      for (std::size_t j = cursor;
           j < calls.size() && calls[j]->t0_ns < starts[k + 1]; ++j) {
        gar_ns += double(calls[j]->t1_ns - calls[j]->t0_ns);
      }
      const double period_ns = double(starts[k + 1] - starts[k]);
      out.iter_ms.push_back(period_ns * 1e-6);
      out.gar_ms.push_back(gar_ns * 1e-6);
      out.outside_gar_ms.push_back((period_ns - gar_ns) * 1e-6);
    }
  }
  // Every (run, loop thread) pair ran `iterations` iterations.
  const double loop_iterations = double(loops.size()) * double(iterations);
  if (loop_iterations > 0) {
    out.calls_per_it = double(gar_calls) / loop_iterations;
  }
  if (!runs.empty()) {
    out.crafts_per_it = double(crafts) / double(iterations * runs.size());
  }
  return out;
}

/// The deployment with its GARs (and mounted attack) swapped for the timed
/// wrappers of trace.cpp; the trajectory is unchanged.
DeploymentConfig timed_config(DeploymentConfig c) {
  c.gradient_gar = perfbench::register_timed_gar(c.gradient_gar, "grad");
  if (c.deployment == Deployment::kMsmw ||
      c.deployment == Deployment::kDecentralized) {
    c.model_gar = perfbench::register_timed_gar(c.model_gar, "model");
  }
  if (!c.worker_attack.empty()) {
    c.worker_attack = perfbench::register_timed_attack(c.worker_attack);
  }
  return c;
}

/// Per-call timings of single layer functions, replayed at one workload's
/// shapes.
struct Replays {
  std::size_t dimension = 0;
  Timings batch, gradient;
  Timings encode_grad, decode_grad, encode_state, decode_state;
  Timings frame_grad, frame_state, reassemble_grad, reassemble_state;
};

Replays replay_layers(Runner& runner, const DeploymentConfig& cfg,
                      double replay_s) {
  garfield::tensor::Rng rng(cfg.seed);
  garfield::nn::ModelPtr model = garfield::nn::make_model(cfg.model, rng);
  Replays rp;
  const std::size_t d = rp.dimension = model->dimension();
  const garfield::data::Dataset dataset = garfield::data::make_cluster_dataset(
      model->input_shape(), model->num_classes(), cfg.train_size, rng,
      cfg.dataset_noise);
  garfield::data::BatchSampler sampler(dataset, cfg.batch_size, rng.fork(7));
  rp.batch =
      replay("data.batch", replay_s * 0.2, 50, 5000,
             [&](std::size_t i) { (void)sampler.batch_for(i); });
  Payload gradient;
  rp.gradient =
      replay("nn.gradient", replay_s * 0.4, 50, 5000, [&](std::size_t i) {
        const garfield::data::Batch b = sampler.batch_for(i);
        gradient = model->gradient(b.inputs, b.labels).gradient;
      });
  const Payload state = model->parameters();

  // Codec and wire replays use the benchmark's one lossy codec on every
  // workload, so per-call figures compare across model sizes.
  const garfield::net::Codec codec(
      garfield::net::CodecSpec::parse("topk:k=0.01"));
  Payload residual, enc_grad, enc_state;
  bool codec_ok = true;
  rp.encode_grad = replay(
      "codec.encode.grad", replay_s * 0.1, 50, 5000, [&](std::size_t) {
        enc_grad = codec.encode_gradient(gradient, &residual);
      });
  rp.decode_grad = replay(
      "codec.decode.grad", replay_s * 0.1, 50, 5000, [&](std::size_t) {
        codec_ok = codec_ok && codec.decode(enc_grad, d).has_value();
      });
  rp.encode_state =
      replay("codec.encode.state", replay_s * 0.1, 50, 5000,
             [&](std::size_t) { enc_state = codec.encode_state(state); });
  rp.decode_state = replay(
      "codec.decode.state", replay_s * 0.1, 50, 5000, [&](std::size_t) {
        codec_ok = codec_ok && codec.decode(enc_state, d).has_value();
      });
  if (!codec_ok) runner.fail("codec replay: decode rejected its own frame");

  bool wire_ok = true;
  auto wire_replays = [&](const Payload& payload, const std::string& cls) {
    const std::vector<std::uint8_t> body = garfield::net::encode(1, payload);
    std::vector<std::uint8_t> framed;
    const Timings frame_t = replay(
        "wire.frame." + cls, replay_s * 0.05, 50, 5000,
        [&](std::size_t) { framed = garfield::net::frame(body); });
    const Timings reassemble_t = replay(
        "wire.reassemble." + cls, replay_s * 0.05, 50, 5000,
        [&](std::size_t) {
          garfield::net::FrameDecoder decoder;
          decoder.feed(framed);
          const auto out = decoder.next();
          wire_ok = wire_ok && out.has_value() && *out == body;
        });
    return std::make_pair(frame_t, reassemble_t);
  };
  std::tie(rp.frame_grad, rp.reassemble_grad) = wire_replays(enc_grad, "grad");
  std::tie(rp.frame_state, rp.reassemble_state) =
      wire_replays(enc_state, "state");
  if (!wire_ok) runner.fail("wire replay: reassembled frame differs");
  return rp;
}

void per_layer(Runner& runner, const Workload& w, double seconds,
               Report& report) {
  const DeploymentConfig& cfg = w.config;
  const bool tcp = cfg.transport == "tcp";
  const double n = double(w.iterations);

  // 0. The checked budget run (accuracy floor) and warm-up.
  (void)warm_up(runner, w, cfg, seconds * 0.1);

  // 1. Untraced rounds: the base of trace.overhead.
  const Series plain = measure(runner, w, cfg, seconds * (tcp ? 0.2 : 0.3), 2);

  // 2. Traced rounds with the thread sampler on. Timed wrappers only exist
  //    in this process, so under tcp the ranks run the plain config and the
  //    in-situ figures come from the in-process twin below.
  Series traced;
  std::size_t threads_peak = 0;
  {
    perfbench::ThreadSampler sampler;
    traced = measure(runner, w, tcp ? cfg : timed_config(cfg),
                     seconds * (tcp ? 0.15 : 0.4), 1);
    threads_peak = sampler.peak();
  }

  // 3. msmw-tcp: the same config in-process, untraced for the backend
  //    comparison and traced for the in-situ spans.
  Series twin, twin_traced;
  const Series* situ = &traced;
  if (tcp) {
    DeploymentConfig inproc = cfg;
    inproc.transport = "inproc";
    twin = measure(runner, w, inproc, seconds * 0.25, 2);
    twin_traced = measure(runner, w, timed_config(inproc), 0.0, 1);
    situ = &twin_traced;
  }

  // Sync runs of one seed end in one model: across series, with and
  // without the timing wrappers, and on both backends.
  auto expect_same = [&](const Series& a, const Series& b,
                         const std::string& what) {
    if (w.bitwise && !a.reference_n.empty() && !b.reference_n.empty() &&
        !same_bits(a.reference_n, b.reference_n)) {
      runner.fail("final_parameters differ bitwise: " + what);
    }
  };
  expect_same(plain, traced, "untraced vs traced run");
  if (tcp) {
    expect_same(twin, twin_traced, "in-process twin vs its traced run");
    expect_same(traced, twin, "tcp vs in-process twin (cross-backend parity)");
  }

  // 4. Replays of single layer functions at the workload's shapes.
  const Replays rp = replay_layers(runner, cfg, seconds * 0.1);

  // 5. Per-layer figures.
  const TrainResult empty;
  const TrainResult& own = traced.last ? *traced.last : empty;
  const TrainResult& situ_result = situ->last ? *situ->last : empty;
  const InSitu is = in_situ(Recorder::instance().spans(), situ->n_runs,
                            w.iterations);
  const auto& ns = own.net_stats;

  // Critical-path model of one reporting-loop iteration (README.md):
  // gradient work spreads over the compute lanes, the GAR runs on the loop,
  // codec and wire work is what the reporting rank does per exchange.
  const double lanes =
      tcp ? double(cfg.nw)
          : double(cfg.pool_threads ? cfg.pool_threads
                                    : std::thread::hardware_concurrency());
  const double grads_per_it = double(situ_result.gradients_computed) / n;
  const double period_us =
      tcp ? (traced.its_per_s() > 0 ? 1e6 / traced.its_per_s() : 0.0)
          : median(is.iter_ms) * 1e3;
  const double q = cfg.deployment == Deployment::kDecentralized
                       ? double(cfg.nw - cfg.fw)
                       : double(cfg.nw);
  const double model_pulls =
      cfg.deployment == Deployment::kMsmw ? double(cfg.nps - 1)
      : cfg.deployment == Deployment::kDecentralized ? q - 1
                                                     : 0.0;
  const bool lossy = cfg.codec != "none";
  auto share = [&](double work_us) {
    return period_us > 0 ? work_us / period_us : 0.0;
  };
  const double nn_share = share(grads_per_it / lanes * rp.gradient.p50());
  const double data_share = share(grads_per_it / lanes * rp.batch.p50());
  const double attacks_share =
      share(is.crafts_per_it / lanes * median(is.craft_us));
  const double gars_share = share(median(is.gar_ms) * 1e3);
  const double codec_share =
      lossy ? share(q * rp.decode_grad.p50() + rp.encode_grad.p50() +
                    rp.encode_state.p50() + model_pulls * rp.decode_state.p50())
            : 0.0;
  const double wire_share =
      tcp ? share(q * (rp.frame_state.p50() + rp.reassemble_grad.p50()) +
                  model_pulls * rp.reassemble_state.p50())
          : 0.0;
  const double net_core_share =
      std::max(0.0, 1.0 - nn_share - data_share - attacks_share - gars_share -
                        codec_share - wire_share);

  report.add("nn.gradient_us.p50", rp.gradient.p50(), "us");
  report.add("nn.gradient_us.p99", rp.gradient.p99(), "us");
  report.add("nn.gradients_per_it", double(own.gradients_computed) / n,
             "count");
  report.add("nn.share", nn_share, "fraction");
  report.add("data.batch_us", rp.batch.p50(), "us");
  report.add("data.share", data_share, "fraction");
  report.add("attacks.craft_us", median(is.craft_us), "us");
  report.add("attacks.crafts_per_it", is.crafts_per_it, "count");
  report.add("attacks.share", attacks_share, "fraction");
  report.add("core.cache_hit_ratio",
             own.gradients_served > 0
                 ? 1.0 - double(own.gradients_computed) /
                             double(own.gradients_served)
                 : 0.0,
             "fraction");
  report.add("core.iter_ms.p50", median(is.iter_ms), "ms");
  report.add("core.iter_ms.p99", quantile(is.iter_ms, 0.99), "ms");
  report.add("core.outside_gar_ms.p50", median(is.outside_gar_ms), "ms");
  report.add("gars.aggregate_us.p50", median(is.aggregate_us), "us");
  report.add("gars.aggregate_us.p99", quantile(is.aggregate_us, 0.99), "us");
  report.add("gars.calls_per_it", is.calls_per_it, "count");
  report.add("gars.share", gars_share, "fraction");
  report.add("net.requests_per_it", double(ns.requests_sent) / n, "count");
  report.add("net.bytes_per_it", double(ns.bytes_sent) / n, "B");
  report.add("net.useful_reply_ratio",
             ns.replies_received > 0
                 ? 1.0 - double(ns.wasted_replies) /
                             double(ns.replies_received)
                 : 0.0,
             "fraction");
  report.add("net.failed_per_it",
             double(ns.quorum_misses + ns.retry_give_ups + ns.dropped_tasks) /
                 n,
             "count");
  report.add("net.peer_deaths", double(ns.peer_deaths), "count");
  report.add("net.threads_peak", double(threads_peak), "count");
  report.add("net.tcp_launch_s", tcp ? plain.setup_s() - twin.setup_s() : 0.0,
             "s");
  report.add("net.tcp_speed_ratio",
             tcp && twin.its_per_s() > 0 ? plain.its_per_s() / twin.its_per_s()
                                         : 0.0,
             "ratio");
  report.add("net_core.share", net_core_share, "fraction");
  report.add("codec.encode_us.grad", rp.encode_grad.p50(), "us");
  report.add("codec.decode_us.grad", rp.decode_grad.p50(), "us");
  report.add("codec.encode_us.state", rp.encode_state.p50(), "us");
  report.add("codec.decode_us.state", rp.decode_state.p50(), "us");
  report.add("codec.bytes_saved_per_it", double(ns.bytes_saved) / n, "B");
  report.add("codec.share", codec_share, "fraction");
  report.add("wire.frame_us.grad", rp.frame_grad.p50(), "us");
  report.add("wire.frame_us.state", rp.frame_state.p50(), "us");
  report.add("wire.reassemble_us.grad", rp.reassemble_grad.p50(), "us");
  report.add("wire.reassemble_us.state", rp.reassemble_state.p50(), "us");
  report.add("wire.share", wire_share, "fraction");
  report.add("trace.overhead",
             traced.its_per_s() > 0 ? plain.its_per_s() / traced.its_per_s()
                                    : 0.0,
             "ratio");

  report.detail("its_per_s_untraced", json_number(plain.its_per_s()));
  report.detail("its_per_s_traced", json_number(traced.its_per_s()));
  if (tcp) {
    report.detail("its_per_s_inproc_twin", json_number(twin.its_per_s()));
    report.detail("setup_s_inproc_twin", json_number(twin.setup_s()));
  }
  report.detail("dimension", std::to_string(rp.dimension));
  report.detail("period_us", json_number(period_us));
  report.detail("compute_lanes", json_number(lanes));
  report.detail("samples",
                "{\"nn.gradient\": " + std::to_string(rp.gradient.us.size()) +
                    ", \"gars.aggregate\": " +
                    std::to_string(is.aggregate_us.size()) +
                    ", \"core.iter\": " + std::to_string(is.iter_ms.size()) +
                    ", \"attacks.craft\": " +
                    std::to_string(is.craft_us.size()) + "}");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--spans") {
      a.spans = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Workload workload;
  try {
    args = parse_args(argc, argv);
    workload = make_workload(args.workload, args.seed);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  // The tcp backend execs this build's rank launcher.
  ::setenv("GARFIELD_NODE_BIN", PERFBENCH_NODE_BIN, 1);

  Runner runner;
  Report report;
  if (args.trace) {
    per_layer(runner, workload, args.seconds, report);
  } else {
    end_to_end(runner, workload, args.seconds, report);
  }
  report.detail("workload", json_string(workload.name));
  report.detail("seed", std::to_string(args.seed));
  report.detail("compiler", json_string(PERFBENCH_COMPILER));
  report.detail("build_type", json_string(PERFBENCH_BUILD_TYPE));
  report.detail("garfield_node", json_string(PERFBENCH_NODE_BIN));
  if (args.trace && !args.spans.empty() &&
      !Recorder::instance().write_json(args.spans)) {
    std::cerr << "perfbench: cannot write spans to " << args.spans << "\n";
  }
  std::cout << report.json(runner) << std::endl;
  return runner.failed() == 0 ? 0 : 1;
}

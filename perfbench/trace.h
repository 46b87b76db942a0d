// In-memory span recording for the traced benchmark run.
//
// Spans are taken from the benchmark's own code around calls into the
// library's public surface: timing wrappers registered through
// gars::GarRegistry::add and attacks::AttackRegistry::add (they delegate
// to the real rule and stamp each call), and replays of single layer
// functions. Nothing inside the library is instrumented, so an untraced
// configuration runs exactly the code a user runs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// One timed call. `iteration` is the training iteration (or replay index)
/// that caused it; `run` numbers the train() call it belongs to (0 for
/// replays); `thread` is a small per-process thread index.
struct Span {
  std::string name;
  std::uint32_t run = 0;
  std::uint32_t thread = 0;
  std::uint64_t iteration = 0;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
};

/// Nanoseconds since the recorder's origin.
[[nodiscard]] std::int64_t now_ns();

/// Process-wide span store. add() is safe from any thread.
class Recorder {
 public:
  static Recorder& instance();

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Tag subsequent spans with `run` (the caller numbers its train() calls).
  void begin_run(std::uint32_t run) { run_.store(run); }
  [[nodiscard]] std::uint32_t run() const { return run_.load(); }

  void add(std::string name, std::uint64_t iteration, std::int64_t t0_ns,
           std::int64_t t1_ns);

  /// Copy of every span recorded so far.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Write every span as JSON: {"fields": [...], "spans": [[name index,
  /// run, thread, iteration, t0_ns, t1_ns], ...], "names": [...]}.
  /// Returns false when the file cannot be written.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  Recorder() = default;

  std::atomic<std::uint32_t> run_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Register "traced_<tag>_<rule>", a GAR that delegates to `rule` (a bare
/// registry name) and records a span named "gars.<tag>" per aggregation.
/// Returns the registered name. Idempotent.
std::string register_timed_gar(const std::string& rule,
                               const std::string& tag);

/// Register "traced_<attack>", an attack that delegates to `attack` (a bare
/// registry name) and records an "attacks.craft" span per craft() call.
/// Returns the registered name. Idempotent.
std::string register_timed_attack(const std::string& attack);

/// Samples the thread count of this process plus its child processes from
/// /proc every few milliseconds until destroyed, keeping the peak. The
/// sampler's own thread is not counted.
class ThreadSampler {
 public:
  ThreadSampler();
  ~ThreadSampler();
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;

  [[nodiscard]] std::size_t peak() const { return peak_.load(); }

 private:
  void loop();

  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> peak_{0};
  std::thread thread_;  // last: starts after the members it uses exist
};

}  // namespace perfbench

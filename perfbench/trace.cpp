#include "trace.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>

#include "attacks/registry.h"
#include "gars/registry.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kOrigin = Clock::now();

/// Small dense index of the calling thread, assigned on first use.
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

/// Per-thread call ordinal of each span name within the current run: the
/// k-th aggregation a loop thread performs is its k-th iteration.
std::uint64_t next_ordinal(const std::string& name) {
  struct Counter {
    std::string name;
    std::uint32_t run = 0;
    std::uint64_t count = 0;
  };
  thread_local std::vector<Counter> counters;
  const std::uint32_t run = Recorder::instance().run();
  for (Counter& c : counters) {
    if (c.name != name) continue;
    if (c.run != run) c = Counter{name, run, 0};
    return c.count++;
  }
  counters.push_back(Counter{name, run, 1});
  return 0;
}

class TimedGar final : public garfield::gars::Gar {
 public:
  TimedGar(garfield::gars::GarPtr inner, std::string span)
      : Gar(inner->n(), inner->f()),
        inner_(std::move(inner)),
        span_(std::move(span)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 protected:
  void do_aggregate(std::span<const garfield::gars::FlatVector> inputs,
                    garfield::gars::AggregationContext& ctx,
                    garfield::gars::FlatVector& out) const override {
    const std::int64_t t0 = now_ns();
    inner_->aggregate_into(inputs, ctx, out);
    const std::int64_t t1 = now_ns();
    Recorder::instance().add(span_, next_ordinal(span_), t0, t1);
  }

 private:
  garfield::gars::GarPtr inner_;
  std::string span_;
};

class TimedAttack final : public garfield::attacks::Attack {
 public:
  explicit TimedAttack(garfield::attacks::AttackPtr inner)
      : inner_(std::move(inner)) {}

  std::optional<garfield::attacks::FlatVector> craft(
      const garfield::attacks::FlatVector& honest,
      garfield::attacks::AttackContext& ctx) override {
    const std::int64_t t0 = now_ns();
    std::optional<garfield::attacks::FlatVector> out =
        inner_->craft(honest, ctx);
    Recorder::instance().add("attacks.craft", ctx.iteration, t0, now_ns());
    return out;
  }
  [[nodiscard]] bool tampers_state_transfer() const override {
    return inner_->tampers_state_transfer();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  garfield::attacks::AttackPtr inner_;
};

std::size_t threads_of(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

/// Threads of this process plus those of its direct children.
std::size_t count_threads() {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::size_t total = threads_of("/proc/self/status");
  for (const fs::directory_entry& task :
       fs::directory_iterator("/proc/self/task", ec)) {
    std::ifstream children(task.path() / "children");
    std::string pid;
    while (children >> pid) total += threads_of("/proc/" + pid + "/status");
  }
  return total;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kOrigin)
      .count();
}

Recorder& Recorder::instance() {
  static Recorder recorder;
  return recorder;
}

void Recorder::add(std::string name, std::uint64_t iteration,
                   std::int64_t t0_ns, std::int64_t t1_ns) {
  Span span{std::move(name), run_.load(), thread_index(), iteration, t0_ns,
            t1_ns};
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Recorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Recorder::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  // Names are interned: a traced run holds ~10^5 spans.
  std::vector<std::string> names;
  out << "{\"fields\": [\"name\", \"run\", \"thread\", \"iteration\", "
         "\"t0_ns\", \"t1_ns\"],\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto it = std::find(names.begin(), names.end(), s.name);
    const std::size_t name = std::size_t(it - names.begin());
    if (it == names.end()) names.push_back(s.name);
    out << "[" << name << "," << s.run << "," << s.thread << ","
        << s.iteration << "," << s.t0_ns << "," << s.t1_ns << "]"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "],\n\"names\": [";
  for (std::size_t i = 0; i < names.size(); ++i) {
    out << (i ? ", " : "") << "\"" << names[i] << "\"";
  }
  out << "]}\n";
  return bool(out);
}

std::string register_timed_gar(const std::string& rule,
                               const std::string& tag) {
  using namespace garfield::gars;
  const std::string name = "traced_" + tag + "_" + rule;
  GarRegistry& registry = GarRegistry::instance();
  if (registry.find(name) != nullptr) return name;
  const GarDescriptor& inner = registry.at(rule);
  GarDescriptor timed;
  timed.name = name;
  timed.min_n = inner.min_n;
  timed.option_floor = inner.option_floor;
  timed.factory = [rule, span = "gars." + tag](std::size_t n, std::size_t f,
                                               const GarOptions&) -> GarPtr {
    return std::make_unique<TimedGar>(make_gar(rule, n, f), span);
  };
  registry.add(std::move(timed));
  return name;
}

std::string register_timed_attack(const std::string& attack) {
  using namespace garfield::attacks;
  const std::string name = "traced_" + attack;
  AttackRegistry& registry = AttackRegistry::instance();
  if (registry.find(name) != nullptr) return name;
  AttackDescriptor timed;
  timed.name = name;
  timed.omniscient = registry.at(attack).omniscient;
  timed.factory = [attack](const AttackOptions&) -> AttackPtr {
    return std::make_unique<TimedAttack>(make_attack(attack));
  };
  registry.add(std::move(timed));
  return name;
}

ThreadSampler::ThreadSampler() : thread_([this] { loop(); }) {}

ThreadSampler::~ThreadSampler() {
  stop_.store(true);
  thread_.join();
}

void ThreadSampler::loop() {
  while (!stop_.load()) {
    const std::size_t seen = count_threads();
    const std::size_t others = seen > 0 ? seen - 1 : 0;  // minus the sampler
    if (others > peak_.load()) peak_.store(others);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace perfbench

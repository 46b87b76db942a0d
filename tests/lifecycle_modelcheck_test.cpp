// Schedule model-checker for node liveness (README "Node lifecycle &
// churn", net/cluster.h).
//
// The churn/lifecycle tests elsewhere exercise a handful of hand-picked
// trajectories; this suite explores the *schedule space*. Every concurrent
// history of the liveness plane is some interleaving of two primitives —
// advance_lifecycle(iter) calls (any loop thread, any iteration order) and
// message deliveries — and because each primitive is executed to
// completion here (pool_threads=1, zero simulated delay, wait-per-
// callback), every distinct *order* of primitives is a distinct logical
// interleaving of the real implementation, not of a model of it.
//
// A seeded DFS over advance/delivery interleavings of a three-event churn
// schedule (budget 12'000 distinct schedules) cross-checks the live
// cluster against the NetworkConditions membership predicate
// `churn_down` — the same oracle the analytic plane uses, so live cluster
// and sim plane cannot drift apart anywhere in the explored space.
// Invariants checked on every schedule:
//  - a node serves iff the schedule has it up at the horizon (fail-silent:
//    nullptr reply, the handler never fires), and its handlers survive a
//    crash window;
//  - each recovery hook fires exactly once per effective up-edge the
//    horizon crosses, with that up-edge, and the node is fail-silent to a
//    probe sent from inside its own hook;
//  - advance_lifecycle never leaves a node mid-recovery;
//  - the not-ready redelivery chain terminates (gives up at the deadline,
//    bounded attempts);
//  - the below-floor churn abort fires deterministically with a
//    byte-identical diagnostic.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/trainer.h"
#include "net/cluster.h"
#include "net/conditions.h"
#include "tensor/parallel.h"

namespace gc = garfield::core;
namespace gn = garfield::net;

namespace {

/// Synchronous delivery: one call(), wait for its callback. With zero
/// simulated delay and a single pool thread the reply (or refusal)
/// resolves immediately, so the caller observes exactly the liveness the
/// schedule put the callee in.
gn::PayloadPtr deliver(gn::Cluster& cluster, gn::NodeId from, gn::NodeId to,
                       std::uint64_t iteration,
                       gn::Duration timeout = std::chrono::seconds(5)) {
  std::promise<gn::PayloadPtr> done;
  std::future<gn::PayloadPtr> reply = done.get_future();
  cluster.call(from, to, "probe", iteration, nullptr,
               [&done](gn::PayloadPtr p) { done.set_value(std::move(p)); },
               timeout);
  return reply.get();
}

std::string schedule_name(const std::vector<int>& schedule) {
  std::string name;
  for (int a : schedule) {
    if (!name.empty()) name += ',';
    name += std::to_string(a);
  }
  return name;
}

}  // namespace

// ------------------------------------------- seeded DFS over churn space

namespace {

/// Three crash windows on four nodes: node 1 is down over [2, 4) and again
/// over [5, 7), node 2 over [3, 6). A horizon jump from below 4 to 6 steps
/// over node 1's first up-edge into its second window: node 1 must stay
/// down, and only the up-edge at 7 may run its hook.
constexpr const char* kChurnSpec =
    "churn:crash=1,at_iter=2,recover_after=2;"
    "churn:crash=2,at_iter=3,recover_after=3;"
    "churn:crash=1,at_iter=5,recover_after=2";

/// Action alphabet for the DFS. Advances deliberately include horizon
/// jumps (6 straight from 0 spans whole crash windows) and deliveries
/// probe the two churned nodes at the current horizon.
constexpr std::array<std::uint64_t, 6> kAdvances{1, 2, 3, 4, 6, 7};
constexpr int kDeliverTargets = 2;  // nodes 1 and 2
constexpr int kDfsAlphabet = int(kAdvances.size()) + kDeliverTargets;
constexpr int kDfsDepth = 6;
constexpr std::size_t kDfsBudget = 12'000;
constexpr std::size_t kNodes = 4;

/// The last up-edge of `node` in (from, to] — an iteration u the schedule
/// flips from down (u - 1) to up (u) — or nullopt when there is none.
std::optional<std::uint64_t> last_up_edge(
    const gn::NetworkConditions& conditions, gn::NodeId node,
    std::uint64_t from, std::uint64_t to) {
  std::optional<std::uint64_t> last;
  for (std::uint64_t u = from + 1; u <= to; ++u) {
    if (conditions.churn_down(node, u - 1) && !conditions.churn_down(node, u))
      last = u;
  }
  return last;
}

/// Replay one schedule against a fresh cluster, asserting the membership
/// invariants after every action. Returns on the first violation (with a
/// recorded gtest failure).
void run_churn_schedule(const std::vector<int>& schedule,
                        const gn::NetworkConditions& conditions) {
  // Declared before the cluster: handler captures must outlive it.
  std::array<int, kNodes> served{};
  std::array<int, kNodes> hooks{};
  std::array<std::uint64_t, kNodes> hook_up{};
  std::array<int, kNodes> expected_hooks{};
  std::array<std::uint64_t, kNodes> expected_up{};

  gn::Cluster::Options opt;
  opt.nodes = kNodes;
  opt.pool_threads = 1;
  opt.conditions = conditions;
  gn::Cluster cluster(opt);
  // Registered once: a crash window must not cost a node its handlers.
  for (gn::NodeId node = 0; node < kNodes; ++node) {
    cluster.register_handler(node, "probe",
                             [&served, node](const gn::Request&) {
                               ++served[node];
                               return gn::HandlerResult::reply(
                                   gn::Payload{float(node)});
                             });
  }
  // The hook counts itself and probes its own node: until the hook
  // returns, the node is still state-transferring and must stay silent.
  for (gn::NodeId node = 0; node < kNodes; ++node) {
    cluster.set_recovery_handler(
        node, [&cluster, &served, &hooks, &hook_up, node](std::uint64_t up) {
          ++hooks[node];
          hook_up[node] = up;
          const int before = served[node];
          EXPECT_EQ(deliver(cluster, 3, node, up), nullptr)
              << "node " << node << " served inside its recovery hook";
          EXPECT_EQ(served[node], before);
        });
  }

  std::uint64_t horizon = 0;
  const auto check_membership = [&](const char* when) {
    for (gn::NodeId node = 0; node < kNodes; ++node) {
      // The live cluster and the plane-shared membership predicate must
      // agree at every step of every schedule — this is the live-vs-
      // analytic no-drift oracle. Outside advance_lifecycle no node may
      // be left mid-recovery, so this holds for recovered nodes too.
      ASSERT_EQ(cluster.is_crashed(node),
                conditions.churn_down(node, horizon))
          << "schedule " << schedule_name(schedule) << " " << when
          << " horizon " << horizon << " node " << node;
      ASSERT_EQ(hooks[node], expected_hooks[node])
          << "schedule " << schedule_name(schedule) << " " << when
          << " horizon " << horizon << " node " << node;
      ASSERT_EQ(hook_up[node], expected_up[node])
          << "schedule " << schedule_name(schedule) << " " << when
          << " horizon " << horizon << " node " << node;
    }
  };

  check_membership("initially");
  for (int action : schedule) {
    if (action < int(kAdvances.size())) {
      const std::uint64_t iter = kAdvances[std::size_t(action)];
      if (iter > horizon) {
        // One hook per effective up-edge: the last one the horizon
        // crosses, and only if no later down-edge undoes it.
        for (gn::NodeId node = 0; node < kNodes; ++node) {
          const auto up = last_up_edge(conditions, node, horizon, iter);
          if (up && !conditions.churn_down(node, iter)) {
            ++expected_hooks[node];
            expected_up[node] = *up;
          }
        }
      }
      cluster.advance_lifecycle(iter);
      horizon = std::max(horizon, iter);
    } else {
      const auto to = gn::NodeId(1 + (action - int(kAdvances.size())));
      const bool expect_up = !conditions.churn_down(to, horizon);
      const int before = served[std::size_t(to)];
      const gn::PayloadPtr reply = deliver(cluster, 3, to, horizon);
      ASSERT_EQ(reply != nullptr, expect_up)
          << "schedule " << schedule_name(schedule) << " deliver to " << to
          << " at horizon " << horizon;
      ASSERT_EQ(served[std::size_t(to)], before + (expect_up ? 1 : 0))
          << "schedule " << schedule_name(schedule) << " deliver to " << to
          << " at horizon " << horizon;
    }
    if (::testing::Test::HasFailure()) return;
    check_membership("after action");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace

TEST(LifecycleModelCheck, SeededDfsOverChurnScheduleInterleavings) {
  const gn::NetworkConditions conditions =
      gn::NetworkConditions::parse(kChurnSpec);
  conditions.validate(kNodes);

  // Enumerate distinct schedules by DFS over the action tree, visiting
  // children in seeded-shuffled order so the explored 12'000-schedule
  // subtree varies with the seed while staying fully reproducible
  // (GARFIELD_MODELCHECK_SEED overrides; the failure message names the
  // exact schedule either way).
  std::uint64_t seed = 20260808;
  if (const char* env = std::getenv("GARFIELD_MODELCHECK_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::mt19937_64 rng(seed);

  std::vector<std::vector<int>> schedules;
  schedules.reserve(kDfsBudget);
  std::vector<int> prefix;
  const std::function<void()> dfs = [&] {
    if (schedules.size() >= kDfsBudget) return;
    if (prefix.size() == kDfsDepth) {
      schedules.push_back(prefix);
      return;
    }
    std::array<int, kDfsAlphabet> order{};
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    for (int action : order) {
      if (schedules.size() >= kDfsBudget) return;
      prefix.push_back(action);
      dfs();
      prefix.pop_back();
    }
  };
  dfs();
  ASSERT_GE(schedules.size(), 10'000u)
      << "the model checker must explore at least 10k distinct schedules";

  for (const std::vector<int>& schedule : schedules) {
    run_churn_schedule(schedule, conditions);
    if (::testing::Test::HasFailure()) {
      FAIL() << "first violating schedule: " << schedule_name(schedule)
             << " (seed " << seed << ")";
    }
  }
  RecordProperty("schedules_explored", std::to_string(schedules.size()));
  RecordProperty("seed", std::to_string(seed));
}

// ------------------------------------------------- redelivery termination

TEST(LifecycleModelCheck, NotReadyRedeliveryTerminatesOnceReady) {
  std::atomic<int> attempts{0};
  gn::Cluster::Options opt;
  opt.nodes = 2;
  opt.pool_threads = 1;
  gn::Cluster cluster(opt);

  cluster.register_handler(0, "probe", [&attempts](const gn::Request&) {
    // Becomes ready on the 6th attempt; the redelivery chain (20us backoff
    // doubling per retry) must carry the request there, not drop it.
    if (attempts.fetch_add(1) + 1 < 6) return gn::HandlerResult::not_ready();
    return gn::HandlerResult::reply(gn::Payload{1.0F});
  });

  const gn::PayloadPtr reply =
      deliver(cluster, 1, 0, /*iteration=*/0, std::chrono::seconds(5));
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(attempts.load(), 6);
}

TEST(LifecycleModelCheck, NeverReadyRedeliveryGivesUpAtTheDeadline) {
  std::atomic<int> attempts{0};
  gn::Cluster::Options opt;
  opt.nodes = 2;
  opt.pool_threads = 1;
  gn::Cluster cluster(opt);

  cluster.register_handler(0, "probe", [&attempts](const gn::Request&) {
    ++attempts;
    return gn::HandlerResult::not_ready();
  });

  // A callee that never becomes ready must resolve the caller with nullptr
  // once the next retry would land past the deadline — the chain
  // terminates, it does not poll forever (and the doubling backoff bounds
  // the attempt count well below timeout/floor).
  const auto start = gn::Clock::now();
  const gn::PayloadPtr reply = deliver(cluster, 1, 0, /*iteration=*/0,
                                       std::chrono::milliseconds(5));
  const auto elapsed = gn::Clock::now() - start;
  EXPECT_EQ(reply, nullptr);
  EXPECT_GE(attempts.load(), 1);
  EXPECT_LE(attempts.load(), 64);
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

// ------------------------------------------- deterministic floor abort

TEST(LifecycleModelCheck, BelowFloorAbortIsDeterministic) {
  // multi_krum needs min_n = 2f+3 = 5 at fw=1; permanently crashing all
  // five workers' quorum down to 4 voids the (n, f) bound. The abort must
  // not only fire — it must fire with a byte-identical diagnostic on every
  // run, or churn CI triage turns into flaky-log archaeology.
  const auto run_once = []() -> std::string {
    gc::DeploymentConfig cfg;
    cfg.deployment = gc::Deployment::kSsmw;
    cfg.model = "tiny_mlp";
    cfg.dataset = "cluster";
    cfg.train_size = 256;
    cfg.test_size = 64;
    cfg.batch_size = 8;
    cfg.nw = 5;
    cfg.fw = 1;
    cfg.gradient_gar = "multi_krum";
    cfg.iterations = 4;
    cfg.eval_every = 1;
    cfg.seed = 20260808;
    cfg.asynchronous = false;  // q = nw = 5 passes config validation
    cfg.network = "churn:crash=5,at_iter=2";
    cfg.validate();
    try {
      (void)gc::train(cfg);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return {};
  };

  garfield::tensor::set_parallel_threads(1);
  const std::string first = run_once();
  const std::string second = run_once();
  garfield::tensor::set_parallel_threads(0);

  ASSERT_FALSE(first.empty())
      << "a schedule below the GAR floor must abort the run";
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("resilience floor"), std::string::npos) << first;
  EXPECT_NE(first.find("min_n=5"), std::string::npos) << first;
}

// NetworkConditions unit suite: spec grammar (clauses, durations, node
// ranges), config-time validation, and per-edge delay resolution — the
// live half of the one-spec-two-planes contract that
// netcond_crossval_test.cpp checks end to end.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/config.h"
#include "core/controller.h"
#include "net/cluster.h"
#include "net/conditions.h"
#include "util/spec.h"

namespace gn = garfield::net;
namespace gc = garfield::core;
namespace gu = garfield::util;
using Duration = gn::NetworkConditions::Duration;

// ------------------------------------------------------------- durations

TEST(SpecDuration, ParsesUnitsAndDefaultsToMicroseconds) {
  gu::SpecOptions opts;
  opts.set("a", "50us");
  opts.set("b", "5ms");
  opts.set("c", "2s");
  opts.set("d", "250");
  EXPECT_EQ(opts.get_duration("a", Duration{0}), Duration{50});
  EXPECT_EQ(opts.get_duration("b", Duration{0}), Duration{5000});
  EXPECT_EQ(opts.get_duration("c", Duration{0}), Duration{2'000'000});
  EXPECT_EQ(opts.get_duration("d", Duration{0}), Duration{250});
  EXPECT_EQ(opts.get_duration("absent", Duration{7}), Duration{7});
}

TEST(SpecDuration, RejectsNegativeAndNonsense) {
  for (const char* bad : {"-5ms", "5m", "ms", "1.5ms", "5 ms", "", "nan"}) {
    gu::SpecOptions opts;
    opts.set("lag", bad);
    EXPECT_THROW((void)opts.get_duration("lag", Duration{0}),
                 std::invalid_argument)
        << "accepted '" << bad << "'";
  }
}

// ------------------------------------------------------------ node ranges

TEST(NodeRange, ParsesSinglesAndRanges) {
  const gn::NodeRange single = gn::parse_node_range("2", "test");
  EXPECT_EQ(single.lo, 2u);
  EXPECT_EQ(single.hi, 2u);
  EXPECT_TRUE(single.contains(2));
  EXPECT_FALSE(single.contains(3));
  const gn::NodeRange range = gn::parse_node_range("0-3", "test");
  EXPECT_EQ(range.size(), 4u);
  EXPECT_TRUE(range.contains(0));
  EXPECT_TRUE(range.contains(3));  // inclusive upper bound
  EXPECT_FALSE(range.contains(4));
}

TEST(NodeRange, RejectsMalformedAndInverted) {
  for (const char* bad : {"", "a", "3-1", "-1", "1-", "-", "1.5"}) {
    EXPECT_THROW((void)gn::parse_node_range(bad, "test"),
                 std::invalid_argument)
        << "accepted '" << bad << "'";
  }
}

// ---------------------------------------------------------------- grammar

TEST(NetworkConditions, EmptySpecIsIdeal) {
  const gn::NetworkConditions c = gn::NetworkConditions::parse("");
  EXPECT_TRUE(c.ideal());
  EXPECT_EQ(c.delay(0, 1, "m", 0, 42), Duration{0});
}

TEST(NetworkConditions, ParsesEveryClause) {
  const gn::NetworkConditions c = gn::NetworkConditions::parse(
      "wan:latency=5ms,jitter=2ms,bw=1Gbps;"
      "hetero:slow_links=0-3,factor=10;"
      "link:nodes=7,bw=200Mbps;"
      "straggler:nodes=2,lag=50ms,from_iter=100;"
      "partition:a=0-2,b=3-8,from_iter=50,len=20");
  EXPECT_FALSE(c.ideal());
  EXPECT_EQ(c.latency(), Duration{5000});
  EXPECT_EQ(c.jitter(), Duration{2000});
  ASSERT_EQ(c.wan().size(), 1u);
  EXPECT_DOUBLE_EQ(c.wan().front().byte_rate, 1e9 / 8.0);
  ASSERT_TRUE(c.hetero().has_value());
  EXPECT_DOUBLE_EQ(c.hetero()->factor, 10.0);
  ASSERT_EQ(c.links().size(), 1u);
  EXPECT_DOUBLE_EQ(c.links().front().byte_rate, 200e6 / 8.0);
  EXPECT_TRUE(c.links().front().nodes.contains(7));
  ASSERT_EQ(c.stragglers().size(), 1u);
  EXPECT_EQ(c.stragglers().front().lag, Duration{50'000});
  EXPECT_EQ(c.stragglers().front().from_iter, 100u);
  EXPECT_EQ(c.stragglers().front().len, 0u);  // open-ended
  ASSERT_EQ(c.partitions().size(), 1u);
  EXPECT_EQ(c.partitions().front().from_iter, 50u);
  EXPECT_EQ(c.partitions().front().len, 20u);
}

TEST(NetworkConditions, RejectsUnknownClausesAndOptions) {
  EXPECT_THROW((void)gn::NetworkConditions::parse("lan:latency=1ms"),
               std::invalid_argument);
  EXPECT_THROW((void)gn::NetworkConditions::parse("wan:latncy=1ms"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)gn::NetworkConditions::parse("straggler:nodes=1,lga=5ms"),
      std::invalid_argument);
  EXPECT_THROW((void)gn::NetworkConditions::parse("wan:latency=1ms;;"),
               std::invalid_argument);
}

TEST(NetworkConditions, RejectsBadClauseShapes) {
  // factor < 1, missing required ranges/rates, overlapping partition
  // groups, repeated singleton clauses (hetero/fault — the windowed
  // clauses repeat freely, see the MultiWindow tests).
  EXPECT_THROW(
      (void)gn::NetworkConditions::parse("hetero:slow_links=0,factor=0.5"),
      std::invalid_argument);
  EXPECT_THROW((void)gn::NetworkConditions::parse("hetero:factor=2"),
               std::invalid_argument);
  EXPECT_THROW((void)gn::NetworkConditions::parse(
                   "hetero:slow_links=0,factor=2;hetero:slow_links=1,factor=3"),
               std::invalid_argument);
  EXPECT_THROW((void)gn::NetworkConditions::parse("straggler:lag=5ms"),
               std::invalid_argument);
  EXPECT_THROW((void)gn::NetworkConditions::parse("partition:a=0-3,b=3-6"),
               std::invalid_argument);
  // link: requires both its nodes and its rate.
  EXPECT_THROW((void)gn::NetworkConditions::parse("link:nodes=0-1"),
               std::invalid_argument);
  EXPECT_THROW((void)gn::NetworkConditions::parse("link:bw=1Gbps"),
               std::invalid_argument);
}

// ---------------------------------------------------------- multi-window

TEST(NetworkConditions, RepeatedWanClausesBindLastActive) {
  // Two overlapping phases: the later clause in spec order wins while
  // both windows are open; outside every window the network is ideal.
  const gn::NetworkConditions c = gn::NetworkConditions::parse(
      "wan:latency=1ms,len=100;"
      "wan:latency=9ms,from_iter=50,len=10");
  EXPECT_EQ(c.latency(0), Duration{1000});
  EXPECT_EQ(c.latency(50), Duration{9000});
  EXPECT_EQ(c.latency(59), Duration{9000});
  EXPECT_EQ(c.latency(60), Duration{1000});
  EXPECT_EQ(c.latency(100), Duration{0});  // every window closed
  EXPECT_EQ(c.delay(0, 1, "m", 55, 1), Duration{9000});
  EXPECT_EQ(c.delay(0, 1, "m", 60, 1), Duration{1000});
  EXPECT_EQ(c.delay(0, 1, "m", 100, 1), Duration{0});
}

TEST(NetworkConditions, RepeatedStragglerAndPartitionWindows) {
  const gn::NetworkConditions c = gn::NetworkConditions::parse(
      "straggler:nodes=2,lag=10ms,from_iter=0,len=5;"
      "straggler:nodes=3,lag=20ms,from_iter=10,len=5;"
      "partition:a=0,b=1,from_iter=0,len=5;"
      "partition:a=0,b=2,from_iter=10,len=5,lag=40ms");
  // First window: node 2 straggles, node 3 does not.
  EXPECT_TRUE(c.is_straggling(2, 0));
  EXPECT_FALSE(c.is_straggling(3, 0));
  // Gap between windows: nobody straggles.
  EXPECT_FALSE(c.is_straggling(2, 7));
  // Second window: the roles flip.
  EXPECT_FALSE(c.is_straggling(2, 12));
  EXPECT_TRUE(c.is_straggling(3, 12));
  EXPECT_EQ(c.delay(0, 3, "m", 12, 1), Duration{20'000});
  // Partitions re-cut along a different boundary per window.
  EXPECT_TRUE(c.partitioned(0, 1, 0));
  EXPECT_FALSE(c.partitioned(0, 2, 0));
  EXPECT_FALSE(c.partitioned(0, 1, 12));
  EXPECT_TRUE(c.partitioned(0, 2, 12));
  EXPECT_EQ(c.delay(0, 2, "m", 12, 1), Duration{40'000});
  // Overlap *within one clause* is still rejected; re-cutting the same
  // nodes across separate windows is the whole point.
  EXPECT_THROW((void)gn::NetworkConditions::parse("partition:a=0-3,b=3-6"),
               std::invalid_argument);
}

// ---------------------------------------------------------- byte rates

TEST(SpecByteRate, ParsesUnitsAndRejectsNonsense) {
  gu::SpecOptions opts;
  opts.set("a", "1Gbps");
  opts.set("b", "200Mbps");
  opts.set("c", "25MBps");
  EXPECT_DOUBLE_EQ(opts.get_byte_rate("a", 0.0), 1e9 / 8.0);
  EXPECT_DOUBLE_EQ(opts.get_byte_rate("b", 0.0), 200e6 / 8.0);
  EXPECT_DOUBLE_EQ(opts.get_byte_rate("c", 0.0), 25e6);
  EXPECT_DOUBLE_EQ(opts.get_byte_rate("absent", 7.0), 7.0);
  for (const char* bad : {"1", "Gbps", "-1Gbps", "0Gbps", "1gbit", "",
                          "1.5.2Mbps", "infGbps"}) {
    gu::SpecOptions o;
    o.set("bw", bad);
    EXPECT_THROW((void)o.get_byte_rate("bw", 0.0), std::invalid_argument)
        << "accepted '" << bad << "'";
  }
}

TEST(NetworkConditions, ByteRateComposesWanLinksAndHetero) {
  const gn::NetworkConditions c = gn::NetworkConditions::parse(
      "wan:latency=1ms,bw=1Gbps;"
      "link:nodes=3,bw=100Mbps;"
      "hetero:slow_links=5,factor=10");
  EXPECT_TRUE(c.has_bandwidth());
  const double wan = 1e9 / 8.0;
  const double link = 100e6 / 8.0;
  // Plain edge: the wan rate. Edge touching node 3 (either direction):
  // the slower link override. Edge touching slow node 5: wan derated.
  EXPECT_DOUBLE_EQ(c.byte_rate(0, 1, 0), wan);
  EXPECT_DOUBLE_EQ(c.byte_rate(0, 3, 0), link);
  EXPECT_DOUBLE_EQ(c.byte_rate(3, 0, 0), link);
  EXPECT_DOUBLE_EQ(c.byte_rate(5, 0, 0), wan / 10.0);
  // The components the analytic plane composes agree with the per-edge
  // resolution: only node 3 of [0, 8) is link-limited, at the link rate.
  EXPECT_DOUBLE_EQ(c.wan_byte_rate(0), wan);
  for (std::size_t node = 0; node < 8; ++node) {
    EXPECT_DOUBLE_EQ(c.link_rate_touching(node), node == 3 ? link : 0.0)
        << "node " << node;
  }
}

TEST(NetworkConditions, LinkOverrideWithoutWanStillLimits) {
  // A link override alone (no wan bw=) must gate has_bandwidth() and bind
  // on edges touching its nodes while leaving the rest unlimited.
  const gn::NetworkConditions c =
      gn::NetworkConditions::parse("link:nodes=0-1,bw=80Mbps");
  EXPECT_TRUE(c.has_bandwidth());
  EXPECT_DOUBLE_EQ(c.byte_rate(0, 2, 0), 80e6 / 8.0);
  EXPECT_DOUBLE_EQ(c.byte_rate(2, 3, 0), 0.0);  // unlimited
}

TEST(NetworkConditions, WindowedBandwidthFollowsTheActiveWanPhase) {
  const gn::NetworkConditions c = gn::NetworkConditions::parse(
      "wan:bw=1Gbps,len=10;wan:bw=100Mbps,from_iter=10");
  EXPECT_DOUBLE_EQ(c.byte_rate(0, 1, 5), 1e9 / 8.0);
  EXPECT_DOUBLE_EQ(c.byte_rate(0, 1, 10), 100e6 / 8.0);
  EXPECT_THROW((void)gn::NetworkConditions::parse("wan:bw=fast"),
               std::invalid_argument);
}

TEST(NetworkConditions, ValidateChecksNodeReferences) {
  const gn::NetworkConditions c =
      gn::NetworkConditions::parse("straggler:nodes=9,lag=1ms");
  EXPECT_NO_THROW(c.validate(10));
  EXPECT_THROW(c.validate(9), std::invalid_argument);
  gn::Cluster::Options opts;
  opts.nodes = 4;
  opts.conditions = c;
  EXPECT_THROW(gn::Cluster cluster(opts), std::invalid_argument);
}

// --------------------------------------------------------- delay semantics

TEST(NetworkConditions, HeteroScalesEdgesTouchingSlowNodes) {
  const gn::NetworkConditions c = gn::NetworkConditions::parse(
      "wan:latency=100us;hetero:slow_links=0-1,factor=10");
  EXPECT_EQ(c.delay(0, 2, "m", 0, 1), Duration{1000});  // slow caller
  EXPECT_EQ(c.delay(2, 1, "m", 0, 1), Duration{1000});  // slow callee
  EXPECT_EQ(c.delay(2, 3, "m", 0, 1), Duration{100});   // fast edge
}

TEST(NetworkConditions, StragglerWindowDelaysTheServingNode) {
  const gn::NetworkConditions c = gn::NetworkConditions::parse(
      "straggler:nodes=2,lag=50ms,from_iter=100,len=10");
  // Before the window, inside it, and after it closes.
  EXPECT_EQ(c.delay(0, 2, "m", 99, 1), Duration{0});
  EXPECT_EQ(c.delay(0, 2, "m", 100, 1), Duration{50'000});
  EXPECT_EQ(c.delay(0, 2, "m", 109, 1), Duration{50'000});
  EXPECT_EQ(c.delay(0, 2, "m", 110, 1), Duration{0});
  // The straggler lags serving, not its own pulls.
  EXPECT_EQ(c.delay(2, 0, "m", 100, 1), Duration{0});
  EXPECT_TRUE(c.is_straggling(2, 105));
  EXPECT_FALSE(c.is_straggling(1, 105));
}

TEST(NetworkConditions, PartitionDelaysOnlyCrossCutMessages) {
  const gn::NetworkConditions c = gn::NetworkConditions::parse(
      "partition:a=0-2,b=3-8,from_iter=50,len=20,lag=30ms");
  // Inside the window: cross-cut pays, same-side does not, and a node in
  // neither group reaches both sides.
  EXPECT_EQ(c.delay(0, 5, "m", 50, 1), Duration{30'000});
  EXPECT_EQ(c.delay(5, 0, "m", 69, 1), Duration{30'000});
  EXPECT_EQ(c.delay(0, 1, "m", 60, 1), Duration{0});
  EXPECT_EQ(c.delay(3, 8, "m", 60, 1), Duration{0});
  EXPECT_EQ(c.delay(9, 0, "m", 60, 1), Duration{0});
  EXPECT_EQ(c.delay(9, 5, "m", 60, 1), Duration{0});
  // Outside the window the cut heals (GST): messages flow undelayed.
  EXPECT_EQ(c.delay(0, 5, "m", 49, 1), Duration{0});
  EXPECT_EQ(c.delay(0, 5, "m", 70, 1), Duration{0});
  EXPECT_TRUE(c.partitioned(0, 5, 60));
  EXPECT_FALSE(c.partitioned(0, 1, 60));
}

TEST(NetworkConditions, WindowIterationOverridesTheScheduleKey) {
  // The decentralized contraction gossip tags calls with
  // it * rounds + round, which races ahead of the training iteration;
  // delay() keys its straggler/partition schedules on the explicit
  // window_iteration when one is provided (the tag still keys jitter).
  const gn::NetworkConditions c = gn::NetworkConditions::parse(
      "straggler:nodes=1,lag=5ms,from_iter=10");
  // Gossip tag 25 = training iteration 5 at 5 rounds/iteration: outside
  // the window with the override, inside it without.
  EXPECT_EQ(c.delay(0, 1, "gossip", 25, 1, 5), Duration{0});
  EXPECT_EQ(c.delay(0, 1, "gossip", 25, 1), Duration{5000});
}

TEST(NetworkConditions, EdgePredicatesClassifyAPullSpan) {
  const gn::NetworkConditions c = gn::NetworkConditions::parse(
      "hetero:slow_links=3-4,factor=10;"
      "straggler:nodes=10,lag=2ms,from_iter=1;"
      "partition:a=0-2,b=9-10,from_iter=2,len=1");
  // Worker span [3, 11) of a nps=3, nw=8 deployment, classified one
  // responder at a time the way the analytic plane's pull resolution does.
  const auto in_span = [](auto&& pred) {
    std::size_t n = 0;
    for (std::size_t node = 3; node < 11; ++node) n += pred(node) ? 1 : 0;
    return n;
  };
  EXPECT_EQ(in_span([&](std::size_t n) { return c.is_slow(n); }), 2u);
  EXPECT_EQ(in_span([&](std::size_t n) { return c.is_straggling(n, 0); }),
            0u);
  EXPECT_EQ(in_span([&](std::size_t n) { return c.is_straggling(n, 1); }),
            1u);
  // Server 0 loses workers 9-10 while the window is open, none after it
  // closes; an ungrouped puller keeps every responder.
  EXPECT_EQ(in_span([&](std::size_t n) { return c.partitioned(0, n, 2); }),
            2u);
  EXPECT_EQ(in_span([&](std::size_t n) { return c.partitioned(0, n, 3); }),
            0u);
  EXPECT_EQ(in_span([&](std::size_t n) { return c.partitioned(5, n, 2); }),
            0u);
}

// --------------------------------------------------------- fault injection

TEST(NetworkConditions, ParsesTheFaultClause) {
  const gn::NetworkConditions c = gn::NetworkConditions::parse(
      "fault:drop=0.01,dup=0.001,corrupt=0.005,delay_spike=5ms,spike=0.02,"
      "edges=0-3,from_iter=50,len=20");
  EXPECT_FALSE(c.ideal());
  ASSERT_TRUE(c.has_fault());
  ASSERT_TRUE(c.fault().has_value());
  EXPECT_DOUBLE_EQ(c.fault()->drop, 0.01);
  EXPECT_DOUBLE_EQ(c.fault()->corrupt, 0.005);
  EXPECT_DOUBLE_EQ(c.fault()->dup, 0.001);
  EXPECT_DOUBLE_EQ(c.fault()->spike, 0.02);
  EXPECT_EQ(c.fault()->delay_spike, Duration{5000});
  ASSERT_TRUE(c.fault()->edges.has_value());
  EXPECT_TRUE(c.fault()->edges->contains(3));
  EXPECT_FALSE(c.fault()->edges->contains(4));
  EXPECT_EQ(c.fault()->from_iter, 50u);
  EXPECT_EQ(c.fault()->len, 20u);
  EXPECT_DOUBLE_EQ(c.fault_loss_rate(), 0.015);
  EXPECT_NEAR(c.fault_spike_seconds(), 0.02 * 0.005, 1e-12);
}

TEST(NetworkConditions, RejectsMalformedFaultClauses) {
  // Probabilities outside [0, 1), a verdict budget reaching 1, spike
  // without its duration (and vice versa), an empty clause, duplicates,
  // and misspelled options.
  for (const char* bad : {
           "fault:drop=-0.1",                     // spec-lint: ignore
           "fault:drop=1.0",                      // spec-lint: ignore
           "fault:drop=0.6,corrupt=0.3,dup=0.2",  // spec-lint: ignore
           "fault:spike=0.1",                     // spec-lint: ignore
           "fault:delay_spike=5ms",               // spec-lint: ignore
           "fault:",                              // spec-lint: ignore
           "fault:drop=0.1;fault:drop=0.2",       // spec-lint: ignore
           "fault:dorp=0.1",                      // spec-lint: ignore
           "fault:drop=0.1,edges=3-1",            // spec-lint: ignore
       }) {
    EXPECT_THROW((void)gn::NetworkConditions::parse(bad),
                 std::invalid_argument)
        << "accepted '" << bad << "'";
  }
  // validate() rejects edge references beyond the deployment.
  const gn::NetworkConditions c =
      gn::NetworkConditions::parse("fault:drop=0.1,edges=6");
  EXPECT_NO_THROW(c.validate(7));
  EXPECT_THROW(c.validate(6), std::invalid_argument);
}

TEST(NetworkConditions, FaultWindowAndEdgeSetGateTheVerdicts) {
  const gn::NetworkConditions c = gn::NetworkConditions::parse(
      "fault:drop=0.5,edges=2-3,from_iter=10,len=5");
  // Outside the window, or off the edge set, every verdict is clean.
  EXPECT_FALSE(c.fault_active(0, 2, 9));
  EXPECT_TRUE(c.fault_active(0, 2, 10));
  EXPECT_TRUE(c.fault_active(3, 0, 14));
  EXPECT_FALSE(c.fault_active(3, 0, 15));
  EXPECT_FALSE(c.fault_active(0, 1, 12));  // edge touches neither of 2-3
  EXPECT_FALSE(
      c.fault_verdict(0, 1, "m", 12, /*seed=*/1, /*attempt=*/0).any());
  EXPECT_FALSE(
      c.fault_verdict(0, 2, "m", 9, /*seed=*/1, /*attempt=*/0).any());
  // Per responder, as the analytic plane classifies a pull: a puller off
  // the edge set sees exactly the responders inside it, none outside the
  // window; a puller on the edge set has every edge affected.
  const auto affected = [&](std::size_t from, std::size_t lo, std::size_t hi,
                            std::uint64_t it) {
    std::size_t n = 0;
    for (std::size_t node = lo; node < hi; ++node) {
      n += c.fault_active(from, node, it) ? 1 : 0;
    }
    return n;
  };
  EXPECT_EQ(affected(5, 0, 5, 9), 0u);
  EXPECT_EQ(affected(5, 0, 5, 12), 2u);
  EXPECT_EQ(affected(5, 4, 5, 12), 0u);
  EXPECT_EQ(affected(2, 4, 8, 12), 4u);
}

TEST(NetworkConditions, FaultVerdictsAreDeterministicAndExclusive) {
  const gn::NetworkConditions c =
      gn::NetworkConditions::parse("fault:drop=0.3,corrupt=0.2,dup=0.1");
  std::size_t drops = 0, corrupts = 0, dups = 0, clean = 0;
  for (std::uint64_t it = 0; it < 400; ++it) {
    const auto v = c.fault_verdict(0, 1, "get_gradient", it, 42, 0);
    // Replay: the verdict is a pure function of its arguments.
    const auto replay = c.fault_verdict(0, 1, "get_gradient", it, 42, 0);
    EXPECT_EQ(v.drop, replay.drop);
    EXPECT_EQ(v.corrupt, replay.corrupt);
    EXPECT_EQ(v.dup, replay.dup);
    // Mutual exclusion: at most one of drop/corrupt/dup per attempt.
    EXPECT_LE(int(v.drop) + int(v.corrupt) + int(v.dup), 1);
    drops += v.drop;
    corrupts += v.corrupt;
    dups += v.dup;
    clean += !v.drop && !v.corrupt && !v.dup;
  }
  // The empirical rates sit near the configured ones (wide margins — this
  // is a sanity band, not a statistical test).
  EXPECT_GT(drops, 60u);
  EXPECT_GT(corrupts, 30u);
  EXPECT_GT(dups, 10u);
  EXPECT_GT(clean, 100u);
  // A different seed, attempt, or edge decorrelates the draw.
  bool seed_differs = false, attempt_differs = false;
  for (std::uint64_t it = 0; it < 64 && !(seed_differs && attempt_differs);
       ++it) {
    const auto v = c.fault_verdict(0, 1, "m", it, 42, 0);
    seed_differs |= v.drop != c.fault_verdict(0, 1, "m", it, 43, 0).drop;
    attempt_differs |= v.drop != c.fault_verdict(0, 1, "m", it, 42, 1).drop;
  }
  EXPECT_TRUE(seed_differs);
  EXPECT_TRUE(attempt_differs);
}

// -------------------------------------------------- config-level plumbing

TEST(NetworkConditions, ConfigValidateRejectsBadSpecs) {
  gc::DeploymentConfig cfg;
  cfg.nw = 5;
  cfg.nps = 1;
  cfg.network = "wan:latency=1ms";
  EXPECT_NO_THROW(cfg.validate());
  cfg.network = "wan:latency=-1ms";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.network = "wan:latency=1fortnight";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.network = "stragler:nodes=1";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  // Node references beyond total_nodes() (= 6 here).
  cfg.network = "straggler:nodes=6,lag=1ms";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.network = "straggler:nodes=5,lag=1ms";
  EXPECT_NO_THROW(cfg.validate());
}

TEST(NetworkConditions, ConfigRoundTripsThroughTheController) {
  gc::DeploymentConfig cfg;
  cfg.network = "wan:latency=5ms,jitter=2ms;straggler:nodes=2,lag=50ms";
  const gc::DeploymentConfig parsed =
      gc::parse_config(gc::format_config(cfg));
  EXPECT_EQ(parsed.network, cfg.network);
  EXPECT_NO_THROW(parsed.validate());
}

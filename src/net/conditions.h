// NetworkConditions — the single spec-driven description of everything the
// network does to a deployment, shared by BOTH execution planes (see
// ROADMAP "Deployment-sim scenarios"):
//
//  - the live in-process Cluster resolves every edge's delivery delay from
//    it (per-edge latency + deterministic hash jitter + heterogeneous slow
//    links + iteration-scheduled straggler lag + partition windows +
//    payload-proportional serialization at the edge's byte rate), and
//  - the analytic simulator (sim/deployment_sim.h) derives its
//    communication/wait terms from the *same parsed object*, classifying
//    each edge of a pull stage with the same per-edge predicates the live
//    plane composes (is_slow, is_straggling, partitioned, fault_active,
//    link_rate_touching, churn_down),
//
// so one spec string can be written once and cross-validated against both
// planes (tests/netcond_crossval_test.cpp).
//
// Spec grammar (util/spec.h clauses joined with ';'):
//
//   conditions := clause (";" clause)*            |  "" (ideal network)
//   clause     := name [ ":" key "=" value ("," key "=" value)* ]
//
// Clauses. `wan`, `straggler`, `partition`, `link` and `churn` may repeat;
// `hetero` and `fault` may appear at most once. Repeating a windowed
// clause is how a condition gets several time windows
// ("wan:latency=1ms;wan:latency=9ms,from_iter=50,len=20"); when several
// occurrences of one clause are active at the same iteration, the LAST
// one in spec order binds — a base clause followed by windowed overrides.
//
//   wan:latency=5ms,jitter=2ms,bw=1Gbps,from_iter=0,len=0
//       Base per-message latency plus a deterministic per-edge jitter in
//       [0, jitter) hashed from (seed, from, to, method, iteration).
//       `bw` (optional; Gbps/Mbps/MBps) makes bytes cost time: every
//       message additionally pays a serialization delay of
//       frame_bytes / bw, and a message departing while the link is still
//       draining a prior one queues behind it (live plane only — the
//       queue term is wall-clock contention, never part of the model
//       trajectory). from_iter/len window the clause (len=0 =>
//       open-ended; both default to the whole run).
//   hetero:slow_links=0-3,factor=10
//       Heterogeneous links: any edge touching a node in `slow_links` is
//       `factor` x slower (latency and jitter scale, and any configured
//       byte rate is derated to bw / factor — the live twin of
//       cost_model's degraded link class).
//   link:nodes=0-1,bw=200Mbps
//       Per-edge bandwidth override: edges touching a node in `nodes` run
//       at `bw`. Where several link clauses (or a wan bw) cover the same
//       edge, the slowest rate wins; hetero derating applies on top.
//   straggler:nodes=2,lag=50ms,from_iter=100,len=0
//       Iteration-scheduled straggler phase: replies *served by* nodes in
//       `nodes` are delayed by `lag` while the window
//       [from_iter, from_iter+len) is active (len=0 => open-ended).
//   partition:a=0-2,b=3-8,from_iter=50,len=20,lag=10ms
//       Partial synchrony: while the window is active, messages crossing
//       the a|b cut are DELAYED by `lag` — never dropped — modelling the
//       pre-GST regime where delivery is guaranteed but unbounded-ish.
//       Nodes in neither group are reachable from both sides.
//   churn:crash=3,at_iter=100,recover_after=50
//   churn:join=9,at_iter=200
//       Elastic membership: `crash` fail-stops the nodes at `at_iter`;
//       with `recover_after=m` they come back up at `at_iter + m`
//       (omitted or 0 => permanent). `join` nodes are absent from
//       iteration 0 and come up at `at_iter` — a join is a recovery of a
//       node that was never alive, and rides the same state-transfer
//       path. While a node is down, the live Cluster refuses delivery to
//       it (churn_down at its lifecycle horizon, net/cluster.h) and the
//       analytic simulator removes it from every stage's candidate pool.
//   fault:drop=0.01,dup=0.001,corrupt=0.005,delay_spike=5ms,spike=0.02,
//         edges=0-3,from_iter=50,len=20
//       Seeded message-fault injection. Every RPC attempt on an affected
//       edge draws one deterministic fault verdict hashed from
//       (seed, from, to, method, iteration, attempt): with probability
//       `drop` the message is silently lost, `corrupt` it is damaged in
//       flight (on tcp a real flipped byte the frame CRC catches; on
//       inproc an equivalent discard), `dup` a second copy arrives and is
//       discarded as a wasted duplicate. Verdicts are mutually exclusive
//       per attempt (drop > corrupt > dup precedence, so the clause
//       requires drop + corrupt + dup <= 1). Independently, with
//       probability `spike` the delivery delay gains `delay_spike`.
//       `edges` restricts injection to edges touching those nodes
//       (default: all edges); from_iter/len window the clause like
//       straggler phases (len=0 => open-ended). Because the verdict is a
//       pure hash, the same seed + spec replays the identical fault
//       schedule on both transport backends and in the analytic plane —
//       lost attempts surface as sender-side retries (net/cluster.h),
//       never as hangs. The fault clause does not repeat (multi-window
//       fault schedules are a recorded ROADMAP leftover).
//
// Durations accept us/ms/s suffixes (bare integers are microseconds) and
// reject negative or malformed values at parse time. Byte rates require a
// unit ("1Gbps", "200Mbps", "50MBps") and reject zero or malformed values.
// Node sets are single ids ("2") or inclusive ranges ("0-3"). Unknown
// clauses and unknown or unconsumed options are hard errors — a typo'd
// scenario must fail at DeploymentConfig::validate(), never run silently
// ideal.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace garfield::net {

/// Inclusive id range [lo, hi] parsed from "2" or "0-3".
struct NodeRange {
  std::size_t lo = 0;
  std::size_t hi = 0;

  [[nodiscard]] bool contains(std::size_t node) const {
    return node >= lo && node <= hi;
  }
  [[nodiscard]] std::size_t size() const { return hi - lo + 1; }
};

/// Parse "2" or "0-3" (inclusive, lo <= hi); throws std::invalid_argument
/// on malformed input. `context` prefixes error messages.
[[nodiscard]] NodeRange parse_node_range(const std::string& text,
                                         const std::string& context);

class NetworkConditions {
 public:
  using Duration = std::chrono::microseconds;

  /// One windowed wan phase (latency/jitter/bandwidth). The last active
  /// phase in spec order binds at any iteration.
  struct Wan {
    Duration latency{0};
    Duration jitter{0};
    double byte_rate = 0.0;  ///< bytes/second; 0 => unlimited
    std::uint64_t from_iter = 0;
    std::uint64_t len = 0;  ///< 0 => open-ended
  };
  struct Hetero {
    NodeRange slow_links;
    double factor = 10.0;  ///< >= 1
  };
  /// Per-edge bandwidth override: edges touching `nodes` run at
  /// `byte_rate`; the slowest matching rate wins.
  struct LinkOverride {
    NodeRange nodes;
    double byte_rate = 0.0;  ///< bytes/second; always > 0 once parsed
  };
  struct Straggler {
    NodeRange nodes;
    Duration lag{0};
    std::uint64_t from_iter = 0;
    std::uint64_t len = 0;  ///< 0 => open-ended
  };
  struct Partition {
    NodeRange a;
    NodeRange b;
    std::uint64_t from_iter = 0;
    std::uint64_t len = 0;  ///< 0 => open-ended (no GST)
    Duration lag{10'000};   ///< cross-cut delivery delay while active
  };
  /// One scheduled membership event. A crash event downs `nodes` during
  /// [at_iter, at_iter + recover_after) (recover_after = 0 => forever); a
  /// join event downs them during [0, at_iter). Events are independent: a
  /// node covered by several is down whenever any of them says so.
  struct ChurnEvent {
    NodeRange nodes;
    std::uint64_t at_iter = 0;
    std::uint64_t recover_after = 0;  ///< crash events only; 0 => permanent
    bool join = false;
  };
  /// Seeded message-fault injection (see the grammar block above).
  struct Fault {
    double drop = 0.0;     ///< P(message silently lost) per attempt
    double corrupt = 0.0;  ///< P(message damaged in flight) per attempt
    double dup = 0.0;      ///< P(a duplicate copy arrives) per attempt
    double spike = 0.0;    ///< P(delivery delay gains delay_spike)
    Duration delay_spike{0};
    /// Edges touching these nodes are affected; nullopt = every edge.
    std::optional<NodeRange> edges;
    std::uint64_t from_iter = 0;
    std::uint64_t len = 0;  ///< 0 => open-ended
  };
  /// The deterministic outcome of one send attempt under the fault
  /// clause. At most one of drop/corrupt/dup is set; spike_delay is
  /// resolved independently and composes with the edge's base delay.
  struct FaultVerdict {
    bool drop = false;
    bool corrupt = false;
    bool dup = false;
    Duration spike_delay{0};
    [[nodiscard]] bool lost() const { return drop || corrupt; }
    [[nodiscard]] bool any() const {
      return drop || corrupt || dup || spike_delay.count() > 0;
    }
  };

  NetworkConditions() = default;

  /// Parse a conditions spec ("" => ideal network). Throws
  /// std::invalid_argument on grammar violations, unknown clauses/options,
  /// negative or malformed durations, zero or unit-less byte rates, and
  /// inverted ranges.
  [[nodiscard]] static NetworkConditions parse(const std::string& spec);

  /// Structural validation against a concrete cluster size: every node
  /// reference must fall inside [0, nodes) and the partition groups must be
  /// disjoint. Throws std::invalid_argument naming the offending clause.
  void validate(std::size_t nodes) const;

  /// The spec string this object was parsed from ("" for defaults).
  [[nodiscard]] const std::string& spec() const { return spec_; }

  [[nodiscard]] bool ideal() const {
    for (const Wan& w : wan_) {
      if (w.latency.count() > 0 || w.jitter.count() > 0 || w.byte_rate > 0.0)
        return false;
    }
    return !hetero_ && stragglers_.empty() && partitions_.empty() &&
           links_.empty() && churn_.empty() && !fault_;
  }

  // ----------------------------------------------------- live-plane queries

  /// Full delivery delay of one message on the live plane: scaled base
  /// latency + deterministic per-edge hash jitter + straggler lag at the
  /// serving callee + partition lag across the cut. Pure in its arguments —
  /// two runs of the same scenario see identical simulated latencies.
  /// `iteration` keys the jitter hash (for gossip it is the round tag, so
  /// every round draws fresh jitter); `window_iteration` drives the
  /// straggler/partition/wan schedules and defaults to `iteration` — pass
  /// the true training iteration when the method tag encodes more than it
  /// (the decentralized contraction gossip). The serialization component
  /// (frame bytes / byte_rate) is NOT included — the cluster composes it
  /// per message because only the sender knows the payload size.
  [[nodiscard]] Duration delay(
      std::size_t from, std::size_t to, const std::string& method,
      std::uint64_t iteration, std::uint64_t seed,
      std::optional<std::uint64_t> window_iteration = std::nullopt) const;

  /// The jitter component alone (hash of (seed, from, to, method,
  /// iteration) mapped to [0, jitter), before heterogeneous scaling).
  /// `window_iteration` picks the wan phase whose jitter magnitude applies
  /// (defaults to `iteration`).
  [[nodiscard]] Duration jitter_for(
      std::size_t from, std::size_t to, const std::string& method,
      std::uint64_t iteration, std::uint64_t seed,
      std::optional<std::uint64_t> window_iteration = std::nullopt) const;

  // ------------------------------------------------------------- bandwidth

  /// True when any wan phase carries a byte rate or any link override
  /// exists — the gate for the cluster's serialization/queue machinery.
  [[nodiscard]] bool has_bandwidth() const {
    if (!links_.empty()) return true;
    for (const Wan& w : wan_) {
      if (w.byte_rate > 0.0) return true;
    }
    return false;
  }
  /// Effective byte rate (bytes/second) of the directed edge (from, to) at
  /// `iteration`: the active wan rate, clamped down by every link override
  /// touching either endpoint, derated by the hetero factor on slow edges.
  /// 0 = unlimited (no serialization delay).
  [[nodiscard]] double byte_rate(std::size_t from, std::size_t to,
                                 std::uint64_t iteration) const;
  /// The active wan phase's byte rate alone (0 = none) — the sim plane's
  /// base rate before link-override and hetero resolution.
  [[nodiscard]] double wan_byte_rate(std::uint64_t iteration) const;
  /// Slowest link-override rate touching `node` (0 = none).
  [[nodiscard]] double link_rate_touching(std::size_t node) const;

  // ------------------------------------------------------ per-edge predicates
  // Both planes resolve an edge (from, to) through these: the live
  // delay(), byte_rate() and fault_verdict() compose them per message, and
  // the analytic simulator classifies each responder of a pull stage with
  // them (sim/deployment_sim.cpp resolve_pull).

  [[nodiscard]] bool is_slow(std::size_t node) const {
    return hetero_ && hetero_->slow_links.contains(node);
  }
  /// Last active clause in spec order, or nullptr when no window covers
  /// `iteration` — the shared multi-window resolution rule.
  [[nodiscard]] const Wan* active_wan(std::uint64_t iteration) const;
  [[nodiscard]] const Straggler* active_straggler(
      std::uint64_t iteration) const;
  [[nodiscard]] const Partition* active_partition(
      std::uint64_t iteration) const;

  [[nodiscard]] bool is_straggling(std::size_t node,
                                   std::uint64_t iteration) const {
    const Straggler* s = active_straggler(iteration);
    return s != nullptr && s->nodes.contains(node);
  }
  /// True when `x` and `y` sit on opposite sides of an active cut.
  [[nodiscard]] bool partitioned(std::size_t x, std::size_t y,
                                 std::uint64_t iteration) const;

  // ------------------------------------------------------- fault injection

  [[nodiscard]] bool has_fault() const { return fault_.has_value(); }
  /// True when the fault window covers `iteration` AND the (from, to)
  /// edge is inside the clause's `edges` restriction — the gate both
  /// fault_verdict() and the analytic plane share.
  [[nodiscard]] bool fault_active(std::size_t from, std::size_t to,
                                  std::uint64_t iteration) const;
  /// Resolve the deterministic fault outcome of send attempt number
  /// `attempt` (0 = the first try) for one message. Pure in its
  /// arguments: the sender, the receiver, the analytic plane and a replay
  /// all agree on which attempts are lost. Returns a no-fault verdict
  /// outside the window / edge set.
  [[nodiscard]] FaultVerdict fault_verdict(
      std::size_t from, std::size_t to, const std::string& method,
      std::uint64_t iteration, std::uint64_t seed, std::uint32_t attempt,
      std::optional<std::uint64_t> window_iteration = std::nullopt) const;
  /// P(one attempt is lost) = drop + corrupt — what the sim's expected
  /// retry tail integrates over.
  [[nodiscard]] double fault_loss_rate() const {
    return fault_ ? fault_->drop + fault_->corrupt : 0.0;
  }
  /// Expected spike contribution per attempt, in seconds.
  [[nodiscard]] double fault_spike_seconds() const {
    return fault_ ? fault_->spike * double(fault_->delay_spike.count()) * 1e-6
                  : 0.0;
  }

  [[nodiscard]] bool has_churn() const { return !churn_.empty(); }
  /// True when the churn schedule has `node` down (crashed, or not yet
  /// joined) at `iteration` — the membership predicate both planes share.
  [[nodiscard]] bool churn_down(std::size_t node,
                                std::uint64_t iteration) const;
  /// The first iteration >= `iteration` at which `node` is up again, or
  /// nullopt when the schedule never brings it back.
  [[nodiscard]] std::optional<std::uint64_t> next_up_iteration(
      std::size_t node, std::uint64_t iteration) const;
  /// Nodes inside [lo, hi) the churn schedule has down at `iteration` —
  /// the trainer's churn floor (a cohort of span n fields
  /// n - count_down(...) responders).
  [[nodiscard]] std::size_t count_down(std::size_t lo, std::size_t hi,
                                       std::uint64_t iteration) const;

  [[nodiscard]] double latency_seconds(std::uint64_t iteration = 0) const {
    return double(latency(iteration).count()) * 1e-6;
  }
  [[nodiscard]] double jitter_seconds(std::uint64_t iteration = 0) const {
    return double(jitter(iteration).count()) * 1e-6;
  }
  [[nodiscard]] double straggler_lag_seconds(
      std::uint64_t iteration = 0) const {
    const Straggler* s = active_straggler(iteration);
    return s ? double(s->lag.count()) * 1e-6 : 0.0;
  }
  [[nodiscard]] double partition_lag_seconds(
      std::uint64_t iteration = 0) const {
    const Partition* p = active_partition(iteration);
    return p ? double(p->lag.count()) * 1e-6 : 0.0;
  }
  [[nodiscard]] double slow_factor() const {
    return hetero_ ? hetero_->factor : 1.0;
  }

  /// Latency/jitter of the wan phase active at `iteration` (zeros when no
  /// phase covers it).
  [[nodiscard]] Duration latency(std::uint64_t iteration = 0) const {
    const Wan* w = active_wan(iteration);
    return w ? w->latency : Duration{0};
  }
  [[nodiscard]] Duration jitter(std::uint64_t iteration = 0) const {
    const Wan* w = active_wan(iteration);
    return w ? w->jitter : Duration{0};
  }
  [[nodiscard]] const std::vector<Wan>& wan() const { return wan_; }
  [[nodiscard]] const std::optional<Hetero>& hetero() const {
    return hetero_;
  }
  [[nodiscard]] const std::vector<LinkOverride>& links() const {
    return links_;
  }
  [[nodiscard]] const std::vector<Straggler>& stragglers() const {
    return stragglers_;
  }
  [[nodiscard]] const std::vector<Partition>& partitions() const {
    return partitions_;
  }
  [[nodiscard]] const std::vector<ChurnEvent>& churn() const {
    return churn_;
  }
  [[nodiscard]] const std::optional<Fault>& fault() const { return fault_; }

 private:
  std::string spec_;
  std::vector<Wan> wan_;
  std::optional<Hetero> hetero_;
  std::vector<LinkOverride> links_;
  std::vector<Straggler> stragglers_;
  std::vector<Partition> partitions_;
  std::vector<ChurnEvent> churn_;
  std::optional<Fault> fault_;
};

}  // namespace garfield::net

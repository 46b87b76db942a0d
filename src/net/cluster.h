// Simulated cluster: the stand-in for Garfield's gRPC communication layer.
//
// The paper's networking (§4.1–4.2) is point-to-point *pull-based* RPC:
// when a node needs data it initiates parallel remote calls to its peers,
// each peer runs a server answering such requests, and the caller keeps the
// fastest q replies (get_gradients(t, q) / get_models(t, q)). This module
// reproduces that abstraction in-process:
//
//  - every node registers handlers (method name -> function);
//  - handler compute executes on a shared thread pool sized to hardware
//    concurrency; simulated link delay is resolved per edge from the
//    deployment's NetworkConditions (net/conditions.h: base latency +
//    deterministic per-edge hash jitter + heterogeneous slow links +
//    iteration-scheduled straggler lag + partition windows + payload-
//    proportional serialization at the edge's configured byte rate with a
//    per-link busy queue, delivered as delayed — never dropped —
//    messages) and is an event on the TimerWheel, never a sleep on a pool
//    thread;
//  - payloads are immutable and refcounted (std::shared_ptr<const Payload>)
//    end to end: a handler can serve the same snapshot to every requester
//    without copying, and the Collector never copies replies beyond the
//    awaited quorum;
//  - a handler may answer "not ready yet" (HandlerResult::not_ready());
//    the cluster redelivers the request after a short backoff instead of
//    blocking a pool thread — the primitive behind step-tagged model and
//    gossip serving;
//  - node liveness is the parsed churn schedule (NetworkConditions
//    `churn:` clauses) read at the cluster's lifecycle horizon: a node the
//    schedule has down there is fail-silent (delivery refused), and when
//    the horizon carries a node back up the cluster runs its recovery
//    hook — checkpoint state transfer — while the node stays silent;
//    Byzantine behaviour lives in the handler (a Byzantine node simply
//    serves corrupted payloads — separate replicated state, there is no
//    shared graph to protect);
//  - Collector implements fastest-q-of-n with a deadline, the liveness
//    primitive that lets Garfield run in asynchronous settings.
//
// Transfer accounting (requests, replies, floats moved, wasted replies,
// dropped tasks) feeds the communication-cost experiments.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/conditions.h"
#include "net/transport.h"
#include "tensor/vecops.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace garfield::net {

/// Give-up predicate for the not-ready redelivery chain: true when the
/// next attempt, landing at `next_attempt`, would arrive after the
/// caller's `deadline`. Strictly after — an attempt landing exactly at
/// the deadline is still inside the contract (a `>=` here silently shaved
/// one legitimate retry off every timeout-bounded exchange).
[[nodiscard]] inline bool retry_gives_up(Clock::time_point next_attempt,
                                         Clock::time_point deadline) {
  return next_attempt > deadline;
}

// Request (with its window_iteration tag), PayloadPtr, Clock and Duration
// moved to net/transport.h — the seam needs them and this header re-exports
// them unchanged.

/// Handler outcome. Exactly one of three shapes:
///  - reply(p): deliver payload p to the caller;
///  - none():   no reply, ever (the dropped-vector attack / unpublished
///              state) — the caller's quorum accounting sees the node as
///              silent;
///  - not_ready(): the answer does not exist *yet* (e.g. a model snapshot
///              for an iteration this node has not reached); the cluster
///              redelivers the request after a backoff.
/// Throwing from a handler is a bug, not a Byzantine fault.
struct HandlerResult {
  PayloadPtr payload;  // non-null => reply
  bool retry = false;  // true => redeliver later

  [[nodiscard]] static HandlerResult reply(PayloadPtr p) {
    return HandlerResult{std::move(p), false};
  }
  [[nodiscard]] static HandlerResult reply(Payload p) {
    return HandlerResult{std::make_shared<const Payload>(std::move(p)),
                         false};
  }
  [[nodiscard]] static HandlerResult none() { return HandlerResult{}; }
  [[nodiscard]] static HandlerResult not_ready() {
    return HandlerResult{nullptr, true};
  }
};

/// Handler executed at the callee.
using Handler = std::function<HandlerResult(const Request&)>;

/// One successful reply, tagged with its origin. The payload is shared
/// with the callee's state (or its cached computation) — treat as
/// immutable.
struct Reply {
  NodeId from = 0;
  PayloadPtr payload;
};

/// Cumulative traffic counters — a point-in-time snapshot of the cluster's
/// relaxed atomic counters (see Cluster::stats() for the exact coherence
/// contract: replies_received <= requests_sent holds in *every* snapshot,
/// even mid-flight; exact cross-field equalities are meaningful only at
/// quiescence, which is when the tests assert them).
struct NetStats {
  std::uint64_t requests_sent = 0;
  std::uint64_t replies_received = 0;
  /// Replies crafted and delivered after the caller's quorum was already
  /// met — the overshoot cost of fastest-q pulls (the callee still paid
  /// the compute and the link still carried the floats).
  std::uint64_t wasted_replies = 0;
  /// collect() calls that returned with fewer than q replies — the wait
  /// expired, or every outstanding responder resolved silent (crashed /
  /// declined). Without this counter a short quorum is indistinguishable
  /// from a met one in the stats, which hides exactly the degraded rounds
  /// a churn or straggler scenario is supposed to expose.
  std::uint64_t quorum_misses = 0;
  /// Dispatches rejected because the pool/timer had begun shutdown. The
  /// callback is resolved with "no reply" so quorum accounting cannot
  /// hang-then-timeout during teardown; nonzero values outside teardown
  /// indicate a bug.
  std::uint64_t dropped_tasks = 0;
  /// Send attempts the fault plane declared lost (dropped or corrupted in
  /// flight) plus duplicated deliveries — every verdict the `fault:`
  /// clause actually applied.
  std::uint64_t faults_injected = 0;
  /// Re-send attempts the bounded retry layer issued after a lost
  /// attempt. Always 0 without an active `fault:` clause.
  std::uint64_t retries = 0;
  /// Logical calls abandoned after the attempt cap / deadline: the caller
  /// saw a silent peer and its collect() degraded toward quorum_misses
  /// instead of hanging.
  std::uint64_t retry_give_ups = 0;
  /// Peer processes the transport observed dying mid-run (TCP backend
  /// only: a reader hitting EOF/reset outside shutdown). The in-process
  /// backend has no peer processes, so this stays 0 there.
  std::uint64_t peer_deaths = 0;
  /// Bytes a gradient-compression codec (net/codec.h) kept off the wire:
  /// the sum over every encoded frame actually sent of
  /// (plain wire cost - encoded wire cost). Always 0 under codec=none.
  /// bytes_sent counts what really crossed the link, so
  /// bytes_sent + bytes_saved is the codec=none-equivalent traffic.
  std::uint64_t bytes_saved = 0;
  /// Wire-equivalent traffic through this endpoint's Transport, charged
  /// per frame by the request/reply_frame_bytes formulas (transport.h) so
  /// the numbers are comparable across backends. In-process, every frame
  /// is both sent and received, so the two counters track each other; over
  /// TCP they are this process's view of the links.
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

class Cluster {
 public:
  struct Options {
    std::size_t nodes = 1;
    std::size_t pool_threads = 0;  ///< 0 => hardware concurrency
    /// Everything the simulated network does to this deployment: per-edge
    /// latency/jitter, heterogeneous slow links, straggler phases and
    /// partition windows (net/conditions.h spec grammar). Defaults to the
    /// ideal network.
    NetworkConditions conditions;
    std::uint64_t seed = 42;
    /// Physical message movement. Null selects an internal InProcTransport
    /// sized by pool_threads — the original single-process path, bitwise
    /// identical to the pre-seam Cluster. A TcpTransport here turns every
    /// cross-node call into a framed localhost stream exchange. The
    /// Cluster becomes the transport's sole driver: ~Cluster shuts it
    /// down.
    std::shared_ptr<Transport> transport;
  };

  explicit Cluster(const Options& options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::size_t size() const { return nodes_; }

  /// Register/replace the handler a node serves for `method`.
  void register_handler(NodeId node, const std::string& method,
                        Handler handler);

  /// True whenever the node is not serving: the churn schedule has it
  /// down at the lifecycle horizon, or its recovery hook is still
  /// running. A pure read of two atomics and the schedule; without a
  /// `churn:` clause no node is ever down.
  [[nodiscard]] bool is_crashed(NodeId node) const;

  /// Hook invoked when the churn schedule brings `node` back up
  /// (advance_lifecycle), with the scheduled up-edge iteration. The node
  /// stays fail-silent while it runs. This is where the trainer resets the
  /// node's caches and transfers checkpointed state.
  void set_recovery_handler(NodeId node,
                            std::function<void(std::uint64_t)> handler);

  /// Move the lifecycle horizon up to `iteration`. Monotonic and
  /// idempotent — any loop thread may call it with its own iteration
  /// counter; the max ever seen is the horizon. Every node the schedule
  /// has up at the new horizon but down somewhere in [old, new) gets its
  /// recovery hook, once, with the up-edge that last brought it back;
  /// hooks run one at a time, and each node stays silent until its own
  /// hook returns. A call returns only after every hook for an up-edge at
  /// or below `iteration` has finished, including one another thread is
  /// still running.
  void advance_lifecycle(std::uint64_t iteration);

  /// Block until `node` serves again (a crashed node's own driving loop
  /// parks here while live peers drive the schedule past its up-edge).
  /// Returns the up-edge of its last recovery (0 if it never recovered),
  /// or nullopt on timeout — the deadlock guard for schedules nobody can
  /// drive.
  [[nodiscard]] std::optional<std::uint64_t> wait_until_running(
      NodeId node, Duration timeout);

  /// Pull from every peer in `peers` in parallel and return the fastest
  /// `q` replies (arrival order). Returns fewer than q only if the deadline
  /// expires first; q > peers.size() is an error. `window_iteration` is
  /// the training iteration the NetworkConditions schedules see when the
  /// method tag (`iteration`) encodes more than it — e.g. the contraction
  /// gossip tag; it defaults to the tag itself.
  [[nodiscard]] std::vector<Reply> collect(
      NodeId from, std::span<const NodeId> peers, const std::string& method,
      std::uint64_t iteration, PayloadPtr argument, std::size_t q,
      Duration timeout = std::chrono::seconds(30),
      std::optional<std::uint64_t> window_iteration = std::nullopt);

  /// Single async pull; the callback fires once with the reply or, when the
  /// callee is crashed / declines to answer / stays not-ready past the
  /// timeout, with nullptr after the simulated delay.
  ///
  /// Under an active `fault:` clause every attempt first resolves a
  /// deterministic fault verdict (NetworkConditions::fault_verdict): lost
  /// attempts (drop, corrupt) are retried with exponential backoff and
  /// deterministic jitter up to a bounded attempt budget, after which the
  /// callback resolves nullptr (retry_give_ups) — graceful degradation to
  /// a quorum miss, never a hang. Because the verdict is a pure hash the
  /// retry schedule is identical on both transport backends and in a
  /// replay.
  void call(NodeId from, NodeId to, const std::string& method,
            std::uint64_t iteration, PayloadPtr argument,
            std::function<void(PayloadPtr)> on_done,
            Duration timeout = std::chrono::seconds(30),
            std::optional<std::uint64_t> window_iteration = std::nullopt);

  /// Coherent-enough snapshot of the traffic counters, taken at a single
  /// acquire point (no lock on the hot path). Guarantees, in every
  /// snapshot: each counter is a monotone non-decreasing event count, and
  /// replies_received <= requests_sent (every observed reply's request is
  /// included — the acquire load of replies_received pairs with its
  /// release increment on the reply path, which the request-send count
  /// happens-before). All other cross-field relations are exact only when
  /// no calls are in flight.
  [[nodiscard]] NetStats stats() const;

  /// Deterministic jitter draw: a splitmix-style hash of
  /// (seed, from, to, method, iteration) mapped to [0, jitter). Lock-free
  /// and independent of thread interleaving — two runs of the same
  /// scenario see identical simulated latencies. Public so tests can
  /// assert the determinism directly.
  [[nodiscard]] Duration jitter_for(NodeId from, NodeId to,
                                    const std::string& method,
                                    std::uint64_t iteration) const;

  /// Full simulated delivery delay of one call (latency + jitter + slow
  /// links + straggler lag + partition lag), resolved from the
  /// NetworkConditions. Pure in its arguments. The payload-proportional
  /// serialization component (frame bytes / byte_rate, plus the busy-link
  /// queue) is composed next to this in send_attempt() — it needs the
  /// concrete frame, which only the sender holds.
  [[nodiscard]] Duration delay_for(
      NodeId from, NodeId to, const std::string& method,
      std::uint64_t iteration,
      std::optional<std::uint64_t> window_iteration = std::nullopt) const;

  /// Credit `n` bytes a wire codec kept off the wire (NetStats::
  /// bytes_saved). Called by the codec seam's users at each encode that
  /// actually ships; relaxed monotone counter, same discipline as the
  /// rest.
  void note_bytes_saved(std::uint64_t n) {
    bytes_saved_.fetch_add(n, std::memory_order_relaxed);
  }

  /// The parsed conditions this cluster resolves every edge from — shared
  /// with attack contexts so schedule-aware adversaries (window_striker)
  /// read the same churn/fault windows the membership plane executes.
  [[nodiscard]] const NetworkConditions& conditions() const {
    return options_.conditions;
  }
  [[nodiscard]] std::uint64_t seed() const { return options_.seed; }

 private:
  using Callback = std::function<void(PayloadPtr)>;
  using CallbackPtr = std::shared_ptr<Callback>;
  using RespondPtr = std::shared_ptr<Transport::Respond>;

  struct NodeState {
    util::Mutex mutex;
    std::unordered_map<std::string, Handler> handlers
        GARFIELD_GUARDED_BY(mutex);
    /// Set while this node's recovery hook runs (advance_lifecycle sets it
    /// before publishing the horizon that brings the node up). Atomic:
    /// is_crashed() reads it lock-free on every delivery.
    std::atomic<bool> recovering{false};
  };

  /// Callee-side delivery: the transport's sink. Liveness gate -> handler
  /// lookup -> run -> not-ready redelivery via Transport::run_after ->
  /// respond exactly once. Runs on a pool thread of whichever process owns
  /// `request.to`.
  void deliver_local(Request request, Clock::time_point retry_deadline,
                     RespondPtr respond, Duration retry_backoff);

  /// One send attempt of call()'s bounded retry chain: resolve the fault
  /// verdict for `attempt`, either hand the message to the transport or
  /// model its loss and schedule the next attempt.
  void send_attempt(NodeId from, NodeId to, const std::string& method,
                    std::uint64_t iteration, PayloadPtr argument,
                    CallbackPtr cb, Clock::time_point deadline,
                    std::uint32_t attempt,
                    std::optional<std::uint64_t> window_iteration);

  /// Serialization delay of one `frame_bytes` frame on the directed edge
  /// (from, to) at `window_iteration`: frame_bytes / byte_rate, plus the
  /// time spent queued behind whatever the link is still draining (the
  /// per-edge busy horizon below). Zero when no byte rate covers the
  /// edge. Wall-clock-stateful (the queue), so it shapes *timing* only —
  /// never a sync trajectory.
  [[nodiscard]] Duration serialization_delay(NodeId from, NodeId to,
                                             std::size_t frame_bytes,
                                             std::uint64_t window_iteration);

  std::size_t nodes_;
  Options options_;
  std::vector<std::unique_ptr<NodeState>> states_;
  // The horizon is atomic so the delivery gate reads it lock-free; the
  // mutex serializes its writers and the recovery hooks. Lock order:
  // lifecycle_mutex_ before any NodeState::mutex, never the reverse —
  // dispatch takes only the node mutex, so delivery is never blocked
  // behind a state transfer.
  util::Mutex lifecycle_mutex_;
  util::CondVar lifecycle_cv_;
  std::atomic<std::uint64_t> lifecycle_horizon_{0};
  std::vector<std::function<void(std::uint64_t)>> recovery_handlers_
      GARFIELD_GUARDED_BY(lifecycle_mutex_);
  std::vector<std::uint64_t> recovered_at_
      GARFIELD_GUARDED_BY(lifecycle_mutex_);
  // Traffic counters. Increments are memory_order_relaxed: each is an
  // independent monotone event count and no payload data is ever published
  // through them, so cross-thread ordering between counters is not needed
  // for correctness — with one deliberate exception: replies_received_ is
  // bumped with release and is the snapshot's single acquire point (see
  // stats() for the invariant this buys).
  std::atomic<std::uint64_t> requests_sent_{0};
  std::atomic<std::uint64_t> replies_received_{0};
  std::atomic<std::uint64_t> wasted_replies_{0};
  std::atomic<std::uint64_t> quorum_misses_{0};
  std::atomic<std::uint64_t> dropped_tasks_{0};
  std::atomic<std::uint64_t> faults_injected_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> retry_give_ups_{0};
  std::atomic<std::uint64_t> bytes_saved_{0};
  /// Per-directed-edge busy horizon (microseconds on Clock's timeline):
  /// the instant edge (from, to) finishes draining its last serialized
  /// frame. A message departing earlier queues behind it. Allocated
  /// (nodes^2, zero-initialized) only when the conditions carry a byte
  /// rate; null otherwise — the ideal path never touches it.
  std::unique_ptr<std::atomic<std::int64_t>[]> busy_until_us_;
  // Shut down explicitly by ~Cluster (stop-wheel -> drain-pool inside the
  // transport), so in-flight deliveries can never re-arm a dead timer or
  // submit to a dead pool.
  std::shared_ptr<Transport> transport_;
};

}  // namespace garfield::net

#include "net/cluster.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "tensor/rng.h"

namespace garfield::net {

namespace {

/// First redelivery delay for a not-ready handler; doubles per attempt.
/// The floor is deliberately tight: in the replicated deployments peers
/// run in near-lockstep, so the answer is typically published within tens
/// of microseconds of the first delivery — a loose floor would serialize
/// the model-exchange round behind timer waits.
constexpr Duration kRetryBackoffFloor{20};
/// Redelivery backoff ceiling — keeps a long-lagging callee from being
/// polled hot, without adding seconds of artificial latency.
constexpr Duration kRetryBackoffCeiling{2000};

/// Fault-retry layer: a lost attempt (fault:drop / fault:corrupt) is
/// re-sent after floor * 2^attempt capped at the ceiling, plus a
/// deterministic hash jitter in [0, backoff/2) so synchronized cohorts
/// don't re-strike the network in lockstep. Bounded: after
/// kMaxSendAttempts the call resolves nullptr (retry_give_ups).
constexpr Duration kSendBackoffFloor{50};
constexpr Duration kSendBackoffCeiling{5000};
constexpr std::uint32_t kMaxSendAttempts = 8;

Duration send_backoff(std::uint64_t seed, NodeId from, NodeId to,
                      std::uint64_t iteration, std::uint32_t attempt) {
  Duration base = kSendBackoffFloor;
  for (std::uint32_t k = 0; k < attempt && base < kSendBackoffCeiling; ++k) {
    base *= 2;
  }
  base = std::min(base, kSendBackoffCeiling);
  std::uint64_t h = tensor::splitmix64_mix(seed ^ 0xbac0ff5eedULL);
  h = tensor::splitmix64_mix(h ^ (std::uint64_t(from) << 32) ^
                             std::uint64_t(to));
  h = tensor::splitmix64_mix(h ^ iteration);
  h = tensor::splitmix64_mix(h ^ std::uint64_t(attempt));
  const double u = double(h >> 11) * 0x1.0p-53;
  return base + Duration{std::int64_t(u * double(base.count()) * 0.5)};
}

}  // namespace

Cluster::Cluster(const Options& options)
    : nodes_(options.nodes), options_(options) {
  if (nodes_ == 0) throw std::invalid_argument("Cluster: needs >= 1 node");
  // A scenario referencing nodes outside the deployment is a bug in the
  // scenario, not a quietly-ideal network.
  options_.conditions.validate(nodes_);
  states_.reserve(nodes_);
  for (std::size_t i = 0; i < nodes_; ++i)
    states_.push_back(std::make_unique<NodeState>());
  // Physical message movement: the caller's transport, or the original
  // in-process path (timer wheel + thread pool sized by pool_threads).
  transport_ = options.transport;
  if (!transport_) {
    transport_ = std::make_shared<InProcTransport>(options.pool_threads);
  }
  transport_->start([this](Request request, Clock::time_point deadline,
                           Transport::Respond respond) {
    deliver_local(std::move(request), deadline,
                  std::make_shared<Transport::Respond>(std::move(respond)),
                  kRetryBackoffFloor);
  });
  recovery_handlers_.resize(nodes_);
  recovered_at_.resize(nodes_, 0);
  if (options_.conditions.has_bandwidth()) {
    // Zero-initialized busy horizons: every link starts idle.
    busy_until_us_ =
        std::make_unique<std::atomic<std::int64_t>[]>(nodes_ * nodes_);
  }
}

Cluster::~Cluster() {
  // The transport owns the teardown order (stop wheel, flush its backlog
  // inline, drain the pool): flushed or in-flight not-ready retries see
  // run_after() refuse and resolve their callbacks (counted as dropped)
  // instead of re-arming a dying timer.
  transport_->shutdown();
}

void Cluster::register_handler(NodeId node, const std::string& method,
                               Handler handler) {
  assert(node < nodes_);
  util::MutexLock lock(states_[node]->mutex);
  states_[node]->handlers[method] = std::move(handler);
}

bool Cluster::is_crashed(NodeId node) const {
  assert(node < nodes_);
  if (!options_.conditions.has_churn()) return false;
  // Horizon first: advance_lifecycle raises a recovering node's flag
  // before it publishes the horizon that has the node up, so a reader
  // that sees the new horizon also sees the flag (or its clearing, which
  // follows the hook's state transfer).
  const std::uint64_t horizon =
      lifecycle_horizon_.load(std::memory_order_acquire);
  return states_[node]->recovering.load(std::memory_order_acquire) ||
         options_.conditions.churn_down(node, horizon);
}

void Cluster::set_recovery_handler(
    NodeId node, std::function<void(std::uint64_t)> handler) {
  assert(node < nodes_);
  util::MutexLock lock(lifecycle_mutex_);
  recovery_handlers_[node] = std::move(handler);
}

void Cluster::advance_lifecycle(std::uint64_t iteration) {
  const NetworkConditions& conditions = options_.conditions;
  if (!conditions.has_churn()) return;
  {
    // Every call takes the lock, even one at or below the horizon: a loop
    // that reaches an up-edge while another loop runs that edge's hook must
    // wait for the hook, or it would collect from a still-silent node.
    util::MutexLock lock(lifecycle_mutex_);
    const std::uint64_t from = lifecycle_horizon_.load();
    if (iteration <= from) return;
    // A node up at the new horizon that the schedule had down anywhere in
    // [from, iteration) is a restarted process — even when the horizon
    // jumped over its whole down window. Its hook gets the up-edge that
    // last brought it back.
    std::vector<std::pair<NodeId, std::uint64_t>> recovering;
    for (NodeId node = 0; node < nodes_; ++node) {
      if (conditions.churn_down(node, iteration)) continue;
      for (std::uint64_t up = iteration; up > from; --up) {
        if (conditions.churn_down(node, up - 1)) {
          recovering.emplace_back(node, up);
          break;
        }
      }
    }
    // Silence them before the horizon has them up, so no delivery reaches
    // a node whose state transfer has not finished.
    for (const auto& [node, up] : recovering) {
      states_[node]->recovering.store(true, std::memory_order_release);
    }
    lifecycle_horizon_.store(iteration, std::memory_order_release);
    // The hooks run under the lifecycle mutex, one at a time; dispatch
    // never takes it, so delivery is not blocked while a node
    // state-transfers.
    for (const auto& [node, up] : recovering) {
      if (recovery_handlers_[node]) recovery_handlers_[node](up);
      recovered_at_[node] = up;
      states_[node]->recovering.store(false, std::memory_order_release);
    }
  }
  lifecycle_cv_.notify_all();
}

std::optional<std::uint64_t> Cluster::wait_until_running(NodeId node,
                                                         Duration timeout) {
  assert(node < nodes_);
  util::MutexLock lock(lifecycle_mutex_);
  const bool up = lifecycle_cv_.wait_for(lifecycle_mutex_, timeout, [&] {
    return !is_crashed(node);
  });
  if (!up) return std::nullopt;
  return recovered_at_[node];
}

Duration Cluster::jitter_for(NodeId from, NodeId to,
                             const std::string& method,
                             std::uint64_t iteration) const {
  return options_.conditions.jitter_for(from, to, method, iteration,
                                        options_.seed);
}

Duration Cluster::delay_for(
    NodeId from, NodeId to, const std::string& method,
    std::uint64_t iteration,
    std::optional<std::uint64_t> window_iteration) const {
  return options_.conditions.delay(from, to, method, iteration,
                                   options_.seed, window_iteration);
}

Duration Cluster::serialization_delay(NodeId from, NodeId to,
                                      std::size_t frame_bytes,
                                      std::uint64_t window_iteration) {
  if (!busy_until_us_ || frame_bytes == 0) return Duration{0};
  const double rate =
      options_.conditions.byte_rate(from, to, window_iteration);
  if (rate <= 0.0) return Duration{0};
  const auto ser =
      std::int64_t(double(frame_bytes) / rate * 1e6);
  // Busy-queue: reserve [start, start + ser) on the directed edge with a
  // CAS race — a message departing while the link still drains a prior
  // frame waits out the difference. Wall-clock state: it shapes delivery
  // *timing* only (who waits how long), never which payload arrives, so
  // sync trajectories stay bitwise deterministic.
  std::atomic<std::int64_t>& busy = busy_until_us_[from * nodes_ + to];
  const std::int64_t now_us =
      std::chrono::duration_cast<Duration>(Clock::now().time_since_epoch())
          .count();
  std::int64_t prev = busy.load(std::memory_order_relaxed);
  std::int64_t start;
  do {
    start = std::max(prev, now_us);
  } while (!busy.compare_exchange_weak(prev, start + ser,
                                       std::memory_order_relaxed));
  return Duration{(start - now_us) + ser};
}

void Cluster::deliver_local(Request request,
                            Clock::time_point retry_deadline,
                            RespondPtr respond, Duration retry_backoff) {
  if (transport_->remote()) {
    // A remote callee has no local loop threads driving its churn
    // schedule: the arrival itself carries the caller's notion of
    // training time, so advance on it. Gated on remote() so the
    // in-process path's horizon moves only with its loops.
    advance_lifecycle(request.window_iteration ? *request.window_iteration
                                               : request.iteration);
  }
  // A crashed callee is fail-silent: the caller never hears back. We
  // deliver nullptr so single-call users don't hang; Collector users see
  // it as a missing reply, preserving quorum semantics.
  if (is_crashed(request.to)) {
    (*respond)(nullptr);
    return;
  }
  NodeState& callee = *states_[request.to];
  Handler handler;
  {
    util::MutexLock lock(callee.mutex);
    auto it = callee.handlers.find(request.method);
    if (it != callee.handlers.end()) handler = it->second;
  }
  if (!handler) {
    (*respond)(nullptr);
    return;
  }
  HandlerResult result = handler(request);
  if (result.retry) {
    // Not ready yet: redeliver after a backoff instead of blocking a
    // pool thread. Give up past the caller's deadline so an abandoned
    // request cannot poll a dead-ended callee forever — a retry landing
    // exactly AT the deadline is still a legitimate attempt.
    if (retry_gives_up(Clock::now() + retry_backoff, retry_deadline)) {
      (*respond)(nullptr);
      return;
    }
    const Duration next =
        std::min(retry_backoff * 2, kRetryBackoffCeiling);
    std::function<void()> task = [this, request = std::move(request),
                                  retry_deadline, respond,
                                  next]() mutable {
      deliver_local(std::move(request), retry_deadline, std::move(respond),
                    next);
    };
    if (!transport_->run_after(retry_backoff, std::move(task))) {
      // Shutdown already began: count the drop and resolve so a
      // concurrent collect() sees a response instead of hanging into its
      // deadline.
      dropped_tasks_.fetch_add(1, std::memory_order_relaxed);
      (*respond)(nullptr);
    }
    return;
  }
  (*respond)(std::move(result.payload));
}

void Cluster::call(NodeId from, NodeId to, const std::string& method,
                   std::uint64_t iteration, PayloadPtr argument,
                   std::function<void(PayloadPtr)> on_done,
                   Duration timeout,
                   std::optional<std::uint64_t> window_iteration) {
  assert(from < nodes_ && to < nodes_);
  requests_sent_.fetch_add(1, std::memory_order_relaxed);
  auto cb = std::make_shared<Callback>(std::move(on_done));
  send_attempt(from, to, method, iteration, std::move(argument),
               std::move(cb), Clock::now() + timeout, 0, window_iteration);
}

void Cluster::send_attempt(NodeId from, NodeId to, const std::string& method,
                           std::uint64_t iteration, PayloadPtr argument,
                           CallbackPtr cb, Clock::time_point deadline,
                           std::uint32_t attempt,
                           std::optional<std::uint64_t> window_iteration) {
  // The SENDER resolves the fault verdict: it is a pure hash of
  // (seed, edge, method, iteration, attempt), so the caller knows a lost
  // attempt is lost without waiting out a timeout — the retry fires after
  // a backoff, and both transport backends replay the identical schedule.
  const NetworkConditions::FaultVerdict verdict =
      options_.conditions.fault_verdict(from, to, method, iteration,
                                        options_.seed, attempt,
                                        window_iteration);
  const Duration delay = delay_for(from, to, method, iteration,
                                   window_iteration) +
                         verdict.spike_delay;
  if (verdict.drop || verdict.corrupt || verdict.dup) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
  }
  if (verdict.lost()) {
    if (verdict.corrupt && transport_->remote()) {
      // Ship the damage for real on the multi-process backend: the frame
      // goes out with a flipped body byte, the receiver's stream CRC
      // discards it (FrameDecoder::corrupt_frames), and the transport
      // resolves the doomed exchange immediately into this no-op — the
      // retry below is the recovery path, exactly as for a drop.
      Request doomed{from,      to,       method, iteration, argument,
                     window_iteration};
      doomed.wire_corrupt = true;
      (void)transport_->send(std::move(doomed), delay, deadline,
                             [](PayloadPtr) {});
    }
    const Duration backoff =
        send_backoff(options_.seed, from, to, iteration, attempt);
    if (attempt + 1 >= kMaxSendAttempts ||
        retry_gives_up(Clock::now() + backoff, deadline)) {
      // Bounded degradation: the caller sees a silent peer, its collect()
      // books a quorum miss if q becomes unreachable — never a hang.
      retry_give_ups_.fetch_add(1, std::memory_order_relaxed);
      (*cb)(nullptr);
      return;
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    std::function<void()> task = [this, from, to, method, iteration,
                                  argument = std::move(argument),
                                  cb = std::move(cb), deadline, attempt,
                                  window_iteration]() mutable {
      send_attempt(from, to, method, iteration, std::move(argument),
                   std::move(cb), deadline, attempt + 1, window_iteration);
    };
    if (!transport_->run_after(backoff, std::move(task))) {
      dropped_tasks_.fetch_add(1, std::memory_order_relaxed);
      (*cb)(nullptr);
    }
    return;
  }
  Request request{from,      to,       method, iteration, std::move(argument),
                  window_iteration};
  const std::uint64_t window = window_iteration.value_or(iteration);
  // Bandwidth-honest request leg: the frame costs its bytes at the edge's
  // rate (plus any wait behind a draining link) before the latency path.
  const Duration send_delay =
      delay + serialization_delay(from, to, request_frame_bytes(request),
                                  window);
  // Caller-side reply accounting rides the respond path: the transport
  // invokes this on whichever thread produced the reply, which for the
  // in-process backend is exactly where the pre-seam dispatch counted it.
  Transport::Respond wrapped = [this, cb, from, to, window,
                                dup = verdict.dup](PayloadPtr payload) {
    if (payload) {
      replies_received_.fetch_add(1, std::memory_order_release);
      if (dup) {
        // fault:dup models a duplicated delivery of this reply; the RPC
        // layer is idempotent, so the second copy is suppressed here and
        // surfaces only as a wasted (crafted-and-discarded) reply.
        wasted_replies_.fetch_add(1, std::memory_order_relaxed);
      }
      // Bandwidth-honest reply leg: a fat reply drains the reverse edge
      // (to, from) for bytes / rate; defer the caller's callback by that
      // long. Accounting above already happened — the deferral shapes
      // when the caller *sees* the reply, not whether.
      const Duration ser = serialization_delay(
          to, from, reply_frame_bytes(payload), window);
      if (ser.count() > 0) {
        std::function<void()> deliver = [cb, payload]() mutable {
          (*cb)(std::move(payload));
        };
        if (transport_->run_after(ser, std::move(deliver))) return;
        // Shutdown began: deliver inline rather than losing the reply.
      }
    }
    (*cb)(std::move(payload));
  };
  if (!transport_->send(std::move(request), send_delay, deadline,
                        std::move(wrapped))) {
    // Shutdown already began: count the drop and resolve the callback so
    // a concurrent collect() sees a response instead of hanging into its
    // deadline.
    dropped_tasks_.fetch_add(1, std::memory_order_relaxed);
    (*cb)(nullptr);
  }
}

std::vector<Reply> Cluster::collect(
    NodeId from, std::span<const NodeId> peers, const std::string& method,
    std::uint64_t iteration, PayloadPtr argument, std::size_t q,
    Duration timeout, std::optional<std::uint64_t> window_iteration) {
  if (q > peers.size()) {
    throw std::invalid_argument("Cluster::collect: q=" + std::to_string(q) +
                                " > peers=" + std::to_string(peers.size()));
  }
  struct State {
    util::Mutex mutex;
    util::CondVar cv;
    std::vector<Reply> replies GARFIELD_GUARDED_BY(mutex);
    /// Responses seen, including declined/crashed callbacks.
    std::size_t responses GARFIELD_GUARDED_BY(mutex) = 0;
    /// Caller harvested; late replies are wasted.
    bool closed GARFIELD_GUARDED_BY(mutex) = false;
  };
  auto state = std::make_shared<State>();
  const std::size_t total = peers.size();
  for (NodeId peer : peers) {
    call(
        from, peer, method, iteration, argument,
        [this, state, peer, q, total](PayloadPtr payload) {
          util::MutexLock lock(state->mutex);
          ++state->responses;
          if (payload) {
            if (!state->closed && state->replies.size() < q) {
              // Refcount bump only — the payload stays wherever the callee
              // keeps it.
              state->replies.push_back(Reply{peer, std::move(payload)});
            } else {
              // Crafted, transferred, and already useless: the quorum was
              // met by faster peers (or the caller gave up at its
              // deadline).
              wasted_replies_.fetch_add(1, std::memory_order_relaxed);
            }
          }
          // Wake the collector only when its wait predicate can pass —
          // notifying on every response would context-switch it q times
          // per pull for nothing.
          if (state->replies.size() >= q || state->responses == total) {
            state->cv.notify_all();
          }
        },
        timeout, window_iteration);
  }
  std::vector<Reply> replies;
  {
    util::MutexLock lock(state->mutex);
    const auto deadline = Clock::now() + timeout;
    (void)state->cv.wait_until(
        state->mutex, deadline, [&]() GARFIELD_REQUIRES(state->mutex) {
          return state->replies.size() >= q || state->responses == total;
        });
    state->closed = true;
    // Deadline expired short of quorum (or every responder resolved
    // silent): record it, so churn/straggler scenarios are distinguishable
    // from runs that genuinely met q, instead of just looking slow.
    if (state->replies.size() < q) {
      quorum_misses_.fetch_add(1, std::memory_order_relaxed);
    }
    replies = std::move(state->replies);
  }
  // Fastest-q decides *membership*; normalize the order by origin id so
  // downstream floating-point reductions (e.g. averaging) are
  // bit-reproducible whenever the membership is.
  std::sort(replies.begin(), replies.end(),
            [](const Reply& a, const Reply& b) { return a.from < b.from; });
  return replies;
}

NetStats Cluster::stats() const {
  NetStats s;
  // Single acquire point for the whole snapshot: pairs with the release
  // increment on call()'s reply path. Every write that happened-before an
  // observed reply bump — its request's requests_sent_ accounting — is
  // therefore visible to the relaxed loads below, so replies_received <=
  // requests_sent holds in every snapshot, even taken mid-flight. Beyond
  // that pairing the counters are independent relaxed monotone counts
  // (nothing is published through them), so no stronger ordering is
  // required; exact cross-field equalities are only asserted at
  // quiescence.
  s.replies_received = replies_received_.load(std::memory_order_acquire);
  s.requests_sent = requests_sent_.load(std::memory_order_relaxed);
  s.wasted_replies = wasted_replies_.load(std::memory_order_relaxed);
  s.quorum_misses = quorum_misses_.load(std::memory_order_relaxed);
  s.dropped_tasks = dropped_tasks_.load(std::memory_order_relaxed);
  s.faults_injected = faults_injected_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.retry_give_ups = retry_give_ups_.load(std::memory_order_relaxed);
  s.peer_deaths = transport_->peer_deaths();
  // Reply frame costs are charged before the release bump above pairs
  // with this snapshot's acquire, so every observed reply's bytes are
  // covered; request bytes follow the requests_sent_ charge-at-send rule.
  s.bytes_sent = transport_->bytes_sent();
  s.bytes_received = transport_->bytes_received();
  s.bytes_saved = bytes_saved_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace garfield::net

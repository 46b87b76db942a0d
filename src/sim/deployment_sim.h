// Per-deployment iteration-latency composition.
//
// simulate_iteration() walks the stages of one training iteration of each
// §5 application on the modelled cluster and returns the same breakdown
// the paper measures (Fig 7/16): computation, communication (transfer +
// serialization + RPC overhead + straggler/partition waits) and robust
// aggregation. Throughput figures (Fig 6, 8, 9, 10, 13, 14, 15) are
// derived from it.
//
// Stage model: every communication stage costs
//     latency + max-per-node-NIC-floats / link-bandwidth
//             + serialized-floats * 2 / serialize-rate
//             + stage-floats-total / fabric-capacity
// The fabric term models switch contention: parameter-server traffic is
// O(n) per iteration, decentralized traffic is O(n^2) — which is exactly
// why decentralized learning does not scale (Fig 9a).
//
// Network conditions: the same net::NetworkConditions spec that drives the
// live cluster drives this plane (the cross-validation contract). Per pull
// stage the model classifies each candidate responder's edge with the same
// per-edge predicates the live plane composes (net/conditions.h) and
// resolves whether the awaited quorum can dodge the degraded responders:
//  - heterogeneous slow links force the stage onto the degraded edge class
//    (cost_model's degraded()) whenever q exceeds the fast responders;
//  - an active straggler phase adds its full lag whenever q cannot be met
//    without a straggling responder — which is exactly why an asynchronous
//    n-f quorum rides out stragglers a synchronous deployment waits on;
//  - an active partition window adds its delivery lag whenever q cannot be
//    met on the puller's side of the cut (messages are delayed, not
//    dropped — the pre-GST partial-synchrony regime);
//  - jitter contributes the expected tail of the q-th fastest reply;
//  - a configured byte rate (wan bw=, link: overrides) caps the stage's
//    edge bandwidth at the spec's rate — the puller's own overrides always
//    bind, responder-side overrides only when the quorum cannot be met
//    without a limited responder (the usual fastest-q dodge), and the
//    hetero factor derates the capped rate on degraded stages exactly as
//    the live cluster derates byte_rate() — the analytic twin of the
//    cluster's per-message serialization delay;
//  - a churn schedule removes its down nodes from the stage's candidate
//    pool outright (they are absent, not slow) and clamps the quorum to
//    what remains — the analytic twin of the live cluster refusing
//    delivery to churn-down nodes, so both planes walk the same
//    per-iteration quorum trajectory;
//  - an active fault clause charges the expected retry tail of its lost
//    attempts (drop + corrupt, each resent after the live sender's
//    backoff floor) plus its expected delay-spike mass whenever the
//    quorum cannot dodge the affected edges — the analytic twin of the
//    cluster's bounded retry layer, zero outside the fault window.
#pragma once

#include <cstdint>
#include <string>

#include "net/conditions.h"
#include "sim/cost_model.h"
#include "sim/model_spec.h"

namespace garfield::sim {

enum class SimDeployment {
  kVanilla,
  kCrashTolerant,
  kSsmw,
  kMsmw,
  kDecentralized,
};

[[nodiscard]] std::string to_string(SimDeployment d);

struct SimSetup {
  SimDeployment deployment = SimDeployment::kSsmw;
  std::size_t d = 23539850;      ///< model dimension (ResNet-50 default)
  std::size_t batch_size = 32;   ///< per-worker mini-batch
  std::size_t nw = 18;           ///< workers (or peers when decentralized)
  std::size_t fw = 3;
  std::size_t nps = 6;           ///< ignored by vanilla/ssmw/decentralized
  std::size_t fps = 1;
  std::string gradient_gar = "bulyan";
  std::string model_gar = "median";
  bool asynchronous = true;      ///< wait for n-f replies instead of n
  DeviceProfile device = cpu_profile();
  LinkProfile link{};
  /// Native-runtime baseline (vanilla TF / PyTorch): optimized collectives,
  /// no per-message protobuf serialization, streaming aggregation.
  bool native_runtime = false;
  /// PyTorch-backend Garfield (§4.2): per-layer pipelining overlaps
  /// communication with aggregation.
  bool pipelined = false;
  /// Decentralized contraction rounds per iteration (non-iid data).
  std::size_t contraction_steps = 0;
  /// Switch-fabric capacity in units of link bandwidth.
  double fabric_links = 8.0;
  /// Network conditions shared verbatim with the live plane
  /// (net/conditions.h spec grammar). Node ids follow the live trainer's
  /// layout: parameter-server deployments place servers at [0, nps) and
  /// workers at [nps, nps + nw); decentralized deployments place peers at
  /// [0, nw). `link` is the fast edge class; a hetero clause derives the
  /// slow class via degraded(link, factor).
  net::NetworkConditions conditions{};
  /// Iteration the breakdown is computed for — straggler phases, partition
  /// windows and windowed wan phases (latency/jitter/bandwidth) are
  /// iteration-scheduled, so the breakdown is a function of *when* you
  /// look.
  std::uint64_t iteration = 0;
  /// Wire floats per model float after gradient compression (net/codec.h):
  /// 1.0 for codec=none, ~2k/d for topk:k=..., ~0.25 for int8. Scales every
  /// communication volume — computation and aggregation stay full-size.
  double codec_ratio = 1.0;
};

struct IterationBreakdown {
  double computation = 0.0;
  double communication = 0.0;
  double aggregation = 0.0;

  [[nodiscard]] double total() const {
    return computation + communication + aggregation;
  }
};

/// Latency composition of one iteration at the reporting server/peer.
[[nodiscard]] IterationBreakdown simulate_iteration(const SimSetup& setup);

/// Model updates per second (1 / iteration latency).
[[nodiscard]] double updates_per_sec(const SimSetup& setup);

/// Mini-batches processed per second (nw per iteration — employing more
/// workers grows the effective batch, Fig 8's metric).
[[nodiscard]] double batches_per_sec(const SimSetup& setup);

/// Communication component only (Fig 9's metric).
[[nodiscard]] double communication_time(const SimSetup& setup);

/// Slowdown of `setup` relative to the native vanilla baseline on the same
/// device/model (Fig 6/15's metric).
[[nodiscard]] double slowdown_vs_vanilla(const SimSetup& setup);

}  // namespace garfield::sim

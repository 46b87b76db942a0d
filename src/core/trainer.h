// Deployment trainers: the five applications of §5 and §6.2, runnable on
// the in-process threaded cluster.
//
//  - Vanilla          : 1 trusted server, plain averaging (the TF/PyTorch
//                       baseline).
//  - CrashTolerant    : primary/backup replicated servers with averaging;
//                       survives fail-silent crashes but not Byzantine lies.
//  - SSMW (Listing 1) : single trusted server + robust gradient GAR
//                       (the AggregaThor architecture).
//  - MSMW (Listing 2) : replicated servers; robust GAR on gradients *and*
//                       on models, with a model-exchange round per step.
//  - Decentralized (Listing 3): peer-to-peer, every node is Server+Worker,
//                       optional multi-round contraction for non-iid data.
//
// Every loop is executed by one thread per server/peer; workers are
// passive RPC handlers. Evaluation probes run on the reporting replica.
#pragma once

#include <vector>

#include "core/config.h"
#include "net/cluster.h"

namespace garfield::core {

/// One accuracy probe on the reporting replica.
struct EvalPoint {
  std::size_t iteration = 0;
  double accuracy = 0.0;
  double loss = 0.0;
};

/// One Table-2 alignment probe: |cos(angle)| between the two largest
/// parameter-difference vectors across correct server replicas (the sign
/// of a difference vector is an artifact of pair ordering).
struct AlignmentSample {
  std::size_t iteration = 0;
  double cos_phi = 0.0;
  double max_diff1 = 0.0;
  double max_diff2 = 0.0;
};

struct TrainResult {
  std::vector<EvalPoint> curve;         ///< each probe by its reporter
  double final_accuracy = 0.0;
  double final_loss = 0.0;
  net::NetStats net_stats;              ///< whole-cluster traffic
  /// Malformed payloads (wrong dimension / NaN / Inf) dropped at server
  /// ingress, summed over all correct servers.
  std::uint64_t rejected_payloads = 0;
  /// Gradient replies served across all workers, and the forward/backward
  /// passes actually run to produce them — the gap is what the workers'
  /// per-iteration gradient cache saved (served == nps * computed in a
  /// fully-hitting parameter-server run).
  std::uint64_t gradients_served = 0;
  std::uint64_t gradients_computed = 0;
  std::vector<AlignmentSample> alignment;
  std::size_t iterations_run = 0;
  /// Final parameter vector of the replica (or peer) that reported the
  /// last iteration — server 0 unless the churn schedule has it down then
  /// — bit-exact. Sync deployments are bitwise deterministic, so this is the
  /// cross-backend parity probe: an `inproc` and a `tcp` run of the same
  /// config must produce identical bytes here.
  net::Payload final_parameters;
  /// Byzantine-recovery state transfer outcomes, summed over every
  /// recovery the churn schedule drove: peer checkpoint blobs adopted
  /// after their whole-blob digest verified, and blobs rejected by that
  /// verification (a corrupt_recovery peer tampering post-seal, a torn
  /// carrier, a dimension mismatch). A run where recovering replicas hit
  /// tampered peers shows rejects > 0 while the honest trajectory
  /// continues unchanged.
  std::uint64_t state_transfers = 0;
  std::uint64_t state_transfer_rejects = 0;
  /// Gradient replies each iteration's reporting replica pulled, one entry
  /// per iteration — the live quorum trajectory. Under a churn schedule
  /// this is what the analytic plane predicts as
  /// span - count_down(span, it); compared directly in the churn crossval
  /// tests. An entry stays 0 when no loop ran that iteration as its
  /// reporter (e.g. a reporter churned past it).
  std::vector<std::size_t> reporting_gradient_counts;
};

/// Run the configured deployment to completion and report its curve.
/// Throws std::runtime_error when a churn schedule drops the scheduled
/// availability of a cohort below its GAR's min_n(f) resilience floor —
/// aggregating below the (n, f) bound would silently void the paper's
/// guarantees, so the run aborts loudly instead.
[[nodiscard]] TrainResult train(const DeploymentConfig& config);

}  // namespace garfield::core

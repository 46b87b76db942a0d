#include "core/trainer.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "attacks/registry.h"
#include "core/checkpoint.h"
#include "core/node_runner.h"
#include "core/server.h"
#include "core/train_loop.h"
#include "core/worker.h"
#include "gars/gar.h"
#include "gars/registry.h"
#include "net/codec.h"
#include "net/wire.h"
#include "nn/zoo.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace garfield::core {

namespace {

using detail::is_decentralized;
using detail::Runtime;
using net::Payload;
using tensor::Rng;

/// Aggregate with a pre-parsed GAR spec sized to the actual reply count.
/// Garfield builds the rule per call because asynchronous collection can
/// legally return any q in [n-f, n]; the rule object is a few words, while
/// all heavy scratch (distance matrix, work vectors) lives in the caller's
/// AggregationContext and is reused across iterations.
Payload aggregate(const gars::GarSpec& spec, std::size_t f,
                  const std::vector<Payload>& inputs,
                  gars::AggregationContext& ctx) {
  assert(!inputs.empty());
  const gars::GarPtr gar = gars::make_gar(spec, inputs.size(), f);
  Payload out;
  gar->aggregate_into(inputs, ctx, out);
  return out;
}

/// Parsed spec plus its resilience floor, resolved once per loop instead of
/// once per iteration. min_n is the option-aware floor (gar_min_n over the
/// parsed spec), so a quorum that satisfies the rule but not its options
/// (e.g. multi_krum:m=8 at a degraded q) skips the round instead of
/// throwing out of the loop thread.
struct GarPlan {
  gars::GarSpec spec;
  std::size_t min_n = 0;
};

GarPlan plan_gar(const std::string& spec_string, std::size_t f) {
  GarPlan plan;
  plan.spec = gars::parse_gar_spec(spec_string);
  plan.min_n = gars::gar_min_n(plan.spec, f);
  return plan;
}

/// Per-rank attack specs for a Byzantine cohort: expand the configured plan
/// over the f declared attackers (validated at config time; re-expanding
/// here keeps the builders independent of validate() being called first).
/// Returns an empty vector when no attack is mounted.
std::vector<attacks::AttackSpec> attack_cohort(const std::string& plan,
                                               std::size_t f) {
  if (plan.empty() || f == 0) return {};
  return attacks::parse_attack_plan(plan).expand(f);
}

bool spec_is_omniscient(const attacks::AttackSpec& spec) {
  return attacks::AttackRegistry::instance().at(spec.name).omniscient;
}

// Runtime moved to core/train_loop.h: the multi-process node runner builds
// and drives the same structure, one rank per process.

data::Dataset make_dataset(const DeploymentConfig& cfg,
                           const tensor::Shape& input_shape,
                           std::size_t classes, std::size_t n, Rng& rng) {
  if (cfg.dataset == "teacher")
    return data::make_teacher_dataset(input_shape, classes, n, rng);
  return data::make_cluster_dataset(input_shape, classes, n, rng,
                                    cfg.dataset_noise);
}

/// The prelude both deployment shapes share: the dataset (test split into
/// rt.test, training shards returned, one per worker) and the cluster over
/// cfg.total_nodes() ids. `salt` keeps the two shapes' network seeds apart.
std::vector<data::Dataset> build_data_and_cluster(Runtime& rt,
                                                  std::uint64_t salt) {
  const DeploymentConfig& cfg = rt.config;
  const Rng root(cfg.seed);
  Rng model_rng = root.fork(1);
  Rng data_rng = root.fork(2);
  auto proto = nn::make_model(cfg.model, model_rng);

  // Draw train and test from one generator call so they share the same
  // prototypes/teacher, then split.
  data::Dataset full =
      make_dataset(cfg, proto->input_shape(), proto->num_classes(),
                   cfg.train_size + cfg.test_size, data_rng);
  auto [train, test_set] = full.split(cfg.train_size);
  rt.test = test_set.all();
  std::vector<data::Dataset> shards =
      cfg.non_iid ? data::shard_by_class(train, cfg.nw)
                  : data::shard_iid(train, cfg.nw, data_rng);

  net::Cluster::Options net_opts;
  net_opts.nodes = cfg.total_nodes();
  net_opts.pool_threads = cfg.pool_threads;
  net_opts.conditions = net::NetworkConditions::parse(cfg.network);
  net_opts.seed = cfg.seed ^ salt;
  net_opts.transport = rt.transport;  // null => in-process backend
  rt.conditions = net_opts.conditions;
  rt.cluster = std::make_unique<net::Cluster>(net_opts);
  return shards;
}

/// Build cluster, servers and workers for a parameter-server deployment
/// (vanilla / crash-tolerant / SSMW / MSMW). Node ids: servers [0, nps),
/// workers [nps, nps + nw).
void build_parameter_server(Runtime& rt) {
  const DeploymentConfig& cfg = rt.config;
  const Rng root(cfg.seed);
  std::vector<data::Dataset> shards = build_data_and_cluster(rt, 0xc1u);

  std::vector<net::NodeId> worker_ids, server_ids;
  for (std::size_t s = 0; s < cfg.nps; ++s) server_ids.push_back(s);
  for (std::size_t w = 0; w < cfg.nw; ++w) worker_ids.push_back(cfg.nps + w);

  const std::vector<attacks::AttackSpec> server_specs =
      attack_cohort(cfg.server_attack, cfg.fps);
  for (std::size_t s = 0; s < cfg.nps; ++s) {
    Rng replica_rng = root.fork(1);  // identical initial replicas
    nn::ModelPtr model = nn::make_model(cfg.model, replica_rng);
    std::vector<net::NodeId> peers;
    for (net::NodeId other : server_ids)
      if (other != s) peers.push_back(other);
    const bool byz = !server_specs.empty() && s >= cfg.nps - cfg.fps;
    if (byz) {
      const attacks::AttackSpec& spec =
          server_specs[s - (cfg.nps - cfg.fps)];
      rt.servers.push_back(std::make_unique<ByzantineServer>(
          s, *rt.cluster, std::move(model), cfg.optimizer, worker_ids,
          std::move(peers), attacks::make_attack(spec), root.fork(100 + s),
          cfg.nps, cfg.fps, cfg.model_gar, cfg.gradient_gar));
    } else {
      rt.servers.push_back(std::make_unique<Server>(
          s, *rt.cluster, std::move(model), cfg.optimizer, worker_ids,
          std::move(peers)));
    }
  }

  const std::vector<attacks::AttackSpec> worker_specs =
      attack_cohort(cfg.worker_attack, cfg.fw);
  for (std::size_t w = 0; w < cfg.nw; ++w) {
    Rng replica_rng = root.fork(1);
    nn::ModelPtr model = nn::make_model(cfg.model, replica_rng);
    const net::NodeId id = cfg.nps + w;
    const bool byz = !worker_specs.empty() && w >= cfg.nw - cfg.fw;
    if (byz) {
      const attacks::AttackSpec& spec = worker_specs[w - (cfg.nw - cfg.fw)];
      rt.workers.push_back(std::make_unique<ByzantineWorker>(
          id, *rt.cluster, std::move(model), std::move(shards[w]),
          cfg.batch_size, root.fork(200 + w), attacks::make_attack(spec),
          cfg.worker_momentum, spec_is_omniscient(spec), cfg.nw, cfg.fw,
          cfg.gradient_gar, cfg.nps, cfg.nps + cfg.nw));
    } else {
      rt.workers.push_back(std::make_unique<Worker>(
          id, *rt.cluster, std::move(model), std::move(shards[w]),
          cfg.batch_size, root.fork(200 + w), cfg.worker_momentum));
    }
  }
  // Synchronous replicated-server deployments exchange models step-tagged:
  // every replica publishes its snapshot for iteration t and peers pull
  // exactly t, so the model-GAR aggregates same-iteration states
  // (deterministic) instead of whatever a racing replica held.
  // Asynchronous MSMW keeps untagged live-state serving — its whole point
  // is aggregating whatever is available *now* rather than waiting on
  // stragglers.
  if (cfg.deployment == Deployment::kMsmw && !cfg.asynchronous) {
    for (auto& server : rt.servers) server->enable_step_tagged_serving();
  }
}

/// Build the peer-to-peer runtime: nw nodes, each Server + Worker with the
/// same node id.
void build_decentralized(Runtime& rt) {
  const DeploymentConfig& cfg = rt.config;
  const Rng root(cfg.seed);
  std::vector<data::Dataset> shards = build_data_and_cluster(rt, 0xc2u);

  std::vector<net::NodeId> all_ids;
  for (std::size_t i = 0; i < cfg.nw; ++i) all_ids.push_back(i);

  // Peers are Server+Worker pairs: the worker plan drives gradient
  // corruption, the server plan (falling back to the worker plan) drives
  // model/contraction corruption on the same Byzantine peers.
  const std::vector<attacks::AttackSpec> worker_specs =
      attack_cohort(cfg.worker_attack, cfg.fw);
  const std::vector<attacks::AttackSpec> server_specs = attack_cohort(
      cfg.server_attack.empty() ? cfg.worker_attack : cfg.server_attack,
      cfg.fw);
  for (std::size_t i = 0; i < cfg.nw; ++i) {
    Rng replica_rng = root.fork(1);
    nn::ModelPtr server_model = nn::make_model(cfg.model, replica_rng);
    Rng worker_model_rng = root.fork(1);
    nn::ModelPtr worker_model = nn::make_model(cfg.model, worker_model_rng);
    std::vector<net::NodeId> peers;
    for (net::NodeId other : all_ids)
      if (other != i) peers.push_back(other);
    // The two halves of a Byzantine peer corrupt independently: a
    // server-only plan (worker_attack empty) mounts lying model/contraction
    // replies on top of honest gradient service, and vice versa.
    const std::size_t rank = i >= cfg.nw - cfg.fw ? i - (cfg.nw - cfg.fw)
                                                  : cfg.fw;  // honest
    const bool byz_server = !server_specs.empty() && rank < cfg.fw;
    const bool byz_worker = !worker_specs.empty() && rank < cfg.fw;
    if (byz_server) {
      rt.servers.push_back(std::make_unique<ByzantineServer>(
          i, *rt.cluster, std::move(server_model), cfg.optimizer, all_ids,
          std::move(peers), attacks::make_attack(server_specs[rank]),
          root.fork(100 + i), cfg.nw, cfg.fw, cfg.model_gar,
          cfg.gradient_gar));
    } else {
      rt.servers.push_back(std::make_unique<Server>(
          i, *rt.cluster, std::move(server_model), cfg.optimizer, all_ids,
          std::move(peers)));
    }
    if (byz_worker) {
      rt.workers.push_back(std::make_unique<ByzantineWorker>(
          i, *rt.cluster, std::move(worker_model), std::move(shards[i]),
          cfg.batch_size, root.fork(200 + i),
          attacks::make_attack(worker_specs[rank]), cfg.worker_momentum,
          spec_is_omniscient(worker_specs[rank]), cfg.nw, cfg.fw,
          cfg.gradient_gar, 0, cfg.nw));
    } else {
      rt.workers.push_back(std::make_unique<Worker>(
          i, *rt.cluster, std::move(worker_model), std::move(shards[i]),
          cfg.batch_size, root.fork(200 + i), cfg.worker_momentum));
    }
  }
  // Peers exchange models step-tagged, like the contracted-gradient
  // gossip (whose tag additionally encodes the contraction round).
  for (auto& server : rt.servers) server->enable_step_tagged_serving();
}

/// Byzantine-recovery state transfer — the live path the checkpoint
/// digest trailer exists for. The recovering replica pulls every live peer
/// server's sealed checkpoint blob over the get_checkpoint RPC, rejects
/// any blob that fails its whole-blob digest (a corrupt_recovery peer
/// tampering post-seal) or carries the wrong dimension, and adopts the
/// freshest surviving state: highest checkpoint iteration, ties broken
/// toward the lowest sender rank — a pure function of the verified reply
/// set, so the pick never depends on reply arrival order. Returns false
/// when no peer blob survives verification; the caller then falls back to
/// the durable local checkpoint.
bool recover_from_peers(Runtime& rt, Server& server, net::NodeId self,
                        std::uint64_t iteration) {
  const DeploymentConfig& cfg = rt.config;
  std::vector<net::NodeId> live;
  for (std::size_t p = 0; p < cfg.nps; ++p) {
    if (p != self && !rt.cluster->is_crashed(p)) live.push_back(p);
  }
  if (live.empty()) return false;
  std::vector<net::Reply> replies = rt.cluster->collect(
      self, live, kGetCheckpoint, iteration, nullptr, live.size(),
      std::chrono::seconds(10));
  const std::size_t dimension = server.parameters().size();
  std::optional<Checkpoint> best;
  net::NodeId best_from = 0;
  for (net::Reply& r : replies) {
    if (!r.payload) continue;
    Checkpoint ckpt;
    try {
      ckpt = decode_checkpoint_blob(
          unpack_bytes(*r.payload,
                       "state transfer from server " + std::to_string(r.from)),
          "state transfer from server " + std::to_string(r.from));
    } catch (const std::exception&) {
      // Digest (or carrier) verification rejected the blob before any
      // field was decoded: drop this peer's offer, keep the honest ones.
      rt.state_transfer_rejects.fetch_add(1);
      continue;
    }
    if (ckpt.parameters.size() != dimension) {
      rt.state_transfer_rejects.fetch_add(1);
      continue;
    }
    if (!best || ckpt.iteration > best->iteration ||
        (ckpt.iteration == best->iteration && r.from < best_from)) {
      best_from = r.from;
      best = std::move(ckpt);
    }
  }
  if (!best) return false;
  server.write_model(best->parameters);
  if (!best->velocity.empty()) {
    server.restore_optimizer_velocity(best->velocity);
  }
  rt.state_transfers.fetch_add(1);
  return true;
}

/// Drive the churn schedule at the top of a loop iteration and park this
/// node's loop while the schedule has it down. Returns the iteration the
/// loop should run (>= it, jumping over a crash window the node slept
/// through), or nullopt when the loop should exit instead: the run
/// aborted, the node never recovers inside the configured horizon, or the
/// recovery wait timed out (a schedule nobody left alive can drive).
std::optional<std::size_t> churn_gate(Runtime& rt, net::NodeId node,
                                      std::size_t it) {
  if (rt.abort.load()) return std::nullopt;
  if (!rt.conditions.has_churn()) return it;
  rt.cluster->advance_lifecycle(it);
  if (!rt.cluster->is_crashed(node)) return it;
  // The horizon is cluster-wide: a faster loop may have driven this node
  // into a down window the schedule opens after `it`. The comeback is the
  // up-edge closing that window (a permanent crash has none).
  std::uint64_t down = it;
  while (down + 1 < rt.config.iterations &&
         !rt.conditions.churn_down(node, down))
    ++down;
  const std::optional<std::uint64_t> up =
      rt.conditions.next_up_iteration(node, down);
  if (!up || *up >= rt.config.iterations) return std::nullopt;
  // Park until live peers drive the schedule past the up-edge. Waiting in
  // short slices keeps the park responsive to a concurrent abort, and the
  // overall deadline guards undrivable schedules.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!rt.abort.load()) {
    const std::optional<std::uint64_t> resumed =
        rt.cluster->wait_until_running(node, std::chrono::milliseconds(50));
    if (resumed) return std::size_t(*resumed);
    if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
  }
  return std::nullopt;
}

/// The scheduled-availability floor check: at iteration `it` the churn
/// schedule must keep at least `plan.min_n` of the span [lo, hi) up, or
/// the GAR's (n, f) resilience bound is void. Checked against the
/// *schedule* rather than observed replies, so every loop trips it at the
/// same iteration and the whole run aborts deterministically.
bool churn_floor_holds(Runtime& rt, const GarPlan& plan, std::size_t lo,
                       std::size_t hi, std::size_t it, const char* what) {
  if (!rt.conditions.has_churn()) return true;
  const std::size_t down = rt.conditions.count_down(lo, hi, it);
  const std::size_t up = hi - lo - down;
  if (up >= plan.min_n) return true;
  {
    util::MutexLock lock(rt.abort_mutex);
    if (rt.abort_reason.empty()) {
      rt.abort_reason =
          "churn schedule drops " + std::string(what) +
          " availability to " + std::to_string(up) + " node(s) at iteration " +
          std::to_string(it) + ", below the '" + plan.spec.name +
          "' GAR resilience floor min_n=" + std::to_string(plan.min_n) +
          " — aborting instead of aggregating below the (n, f) bound";
    }
  }
  rt.abort.store(true);
  return false;
}

/// The driver that reports iteration `it`: the lowest-ranked server
/// replica (or peer) the churn schedule has up at `it`. A pure function of
/// the schedule, so exactly one loop owns each iteration's gradient count,
/// eval point, checkpoint and alignment sample: the primary until the
/// schedule crashes it, then the next replica up. Failover is therefore
/// just `churn:crash=0,at_iter=K`.
std::size_t reporter(const Runtime& rt, std::size_t it) {
  const std::size_t drivers = detail::driver_count(rt.config);
  for (std::size_t s = 0; s < drivers; ++s) {
    if (!rt.conditions.churn_down(s, it)) return s;
  }
  return 0;  // nobody is up, so no loop runs `it`
}

/// Persist the reporting server's state on the configured cadence.
void maybe_checkpoint(Runtime& rt, std::size_t server_index, std::size_t it) {
  const DeploymentConfig& cfg = rt.config;
  if (cfg.checkpoint_every == 0 || cfg.checkpoint_path.empty()) return;
  if ((it + 1) % cfg.checkpoint_every != 0 && it + 1 != cfg.iterations)
    return;
  // Around a failover the crashed primary's last reports can race its
  // successor's first: saves are serialized, and a lagging one never
  // replaces a fresher checkpoint.
  util::MutexLock lock(rt.checkpoint_mutex);
  if (it + 1 <= rt.checkpointed_iteration) return;
  save_checkpoint(
      cfg.checkpoint_path,
      Checkpoint{it + 1, rt.servers[server_index]->parameters(),
                 rt.servers[server_index]->optimizer_velocity()});
  rt.checkpointed_iteration = it + 1;
}

void maybe_eval(Runtime& rt, std::size_t server_index, std::size_t it) {
  const DeploymentConfig& cfg = rt.config;
  if (cfg.eval_every == 0) return;
  if (it % cfg.eval_every != 0 && it + 1 != cfg.iterations) return;
  Server& s = *rt.servers[server_index];
  EvalPoint p;
  p.iteration = it;
  p.accuracy = s.compute_accuracy(rt.test);
  p.loss = s.compute_loss(rt.test);
  rt.curves[server_index].push_back(p);
}

/// Table-2 probe: pairwise parameter differences across correct replicas,
/// keep the two of largest norm, report the cosine of their angle.
void maybe_alignment(Runtime& rt, std::size_t correct_servers,
                     std::size_t it) {
  const DeploymentConfig& cfg = rt.config;
  if (cfg.alignment_every == 0 || it % cfg.alignment_every != 0) return;
  if (correct_servers < 3) return;  // need >= 2 difference vectors
  std::vector<Payload> params;
  params.reserve(correct_servers);
  for (std::size_t s = 0; s < correct_servers; ++s)
    params.push_back(rt.servers[s]->parameters());
  struct Diff {
    double norm;
    Payload vec;
  };
  std::vector<Diff> diffs;
  for (std::size_t a = 0; a < params.size(); ++a) {
    for (std::size_t b = a + 1; b < params.size(); ++b) {
      Payload d(params[a].size());
      tensor::subtract(params[a], params[b], d);
      diffs.push_back({tensor::norm(d), std::move(d)});
    }
  }
  std::partial_sort(diffs.begin(), diffs.begin() + 2, diffs.end(),
                    [](const Diff& x, const Diff& y) {
                      return x.norm > y.norm;
                    });
  AlignmentSample sample;
  sample.iteration = it;
  sample.max_diff1 = diffs[0].norm;
  sample.max_diff2 = diffs[1].norm;
  // A difference vector's sign is an artifact of pair ordering (a-b vs
  // b-a); alignment is about the angle between the *lines*, so report the
  // magnitude of the cosine.
  sample.cos_phi = std::abs(tensor::cosine(diffs[0].vec, diffs[1].vec));
  util::MutexLock lock(rt.alignment_mutex);
  rt.alignment.push_back(sample);
}

// ------------------------------------------------------------ loop bodies

/// The one loop behind the four parameter-server presets. They differ
/// only in stages resolved before the first iteration:
///   - gradient stage: vanilla and crash_tolerant average all nw replies
///     (ignoring `asynchronous`); SSMW and MSMW apply gradient_gar at fw,
///     waiting for nw - fw replies when asynchronous;
///   - model stage, MSMW only: model_gar at fps over the replicas'
///     same-iteration states.
/// Crash-tolerant replicas are plain uncoupled replicas; which one's
/// progress the run reports is reporter()'s call.
void parameter_server_loop(Runtime& rt, std::size_t s) {
  const DeploymentConfig& cfg = rt.config;
  Server& server = *rt.servers[s];
  const bool robust = cfg.deployment == Deployment::kSsmw ||
                      cfg.deployment == Deployment::kMsmw;
  const std::size_t fw = robust ? cfg.fw : 0;
  const std::size_t q = robust && cfg.asynchronous ? cfg.nw - cfg.fw : cfg.nw;
  const GarPlan grad = plan_gar(robust ? cfg.gradient_gar : "average", fw);
  std::optional<GarPlan> model;
  if (cfg.deployment == Deployment::kMsmw)
    model = plan_gar(cfg.model_gar, cfg.fps);
  // Model exchange: pull from peers, then include own state, so the GAR
  // sees (peers pulled + 1) inputs.
  const std::size_t q_peers =
      cfg.asynchronous ? cfg.nps - cfg.fps - 1 : cfg.nps - 1;
  gars::AggregationContext& ctx = server.aggregation_context();
  for (std::size_t it = 0; it < cfg.iterations; ++it) {
    const std::optional<std::size_t> next = churn_gate(rt, s, it);
    if (!next) return;
    it = *next;
    if (!churn_floor_holds(rt, grad, cfg.nps, cfg.nps + cfg.nw, it,
                           "worker") ||
        (model && !churn_floor_holds(rt, *model, 0, cfg.nps, it, "server")))
      return;
    const bool reports = reporter(rt, it) == s;
    const std::vector<Payload> grads = server.get_gradients(it, q);
    if (reports) rt.reporting_gradient_counts[it] = grads.size();
    if (grads.size() >= grad.min_n) {
      server.update_model(aggregate(grad.spec, fw, grads, ctx));
    } else if (!model) {
      continue;  // no step taken and no exchange to serve
    }
    if (model) {
      // Publish the post-gradient-step state as this replica's model for
      // iteration `it`, then pull the peers' same-iteration states; a peer
      // that has not reached `it` yet answers not-ready and the transport
      // redelivers — no loop thread ever blocks on a slow replica.
      server.publish_model(it);
      std::vector<Payload> models = server.get_models(it, q_peers);
      models.push_back(server.parameters());
      if (models.size() >= model->min_n) {
        server.write_model(aggregate(model->spec, cfg.fps, models, ctx));
      }
    }
    if (reports) {
      maybe_eval(rt, s, it);
      if (model) maybe_alignment(rt, cfg.nps - cfg.fps, it);
      maybe_checkpoint(rt, s, it);
    }
  }
}

void decentralized_loop(Runtime& rt, std::size_t s) {
  const DeploymentConfig& cfg = rt.config;
  Server& server = *rt.servers[s];
  const std::size_t q = cfg.nw - cfg.fw;  // n - f throughout (Listing 3)
  const GarPlan grad = plan_gar(cfg.gradient_gar, cfg.fw);
  const GarPlan model = plan_gar(cfg.model_gar, cfg.fw);
  gars::AggregationContext& ctx = server.aggregation_context();
  // Gossip tags encode (iteration, contraction round) in one integer so
  // both the publisher and the puller of a contract() round agree on what
  // "round r of iteration t" means.
  const std::size_t rounds = cfg.contraction_steps;
  const auto gossip_tag = [rounds](std::size_t it, std::size_t r) {
    return std::uint64_t(it) * std::uint64_t(rounds) + std::uint64_t(r);
  };
  for (std::size_t it = 0; it < cfg.iterations; ++it) {
    const std::optional<std::size_t> next = churn_gate(rt, s, it);
    if (!next) return;
    it = *next;
    if (!churn_floor_holds(rt, grad, 0, cfg.nw, it, "peer") ||
        !churn_floor_holds(rt, model, 0, cfg.nw, it, "peer"))
      return;
    const bool reports = reporter(rt, it) == s;
    const std::vector<Payload> grads = server.get_gradients(it, q);
    if (reports) rt.reporting_gradient_counts[it] = grads.size();
    if (grads.size() < grad.min_n) {
      // Skipping the iteration must not wedge the peers: publish explicit
      // "no contribution" markers for every gossip round and the unchanged
      // model, so their tagged pulls resolve instead of retrying into
      // their deadline.
      for (std::size_t step = 0; step < rounds; ++step)
        server.skip_aggr_grad(gossip_tag(it, step));
      server.publish_model(it);
      continue;
    }
    Payload aggr = aggregate(grad.spec, cfg.fw, grads, ctx);
    // contract(): multi-round gossip forcing correct nodes together.
    // Listing 3 enables it for non-iid data; it is keyed on the step
    // count here so the ablation can isolate its effect.
    for (std::size_t step = 0; step < rounds; ++step) {
      server.publish_aggr_grad(gossip_tag(it, step), aggr);
      std::vector<Payload> peer_grads =
          server.get_aggr_grads(gossip_tag(it, step), q - 1, it);
      peer_grads.push_back(aggr);
      if (peer_grads.size() < grad.min_n) {
        for (std::size_t rest = step + 1; rest < rounds; ++rest)
          server.skip_aggr_grad(gossip_tag(it, rest));
        break;
      }
      aggr = aggregate(grad.spec, cfg.fw, peer_grads, ctx);
    }
    server.update_model(aggr);
    server.publish_model(it);
    std::vector<Payload> models = server.get_models(it, q - 1);
    models.push_back(server.parameters());
    if (models.size() >= model.min_n) {
      server.write_model(aggregate(model.spec, cfg.fw, models, ctx));
    }
    if (reports) {
      maybe_eval(rt, s, it);
      // Inter-peer drift probe: same methodology as the Table-2 server
      // alignment, applied to the correct peers' model replicas.
      maybe_alignment(rt, cfg.nw - cfg.fw, it);
    }
  }
}

}  // namespace

namespace detail {

void build_runtime(Runtime& rt) {
  if (is_decentralized(rt.config)) {
    build_decentralized(rt);
  } else {
    build_parameter_server(rt);
  }
  rt.curves.resize(driver_count(rt.config));
  rt.reporting_gradient_counts.assign(rt.config.iterations, 0);
  // Install the wire codec on every endpoint before any loop starts: the
  // whole cluster speaks one codec (mixed-codec clusters are not a thing —
  // the spec is part of the deployment config every process shares).
  const net::CodecSpec codec = net::CodecSpec::parse(rt.config.codec);
  if (!codec.identity()) {
    for (auto& server : rt.servers) server->set_codec(codec);
    for (auto& worker : rt.workers) worker->set_codec(codec);
  }
}

/// Wire the churn schedule's recovery path: when advance_lifecycle brings
/// a node back up, the hook resets its caches and transfers state.
/// Parameter-server nodes split by id: servers [0, nps) rejoin and
/// restore the last durable checkpoint; workers [nps, nps + nw) just
/// rejoin (their shard is their state). Decentralized peers rejoin both
/// halves and re-sync through the step-tagged model exchange instead — the
/// next write_model folds the live peers' aggregated state in.
/// `only_node` scopes registration to one node id: a multi-process rank
/// owns exactly its own recovery (foreign object copies never serve).
void register_recovery_hooks(Runtime& rt,
                             std::optional<net::NodeId> only_node) {
  if (!rt.conditions.has_churn()) return;
  const DeploymentConfig& cfg = rt.config;
  const auto wanted = [only_node](net::NodeId node) {
    return !only_node || *only_node == node;
  };
  if (is_decentralized(cfg)) {
    for (std::size_t i = 0; i < rt.servers.size(); ++i) {
      if (!wanted(i)) continue;
      Server* server = rt.servers[i].get();
      Worker* worker = rt.workers[i].get();
      rt.cluster->set_recovery_handler(i, [server, worker](std::uint64_t) {
        server->rejoin();
        worker->rejoin();
      });
    }
    return;
  }
  for (std::size_t s = 0; s < cfg.nps; ++s) {
    if (!wanted(s)) continue;
    Server* server = rt.servers[s].get();
    rt.cluster->set_recovery_handler(s, [&rt, server, s](std::uint64_t it) {
      server->rejoin();
      // State transfer, freshest source first: live peer replicas serve
      // their sealed checkpoint blobs (digest-verified on receipt, so a
      // tampering peer is rejected, not trained on), and only when no
      // verified peer blob arrives does the replica fall back to the
      // durable local checkpoint (config validation requires checkpointing
      // whenever a schedule recovers a server). An unreadable checkpoint —
      // none written yet, or torn — leaves the stale pre-crash state in
      // place; the model exchange pulls the replica forward from there.
      if (recover_from_peers(rt, *server, s, it)) return;
      if (rt.config.checkpoint_path.empty()) return;
      try {
        const Checkpoint ckpt = load_checkpoint(rt.config.checkpoint_path);
        server->write_model(ckpt.parameters);
        if (!ckpt.velocity.empty()) {
          server->restore_optimizer_velocity(ckpt.velocity);
        }
      } catch (const std::exception&) {
      }
    });
  }
  for (std::size_t w = 0; w < cfg.nw; ++w) {
    Worker* worker = rt.workers[w].get();
    rt.cluster->set_recovery_handler(cfg.nps + w, [worker](std::uint64_t) {
      worker->rejoin();
    });
  }
}

void resume_replicas(Runtime& rt) {
  if (rt.config.resume_from.empty()) return;
  const Checkpoint ckpt = load_checkpoint(rt.config.resume_from);
  for (auto& server : rt.servers) {
    server->write_model(ckpt.parameters);
    // A resumed momentum run continues with the exact saved velocity.
    if (!ckpt.velocity.empty()) {
      server->restore_optimizer_velocity(ckpt.velocity);
    }
  }
}

void run_loop(Runtime& rt, std::size_t s) {
  if (is_decentralized(rt.config)) {
    decentralized_loop(rt, s);
  } else {
    parameter_server_loop(rt, s);
  }
}

TrainResult harvest(Runtime& rt) {
  if (rt.abort.load()) {
    util::MutexLock lock(rt.abort_mutex);
    throw std::runtime_error(rt.abort_reason);
  }

  const DeploymentConfig& config = rt.config;
  TrainResult result;
  result.iterations_run = config.iterations;
  result.reporting_gradient_counts = std::move(rt.reporting_gradient_counts);
  result.net_stats = rt.cluster->stats();
  result.state_transfers = rt.state_transfers.load();
  result.state_transfer_rejects = rt.state_transfer_rejects.load();
  for (const auto& server : rt.servers) {
    result.rejected_payloads += server->rejected_payloads();
  }
  for (const auto& worker : rt.workers) {
    result.gradients_served += worker->gradients_served();
    result.gradients_computed += worker->gradients_computed();
  }
  {
    // Loops are joined; the lock is for the analysis (and costs nothing).
    util::MutexLock lock(rt.alignment_mutex);
    result.alignment = std::move(rt.alignment);
  }

  // Each replica's curve holds the iterations it reported; merged in
  // iteration order they are the run's one curve (after a failover: the
  // primary's points, then the survivor's).
  for (const std::vector<EvalPoint>& curve : rt.curves)
    result.curve.insert(result.curve.end(), curve.begin(), curve.end());
  std::stable_sort(result.curve.begin(), result.curve.end(),
                   [](const EvalPoint& a, const EvalPoint& b) {
                     return a.iteration < b.iteration;
                   });
  // The replica that reported the last iteration holds the run's model,
  // returned bit-exact — the cross-backend parity probe (a TCP run of a
  // sync deployment must reproduce the in-process model down to the last
  // float).
  Server& last = *rt.servers[reporter(rt, config.iterations - 1)];
  result.final_parameters = last.parameters();
  if (!result.curve.empty()) {
    result.final_accuracy = result.curve.back().accuracy;
    result.final_loss = result.curve.back().loss;
  } else {
    result.final_accuracy = last.compute_accuracy(rt.test);
    result.final_loss = last.compute_loss(rt.test);
  }
  return result;
}

}  // namespace detail

TrainResult train(const DeploymentConfig& config) {
  config.validate();
  // The TCP backend spreads the deployment over one OS process per node;
  // everything below this dispatch is the single-process path.
  if (config.transport == "tcp") return detail::train_multiprocess(config);

  detail::Runtime rt;
  rt.config = config;
  detail::build_runtime(rt);
  detail::register_recovery_hooks(rt);
  detail::resume_replicas(rt);

  // Spawn one driving thread per server replica / peer. Byzantine servers
  // run the same loop (their lies live in their RPC handlers).
  std::vector<std::thread> threads;
  const std::size_t loops = rt.servers.size();
  threads.reserve(loops);
  for (std::size_t s = 0; s < loops; ++s) {
    threads.emplace_back([&rt, s] { detail::run_loop(rt, s); });
  }
  for (std::thread& t : threads) t.join();

  return detail::harvest(rt);
}

}  // namespace garfield::core

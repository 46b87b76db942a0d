// Quickstart: the paper's Listing 1 (SSMW — single server, multiple
// workers) in ~20 lines of garfield API.
//
// A trusted parameter server trains a small CNN with 7 workers, one of
// which mounts the reversed-gradient attack. Multi-Krum filters it out and
// training converges anyway; swap gradient_gar for "average" to watch the
// attack destroy the run.
//
// The [gar] argument is a registry spec string, so tuned rules work from
// the command line without code changes, e.g.:
//   ./examples/quickstart centered_clip:tau=0.5,iterations=20
//   ./examples/quickstart multi_krum:m=2
//   ./examples/quickstart average:pre_clip=1
//
// Build & run:   ./examples/quickstart [gar]
#include <cstdio>
#include <string>

#include "core/trainer.h"

int main(int argc, char** argv) {
  using namespace garfield::core;

  DeploymentConfig cfg;
  cfg.deployment = Deployment::kSsmw;    // Listing 1
  cfg.model = "mnist_cnn";               // MNIST_CNN-class model
  cfg.nw = 7;                            // workers
  cfg.fw = 1;                            // ... of which Byzantine
  cfg.gradient_gar = argc > 1 ? argv[1] : "multi_krum";
  cfg.worker_attack = "reversed";        // the Fig 5b attack
  cfg.batch_size = 16;
  cfg.train_size = 2048;
  cfg.test_size = 512;
  cfg.optimizer.lr.gamma0 = 0.1F;
  cfg.iterations = 150;
  cfg.eval_every = 25;
  cfg.seed = 1;

  std::printf("SSMW: nw=%zu fw=%zu gar=%s attack=%s model=%s\n", cfg.nw,
              cfg.fw, cfg.gradient_gar.c_str(), cfg.worker_attack.c_str(),
              cfg.model.c_str());

  const TrainResult result = train(cfg);

  std::printf("%-10s %-10s %-10s\n", "iteration", "accuracy", "loss");
  for (const EvalPoint& p : result.curve) {
    std::printf("%-10zu %-10.3f %-10.3f\n", p.iteration, p.accuracy, p.loss);
  }
  std::printf("final accuracy: %.3f   (messages: %llu, bytes: %llu)\n",
              result.final_accuracy,
              static_cast<unsigned long long>(result.net_stats.requests_sent),
              static_cast<unsigned long long>(result.net_stats.bytes_sent));
  return result.final_accuracy > 0.5 ? 0 : 1;
}

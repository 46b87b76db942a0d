// Table 1 — models used to evaluate Garfield.
//
// Prints (a) the paper's model specs carried by the simulator (exact
// parameter counts from Table 1, used by every throughput figure) and
// (b) the trainable scaled-down zoo used by the convergence experiments,
// with the measured cost of one worker gradient on a batch of 16: the
// median wall time of Model::gradient over N calls after a warm-up, on
// one thread. GARFIELD_BENCH_SMOKE shrinks N so the column stays a
// seconds-scale smoke check.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_support.h"
#include "nn/zoo.h"
#include "sim/model_spec.h"
#include "tensor/rng.h"

namespace {

constexpr std::size_t kBatch = 16;

/// Median µs of one Model::gradient call on a random batch of kBatch.
double gradient_us(garfield::nn::Model& model, garfield::tensor::Rng& rng,
                   std::size_t warmup, std::size_t calls) {
  garfield::tensor::Shape shape = model.input_shape();
  shape.insert(shape.begin(), kBatch);
  const auto inputs = garfield::tensor::Tensor::randn(shape, rng);
  std::vector<std::size_t> labels(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) labels[i] = i % model.num_classes();
  for (std::size_t i = 0; i < warmup; ++i) (void)model.gradient(inputs, labels);
  std::vector<double> us(calls);
  for (double& t : us) {
    const auto start = std::chrono::steady_clock::now();
    (void)model.gradient(inputs, labels);
    t = std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count();
  }
  std::nth_element(us.begin(), us.begin() + long(calls / 2), us.end());
  return us[calls / 2];
}

}  // namespace

int main() {
  const bool smoke = garfield::bench::smoke_mode();
  const std::size_t warmup = smoke ? 1 : 10;
  const std::size_t calls = smoke ? 3 : 101;

  std::printf("Table 1 (paper specs, used by the throughput simulator)\n");
  std::printf("%-12s %-14s %-10s\n", "Model", "# parameters", "Size (MB)");
  for (const auto& m : garfield::sim::table1_models()) {
    std::printf("%-12s %-14zu %-10.1f\n", m.name.c_str(), m.parameters,
                m.size_mb);
  }

  std::printf("\nTrainable zoo (architecture-faithful, scaled for the "
              "convergence experiments)\n");
  std::printf("gradient: median of %zu Model::gradient calls on a batch of "
              "%zu after %zu warm-up calls, one thread\n",
              calls, kBatch, warmup);
  std::printf("%-15s %-14s %-16s %-14s\n", "Model", "# parameters",
              "input shape", "gradient (us)");
  for (const auto& name : garfield::nn::model_names()) {
    garfield::tensor::Rng rng(1);
    const auto model = garfield::nn::make_model(name, rng);
    std::string shape = "{";
    for (std::size_t i = 0; i < model->input_shape().size(); ++i) {
      if (i) shape += ",";
      shape += std::to_string(model->input_shape()[i]);
    }
    shape += "}";
    std::printf("%-15s %-14zu %-16s %-14.1f\n", name.c_str(),
                model->dimension(), shape.c_str(),
                gradient_us(*model, rng, warmup, calls));
  }
  return 0;
}

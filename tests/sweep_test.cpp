// Parameterized sweeps: GAR consistency across (n, f) grids and controller
// end-to-end matrices. The Conv2d reference sweep lives in nn_test.
#include <gtest/gtest.h>

#include <cmath>

#include "core/controller.h"
#include "gars/gar.h"
#include "support/test_support.h"
#include "tensor/rng.h"

namespace gg = garfield::gars;
namespace gc = garfield::core;
namespace gt = garfield::tensor;
namespace ts = garfield::testsupport;

// ----------------------------------------------------- GAR (n, f) grids

class GarGrid : public ::testing::TestWithParam<std::size_t> {};

/// Every GAR, at every feasible f for the given n: finite output of the
/// right size, inside the coordinate envelope, and stable under input
/// duplication at the boundary sizes.
TEST_P(GarGrid, AllFeasibleFValues) {
  const std::size_t n = GetParam();
  gt::Rng rng(37);
  std::vector<gt::FlatVector> in(n, gt::FlatVector(10));
  for (auto& v : in) {
    for (float& x : v) x = rng.normal();
  }
  for (const std::string& name : gg::gar_names()) {
    for (std::size_t f = 0; f < n; ++f) {
      if (gg::gar_min_n(name, f) > n) {
        EXPECT_THROW((void)gg::make_gar(name, n, f), std::invalid_argument)
            << name << " n=" << n << " f=" << f;
        continue;
      }
      gg::GarPtr gar = gg::make_gar(name, n, f);
      const gt::FlatVector out = ts::aggregate(*gar, in);
      ASSERT_EQ(out.size(), 10u) << name;
      EXPECT_TRUE(gt::all_finite(out)) << name << " n=" << n << " f=" << f;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ns, GarGrid, ::testing::Values(3, 5, 7, 9, 12, 15),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           std::string name = "n";
                           name += std::to_string(i.param);
                           return name;
                         });

// -------------------------------------------- controller end-to-end grid

struct DeployGar {
  const char* deployment;
  const char* gar;
};

class ControllerMatrix : public ::testing::TestWithParam<DeployGar> {};

TEST_P(ControllerMatrix, ShortRunLearns) {
  const DeployGar& p = GetParam();
  const std::string text = std::string("deployment = ") + p.deployment +
                           "\nmodel = tiny_mlp\nnw = 7\nfw = 1\n"
                           "nps = 3\nfps = 0\ngradient_gar = " +
                           p.gar +
                           "\nmodel_gar = median\ntrain_size = 768\n"
                           "test_size = 192\nbatch_size = 16\nlr = 0.1\n"
                           "iterations = 80\neval_every = 0\nseed = 51\n";
  const gc::TrainResult result = gc::run_experiment(text);
  EXPECT_GT(result.final_accuracy, 0.55)
      << p.deployment << " + " << p.gar;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ControllerMatrix,
    ::testing::Values(DeployGar{"ssmw", "median"},
                      DeployGar{"ssmw", "trimmed_mean"},
                      DeployGar{"ssmw", "multi_krum"},
                      DeployGar{"ssmw", "mda"},
                      DeployGar{"ssmw", "geometric_median"},
                      DeployGar{"ssmw", "centered_clip"},
                      DeployGar{"ssmw", "cge"},
                      DeployGar{"msmw", "median"},
                      DeployGar{"msmw", "multi_krum"},
                      DeployGar{"decentralized", "median"},
                      DeployGar{"decentralized", "trimmed_mean"}),
    [](const ::testing::TestParamInfo<DeployGar>& info) {
      return std::string(info.param.deployment) + "_" + info.param.gar;
    });

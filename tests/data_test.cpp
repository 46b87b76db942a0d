// Unit tests for garfield::data — datasets, sharding, batch sampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "data/dataset.h"
#include "tensor/vecops.h"

namespace gd = garfield::data;
namespace gt = garfield::tensor;

namespace {

/// FNV-1a over a dataset's input bytes, then its labels as 64-bit values:
/// any change to a generated value or label changes the digest.
std::uint64_t dataset_digest(const gd::Dataset& ds) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ULL;
    }
  };
  const gd::Batch all = ds.all();
  mix(all.inputs.data().data(), all.inputs.numel() * sizeof(float));
  for (std::size_t label : all.labels) {
    const std::uint64_t wide = label;
    mix(&wide, sizeof wide);
  }
  return h;
}

}  // namespace

TEST(Dataset, ConstructionValidatesShapes) {
  gt::Tensor inputs({4, 3});
  EXPECT_THROW(gd::Dataset(inputs, {0, 1}, 2), std::invalid_argument);
  gt::Tensor flat({4});
  EXPECT_THROW(gd::Dataset(flat, {0, 1, 2, 3}, 2), std::invalid_argument);
}

TEST(Dataset, GatherPreservesSamples) {
  gt::Tensor inputs({3, 2}, std::vector<float>{1, 2, 3, 4, 5, 6});
  gd::Dataset ds(inputs, {0, 1, 2}, 3);
  std::vector<std::size_t> idx{2, 0};
  gd::Batch b = ds.gather(idx);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.inputs.at(0, 0), 5.0F);
  EXPECT_EQ(b.inputs.at(1, 1), 2.0F);
  EXPECT_EQ(b.labels[0], 2u);
}

TEST(Dataset, SplitPartitionsWithoutOverlap) {
  gt::Rng rng(1);
  gd::Dataset full = gd::make_cluster_dataset({4}, 3, 90, rng, 0.5F);
  auto [train, test] = full.split(60);
  EXPECT_EQ(train.size(), 60u);
  EXPECT_EQ(test.size(), 30u);
  EXPECT_THROW(full.split(91), std::invalid_argument);
}

TEST(ClusterDataset, BalancedClasses) {
  gt::Rng rng(2);
  gd::Dataset ds = gd::make_cluster_dataset({8}, 5, 100, rng, 1.0F);
  std::vector<std::size_t> counts(5, 0);
  for (std::size_t label : ds.labels()) counts[label]++;
  for (std::size_t c : counts) EXPECT_EQ(c, 20u);
}

TEST(ClusterDataset, LowNoiseIsLinearlySeparableish) {
  // With tiny noise, nearest-prototype classification should be perfect;
  // we verify samples of the same class are closer to each other than to
  // other classes on average.
  gt::Rng rng(3);
  gd::Dataset ds = gd::make_cluster_dataset({16}, 4, 80, rng, 0.1F);
  gd::Batch all = ds.all();
  double same = 0.0, diff = 0.0;
  std::size_t same_n = 0, diff_n = 0;
  const std::size_t d = 16;
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      std::span<const float> a(all.inputs.data().data() + i * d, d);
      std::span<const float> b(all.inputs.data().data() + j * d, d);
      const double dist = gt::squared_distance(a, b);
      if (all.labels[i] == all.labels[j]) {
        same += dist;
        ++same_n;
      } else {
        diff += dist;
        ++diff_n;
      }
    }
  }
  EXPECT_LT(same / double(same_n), diff / double(diff_n) * 0.2);
}

TEST(TeacherDataset, LabelsInRangeAndNontrivial) {
  gt::Rng rng(4);
  gd::Dataset ds = gd::make_teacher_dataset({32}, 6, 600, rng);
  std::set<std::size_t> seen;
  for (std::size_t label : ds.labels()) {
    EXPECT_LT(label, 6u);
    seen.insert(label);
  }
  EXPECT_GE(seen.size(), 3u);  // the teacher uses several classes
}

TEST(TeacherDataset, DeterministicInSeed) {
  gt::Rng r1(5), r2(5);
  gd::Dataset a = gd::make_teacher_dataset({8}, 4, 50, r1);
  gd::Dataset b = gd::make_teacher_dataset({8}, 4, 50, r2);
  EXPECT_EQ(a.labels(), b.labels());
}

TEST(ShardIid, PartitionsWholeDataset) {
  gt::Rng rng(6);
  gd::Dataset ds = gd::make_cluster_dataset({4}, 2, 103, rng, 0.5F);
  auto shards = gd::shard_iid(ds, 5, rng);
  ASSERT_EQ(shards.size(), 5u);
  std::size_t total = 0;
  for (const auto& s : shards) total += s.size();
  EXPECT_EQ(total, 103u);
  // Near-equal shard sizes (last takes the remainder).
  for (std::size_t i = 0; i + 1 < shards.size(); ++i)
    EXPECT_EQ(shards[i].size(), 20u);
  EXPECT_EQ(shards.back().size(), 23u);
}

TEST(ShardIid, ShardsAreClassMixed) {
  gt::Rng rng(7);
  gd::Dataset ds = gd::make_cluster_dataset({4}, 4, 400, rng, 0.5F);
  auto shards = gd::shard_iid(ds, 4, rng);
  for (const auto& s : shards) {
    std::set<std::size_t> classes(s.labels().begin(), s.labels().end());
    EXPECT_EQ(classes.size(), 4u);  // every shard sees every class
  }
}

TEST(ShardByClass, ShardsAreClassConcentrated) {
  gt::Rng rng(8);
  gd::Dataset ds = gd::make_cluster_dataset({4}, 8, 800, rng, 0.5F);
  auto shards = gd::shard_by_class(ds, 8);
  for (const auto& s : shards) {
    std::set<std::size_t> classes(s.labels().begin(), s.labels().end());
    EXPECT_LE(classes.size(), 2u);  // strongly non-iid
  }
}

TEST(BatchSampler, EmitsRequestedBatchSize) {
  gt::Rng rng(9);
  gd::Dataset ds = gd::make_cluster_dataset({4}, 2, 64, rng, 0.5F);
  gd::BatchSampler sampler(ds, 16, rng.fork(1));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sampler.next().size(), 16u);
}

TEST(BatchSampler, CoversEpochWithoutRepetition) {
  gt::Rng rng(10);
  gt::Tensor inputs({12, 1});
  for (std::size_t i = 0; i < 12; ++i) inputs[i] = float(i);
  gd::Dataset ds(inputs, std::vector<std::size_t>(12, 0), 1);
  gd::BatchSampler sampler(ds, 4, rng.fork(1));
  std::multiset<float> seen;
  for (int b = 0; b < 3; ++b) {
    gd::Batch batch = sampler.next();
    for (std::size_t i = 0; i < batch.size(); ++i)
      seen.insert(batch.inputs[i]);
  }
  EXPECT_EQ(seen.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(seen.count(float(i)), 1u);
}

TEST(BatchSampler, TracksEpochs) {
  gt::Rng rng(11);
  gd::Dataset ds = gd::make_cluster_dataset({2}, 2, 8, rng, 0.5F);
  gd::BatchSampler sampler(ds, 4, rng.fork(1));
  EXPECT_EQ(sampler.epoch(), 0u);
  (void)sampler.next();
  (void)sampler.next();
  (void)sampler.next();  // triggers reshuffle
  EXPECT_EQ(sampler.epoch(), 1u);
}

TEST(BatchSampler, ShortFinalBatch) {
  gt::Rng rng(12);
  gd::Dataset ds = gd::make_cluster_dataset({2}, 2, 10, rng, 0.5F);
  gd::BatchSampler sampler(ds, 4, rng.fork(1));
  (void)sampler.next();
  (void)sampler.next();
  EXPECT_EQ(sampler.next().size(), 2u);  // 10 = 4 + 4 + 2
}

TEST(BatchSampler, DeterministicInSeed) {
  gt::Rng rng(13);
  gd::Dataset ds = gd::make_cluster_dataset({2}, 2, 32, rng, 0.5F);
  gd::BatchSampler s1(ds, 8, gt::Rng(99));
  gd::BatchSampler s2(ds, 8, gt::Rng(99));
  gd::Batch a = s1.next(), b = s2.next();
  EXPECT_EQ(a.labels, b.labels);
  for (std::size_t i = 0; i < a.inputs.numel(); ++i)
    EXPECT_EQ(a.inputs[i], b.inputs[i]);
}

TEST(DatasetPin, TrainerDrawsForSeedOneAreUnchanged) {
  // The trainer's draw for seed 1 with the default sizes (train 2048 +
  // test 512): `cluster` for mnist_cnn and `teacher` for small_mlp, whose
  // labels come from tensor::matmul. A kernel change must not move the
  // workloads' data, nor the accuracy calibrated on it. The digests hold
  // for libstdc++'s normal distribution and glibc's tanh; if either
  // changes, recompute them from the commit that last passed.
  gt::Rng cluster_root(1);
  gt::Rng cluster_rng = cluster_root.fork(2);
  const gd::Dataset cluster = gd::make_cluster_dataset(
      {1, 16, 16}, 10, 2048 + 512, cluster_rng, 1.0F);
  EXPECT_EQ(dataset_digest(cluster), 0xf34b63cb94bd135fULL);
  gt::Rng teacher_root(1);
  gt::Rng teacher_rng = teacher_root.fork(2);
  const gd::Dataset teacher =
      gd::make_teacher_dataset({64}, 10, 2048 + 512, teacher_rng);
  EXPECT_EQ(dataset_digest(teacher), 0x64919cc9e9cbdd85ULL);
}

// Unit tests for garfield::tensor — Tensor, vecops, Rng, parallel_for.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "tensor/vecops.h"

namespace gt = garfield::tensor;

TEST(Shape, NumelAndToString) {
  EXPECT_EQ(gt::shape_numel({2, 3, 4}), 24u);
  EXPECT_EQ(gt::shape_numel({7}), 7u);
  EXPECT_EQ(gt::shape_numel({}), 0u);
  EXPECT_EQ(gt::shape_to_string({2, 3}), "[2, 3]");
}

TEST(Tensor, ZeroConstruction) {
  gt::Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  EXPECT_EQ(t.rank(), 2u);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0F);
}

TEST(Tensor, FillAndAt) {
  gt::Tensor t = gt::Tensor::full({2, 2}, 3.5F);
  EXPECT_EQ(t.at(1, 1), 3.5F);
  t.at(0, 1) = -1.0F;
  EXPECT_EQ(t[1], -1.0F);
}

TEST(Tensor, ValueConstructorChecksSize) {
  EXPECT_THROW(gt::Tensor({2, 2}, std::vector<float>{1.0F}),
               std::invalid_argument);
  gt::Tensor ok({2, 2}, std::vector<float>{1, 2, 3, 4});
  EXPECT_EQ(ok.at(1, 0), 3.0F);
}

TEST(Tensor, ReshapePreservesData) {
  gt::Tensor t({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  gt::Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at(2, 1), 6.0F);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, ArithmeticOps) {
  gt::Tensor a({3}, std::vector<float>{1, 2, 3});
  gt::Tensor b({3}, std::vector<float>{4, 5, 6});
  a += b;
  EXPECT_EQ(a[2], 9.0F);
  a -= b;
  EXPECT_EQ(a[0], 1.0F);
  a *= 2.0F;
  EXPECT_EQ(a[1], 4.0F);
}

TEST(Tensor, Reductions) {
  gt::Tensor t({4}, std::vector<float>{1, -2, 5, 0});
  EXPECT_DOUBLE_EQ(t.sum(), 4.0);
  EXPECT_DOUBLE_EQ(t.mean(), 1.0);
  EXPECT_EQ(t.max(), 5.0F);
  EXPECT_EQ(t.argmax(), 2u);
}

TEST(Tensor, RandnIsDeterministicInSeed) {
  gt::Rng rng1(7), rng2(7);
  gt::Tensor a = gt::Tensor::randn({16}, rng1);
  gt::Tensor b = gt::Tensor::randn({16}, rng2);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Matmul, MatchesHandComputation) {
  gt::Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  gt::Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  gt::Tensor c = gt::matmul(a, b);
  EXPECT_EQ(c.at(0, 0), 58.0F);
  EXPECT_EQ(c.at(0, 1), 64.0F);
  EXPECT_EQ(c.at(1, 0), 139.0F);
  EXPECT_EQ(c.at(1, 1), 154.0F);
}

namespace {

// Shapes whose k and n are not multiples of 8 (nor of 4), so every GEMM
// runs its tail loops as well as its vectorized body.
struct GemmShape {
  std::size_t m, n, k;
};
constexpr GemmShape kGemmShapes[] = {
    {1, 1, 1}, {3, 5, 7}, {5, 13, 19}, {16, 9, 37}, {7, 67, 130}, {2, 31, 9}};

}  // namespace

TEST(Gemm, AllFormsMatchDoubleReference) {
  for (const GemmShape& s : kGemmShapes) {
    gt::Rng rng(40 + s.k);
    const gt::Tensor a = gt::Tensor::randn({s.m, s.k}, rng);
    const gt::Tensor b = gt::Tensor::randn({s.k, s.n}, rng);
    const gt::Tensor c0 = gt::Tensor::randn({s.m, s.n}, rng);
    const gt::Tensor a_t = gt::transpose(a), b_t = gt::transpose(b);
    gt::Tensor nn = c0, nt = c0, tn = c0;
    gt::gemm_nn(s.m, s.n, s.k, a.data().data(), b.data().data(),
                nn.data().data());
    gt::gemm_nt(s.m, s.n, s.k, a.data().data(), b_t.data().data(),
                nt.data().data());
    gt::gemm_tn(s.m, s.n, s.k, a_t.data().data(), b.data().data(),
                tn.data().data());
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        double ref = c0.at(i, j), scale = std::abs(ref);
        for (std::size_t p = 0; p < s.k; ++p) {
          ref += double(a.at(i, p)) * double(b.at(p, j));
          scale += std::abs(double(a.at(i, p)) * double(b.at(p, j)));
        }
        // Float rounding grows at most ~k ulps of the absolute sum.
        const double tol = 1.2e-7 * double(s.k + 1) * scale;
        EXPECT_NEAR(nn.at(i, j), ref, tol) << "nn " << s.m << "x" << s.n
                                           << "x" << s.k << " at " << i
                                           << "," << j;
        EXPECT_NEAR(nt.at(i, j), ref, tol) << "nt at " << i << "," << j;
        EXPECT_NEAR(tn.at(i, j), ref, tol) << "tn at " << i << "," << j;
      }
    }
  }
}

TEST(Gemm, SummationOrderIsTheDocumentedOne) {
  // Bitwise: gemm_nn, gemm_tn and matmul add the products one at a time in
  // ascending p; gemm_nt sums eight lanes (p mod 8) over whole blocks of
  // eight, reduces them pairwise, then adds the tail. A scalar float loop
  // cannot be reordered by the compiler, so it pins the order exactly.
  for (const GemmShape& s : kGemmShapes) {
    gt::Rng rng(60 + s.k);
    const gt::Tensor a = gt::Tensor::randn({s.m, s.k}, rng);
    const gt::Tensor b = gt::Tensor::randn({s.k, s.n}, rng);
    const gt::Tensor a_t = gt::transpose(a), b_t = gt::transpose(b);
    const gt::Tensor c0 = gt::Tensor::randn({s.m, s.n}, rng);
    gt::Tensor nn = c0, nt = c0, tn = c0;
    gt::gemm_nn(s.m, s.n, s.k, a.data().data(), b.data().data(),
                nn.data().data());
    gt::gemm_nt(s.m, s.n, s.k, a.data().data(), b_t.data().data(),
                nt.data().data());
    gt::gemm_tn(s.m, s.n, s.k, a_t.data().data(), b.data().data(),
                tn.data().data());
    const gt::Tensor product = gt::matmul(a, b);
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        float sequential = c0.at(i, j), from_zero = 0.0F;
        for (std::size_t p = 0; p < s.k; ++p) {
          sequential += a.at(i, p) * b.at(p, j);
          from_zero += a.at(i, p) * b.at(p, j);
        }
        float lane[8] = {};
        std::size_t p = 0;
        for (; p + 8 <= s.k; p += 8)
          for (std::size_t l = 0; l < 8; ++l)
            lane[l] += a.at(i, p + l) * b.at(p + l, j);
        float dot = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                    ((lane[4] + lane[5]) + (lane[6] + lane[7]));
        for (; p < s.k; ++p) dot += a.at(i, p) * b.at(p, j);
        EXPECT_EQ(nn.at(i, j), sequential);
        EXPECT_EQ(tn.at(i, j), sequential);
        EXPECT_EQ(product.at(i, j), from_zero);
        EXPECT_EQ(nt.at(i, j), c0.at(i, j) + dot);
      }
    }
  }
}

TEST(Tensor, ReshapeInPlaceKeepsStorage) {
  gt::Tensor t({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const float* before = t.data().data();
  t.reshape({3, 2});
  EXPECT_EQ(t.shape(), (gt::Shape{3, 2}));
  EXPECT_EQ(t.data().data(), before);
  EXPECT_THROW(t.reshape({4, 2}), std::invalid_argument);
}

TEST(VecOps, AxpyScaleDot) {
  gt::FlatVector x{1, 2, 3}, y{10, 20, 30};
  gt::axpy(2.0F, x, y);
  EXPECT_EQ(y[2], 36.0F);
  gt::scale(y, 0.5F);
  EXPECT_EQ(y[0], 6.0F);
  EXPECT_DOUBLE_EQ(gt::dot(x, x), 14.0);
}

TEST(VecOps, DistanceAndNorm) {
  gt::FlatVector a{0, 3}, b{4, 0};
  EXPECT_DOUBLE_EQ(gt::squared_distance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(gt::norm(a), 3.0);
}

TEST(VecOps, MeanOfVectors) {
  std::vector<gt::FlatVector> vs = {{1, 2}, {3, 4}, {5, 6}};
  gt::FlatVector m = gt::mean(vs);
  EXPECT_FLOAT_EQ(m[0], 3.0F);
  EXPECT_FLOAT_EQ(m[1], 4.0F);
}

TEST(VecOps, Cosine) {
  gt::FlatVector a{1, 0}, b{0, 1}, c{2, 0};
  EXPECT_NEAR(gt::cosine(a, b), 0.0, 1e-12);
  EXPECT_NEAR(gt::cosine(a, c), 1.0, 1e-12);
  gt::FlatVector zero{0, 0};
  EXPECT_EQ(gt::cosine(a, zero), 0.0);
}

TEST(VecOps, AllFinite) {
  gt::FlatVector ok{1.0F, -2.0F};
  EXPECT_TRUE(gt::all_finite(ok));
  gt::FlatVector bad{1.0F, std::nanf("")};
  EXPECT_FALSE(gt::all_finite(bad));
  gt::FlatVector inf{1.0F, INFINITY};
  EXPECT_FALSE(gt::all_finite(inf));
}

TEST(VecOps, SubtractAndAdd) {
  gt::FlatVector a{5, 7}, b{2, 3}, out(2);
  gt::subtract(a, b, out);
  EXPECT_EQ(out[0], 3.0F);
  gt::add(out, b, out);
  EXPECT_EQ(out[1], 7.0F);
}

TEST(Rng, ForkProducesDecorrelatedStreams) {
  gt::Rng root(1);
  gt::Rng a = root.fork(1);
  gt::Rng b = root.fork(2);
  // Not a statistical test; just check the streams differ.
  bool any_diff = false;
  for (int i = 0; i < 8; ++i) {
    if (a.normal() != b.normal()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, ForkIsDeterministic) {
  gt::Rng r1(9), r2(9);
  gt::Rng a = r1.fork(5);
  gt::Rng b = r2.fork(5);
  EXPECT_EQ(a.normal(), b.normal());
}

TEST(Rng, ForkDependsOnParentSeed) {
  // Regression: fork() once mixed only a constant, so every experiment
  // seed produced identical datasets and models.
  gt::Rng r1(1), r2(2);
  gt::Rng a = r1.fork(7);
  gt::Rng b = r2.fork(7);
  EXPECT_NE(a.normal(), b.normal());
}

TEST(Rng, IndexInRange) {
  gt::Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(rng.index(10), 10u);
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::size_t n = 200000;  // above the inline threshold
  std::vector<int> hits(n, 0);
  gt::parallel_for(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i] += 1;
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), int(n));
}

TEST(ParallelFor, SmallRangeRunsInline) {
  std::vector<int> hits(10, 0);
  gt::parallel_for(10, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i] += 1;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, ZeroIsNoop) {
  gt::parallel_for(0, [](std::size_t, std::size_t) { FAIL(); });
}

#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>

#include <gtest/gtest.h>

#include "seed_kernels.h"

namespace fae {
namespace {

/// Same shape and the same bytes — the contract between the blocked
/// kernels and the reference loops in seed_kernels.h.
bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// Randn entries; with `relu`, negatives become +0 and every seventh entry
/// -0, so about half the operand is zeros of both signs.
Tensor Operand(size_t rows, size_t cols, bool relu, Xoshiro256& rng) {
  Tensor t = Tensor::Randn(rows, cols, 1.0f, rng);
  if (relu) {
    for (size_t i = 0; i < t.numel(); ++i) {
      float& v = t.data()[i];
      v = i % 7 == 0 ? -0.0f : std::max(0.0f, v);
    }
  }
  return t;
}

/// Tile-edge sizes: below, at and past the micro-kernel tiles (4/8 wide,
/// 3x4 for NT) and the 256-deep K panel.
constexpr size_t kEdgeSizes[] = {1, 2, 3, 5, 8, 13, 16, 17, 64, 367};

TEST(OpsTest, MatMulSmallKnown) {
  Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 2u);
  EXPECT_FLOAT_EQ(c(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 154.0f);
}

TEST(OpsTest, MatMulIdentity) {
  Xoshiro256 rng(1);
  Tensor a = Tensor::Randn(4, 4, 1.0f, rng);
  Tensor eye(4, 4);
  for (int i = 0; i < 4; ++i) eye(i, i) = 1.0f;
  EXPECT_LT(MaxAbsDiff(MatMul(a, eye), a), 1e-6f);
  EXPECT_LT(MaxAbsDiff(MatMul(eye, a), a), 1e-6f);
}

TEST(OpsTest, TransposedVariantsAgreeWithExplicitTranspose) {
  Xoshiro256 rng(2);
  Tensor a = Tensor::Randn(5, 3, 1.0f, rng);
  Tensor b = Tensor::Randn(5, 4, 1.0f, rng);
  // a^T * b via MatMulTransA: the same core and k order as MatMul.
  Tensor at(3, 5);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 3; ++j) at(j, i) = a(i, j);
  }
  EXPECT_TRUE(BitEqual(MatMulTransA(a, b), MatMul(at, b)));

  Tensor c = Tensor::Randn(4, 3, 1.0f, rng);
  Tensor d = Tensor::Randn(6, 3, 1.0f, rng);
  Tensor dt(3, 6);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 3; ++j) dt(j, i) = d(i, j);
  }
  // NT keeps Dot's four-lane association, so it only agrees with NN to
  // rounding.
  EXPECT_LT(MaxAbsDiff(MatMulTransB(c, d), MatMul(c, dt)), 1e-5f);
}

TEST(OpsTest, AddBiasRowwise) {
  Tensor x(2, 3, {0, 0, 0, 1, 1, 1});
  Tensor bias(1, 3, {10, 20, 30});
  AddBiasRowwise(x, bias);
  EXPECT_FLOAT_EQ(x(0, 2), 30.0f);
  EXPECT_FLOAT_EQ(x(1, 0), 11.0f);
}

TEST(OpsTest, ColumnSums) {
  Tensor x(3, 2, {1, 10, 2, 20, 3, 30});
  Tensor s = ColumnSums(x);
  EXPECT_FLOAT_EQ(s(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(s(0, 1), 60.0f);
}

TEST(OpsTest, ReluForwardAndBackward) {
  Tensor x(1, 4, {-2, -0.5, 0.5, 2});
  Tensor y = ReluForward(x);
  EXPECT_FLOAT_EQ(y(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y(0, 2), 0.5f);
  Tensor g(1, 4, {1, 1, 1, 1});
  Tensor dx = ReluBackward(g, x);
  EXPECT_FLOAT_EQ(dx(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(dx(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(dx(0, 3), 1.0f);
}

TEST(OpsTest, SigmoidKnownValues) {
  Tensor x(1, 3, {0, 100, -100});
  Tensor y = SigmoidForward(x);
  EXPECT_FLOAT_EQ(y(0, 0), 0.5f);
  EXPECT_NEAR(y(0, 1), 1.0f, 1e-6f);
  EXPECT_NEAR(y(0, 2), 0.0f, 1e-6f);
}

TEST(OpsTest, ConcatAndSplitRoundTrip) {
  Xoshiro256 rng(3);
  Tensor a = Tensor::Randn(3, 2, 1.0f, rng);
  Tensor b = Tensor::Randn(3, 5, 1.0f, rng);
  Tensor c = Tensor::Randn(3, 1, 1.0f, rng);
  Tensor cat = ConcatCols({&a, &b, &c});
  EXPECT_EQ(cat.cols(), 8u);
  auto parts = SplitCols(cat, {2, 5, 1});
  EXPECT_LT(MaxAbsDiff(parts[0], a), 1e-7f);
  EXPECT_LT(MaxAbsDiff(parts[1], b), 1e-7f);
  EXPECT_LT(MaxAbsDiff(parts[2], c), 1e-7f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Xoshiro256 rng(4);
  Tensor x = Tensor::Randn(5, 7, 3.0f, rng);
  Tensor y = SoftmaxRows(x);
  for (size_t r = 0; r < y.rows(); ++r) {
    double sum = 0;
    for (size_t c = 0; c < y.cols(); ++c) {
      EXPECT_GT(y(r, c), 0.0f);
      sum += y(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(OpsTest, SoftmaxStableForLargeInputs) {
  Tensor x(1, 3, {1000, 1001, 1002});
  Tensor y = SoftmaxRows(x);
  EXPECT_FALSE(std::isnan(y(0, 0)));
  EXPECT_GT(y(0, 2), y(0, 0));
}

TEST(OpsTest, PairwiseDotKnownValues) {
  // Two features of dim 2, batch 1: dot(f0, f1).
  Tensor f0(1, 2, {1, 2});
  Tensor f1(1, 2, {3, 4});
  Tensor out = PairwiseDotInteraction({&f0, &f1});
  EXPECT_EQ(out.cols(), 1u);
  EXPECT_FLOAT_EQ(out(0, 0), 11.0f);
}

TEST(OpsTest, PairwiseDotCountsPairs) {
  Xoshiro256 rng(5);
  std::vector<Tensor> feats;
  std::vector<const Tensor*> ptrs;
  for (int i = 0; i < 5; ++i) feats.push_back(Tensor::Randn(3, 4, 1.0f, rng));
  for (auto& f : feats) ptrs.push_back(&f);
  Tensor out = PairwiseDotInteraction(ptrs);
  EXPECT_EQ(out.cols(), 10u);  // C(5,2)
  EXPECT_EQ(out.rows(), 3u);
}

TEST(OpsTest, PairwiseDotBackwardMatchesNumericalGradient) {
  Xoshiro256 rng(6);
  std::vector<Tensor> feats;
  for (int i = 0; i < 3; ++i) feats.push_back(Tensor::Randn(2, 4, 1.0f, rng));
  std::vector<const Tensor*> ptrs;
  for (auto& f : feats) ptrs.push_back(&f);
  Tensor grad_out = Tensor::Randn(2, 3, 1.0f, rng);

  auto loss = [&]() {
    Tensor out = PairwiseDotInteraction(ptrs);
    double l = 0;
    for (size_t i = 0; i < out.numel(); ++i) {
      l += out.data()[i] * grad_out.data()[i];
    }
    return l;
  };

  std::vector<Tensor> analytic =
      PairwiseDotInteractionBackward(grad_out, ptrs);
  const float eps = 1e-3f;
  for (size_t f = 0; f < feats.size(); ++f) {
    for (size_t i = 0; i < feats[f].numel(); ++i) {
      const float orig = feats[f].data()[i];
      feats[f].data()[i] = orig + eps;
      const double lp = loss();
      feats[f].data()[i] = orig - eps;
      const double lm = loss();
      feats[f].data()[i] = orig;
      const double numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR(analytic[f].data()[i], numeric, 2e-2)
          << "feature " << f << " elem " << i;
    }
  }
}

TEST(OpsTest, GemmBitExactAcrossTileEdges) {
  Xoshiro256 rng(7);
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  for (size_t m : kEdgeSizes) {
    for (size_t n : kEdgeSizes) {
      for (size_t k : kEdgeSizes) {
        if (m * n * k > (1u << 18)) continue;
        const bool relu = (m + n + k) % 2 == 0;
        const Tensor a = Operand(m, k, relu, rng);
        const Tensor b = Tensor::Randn(k, n, 1.0f, rng);
        const Tensor at = Operand(k, m, relu, rng);
        const Tensor bt = Tensor::Randn(n, k, 1.0f, rng);
        Tensor nn, tn, nt;
        seed::MatMulInto(nn, a, b);
        seed::MatMulTransAInto(tn, at, b);
        seed::MatMulTransBInto(nt, a, bt);
        for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool1,
                                 &pool4}) {
          EXPECT_TRUE(BitEqual(MatMul(a, b, pool), nn))
              << "NN " << m << "x" << k << "x" << n;
          EXPECT_TRUE(BitEqual(MatMulTransA(at, b, pool), tn))
              << "TN " << m << "x" << k << "x" << n;
          EXPECT_TRUE(BitEqual(MatMulTransB(a, bt, pool), nt))
              << "NT " << m << "x" << k << "x" << n;
        }
      }
    }
  }
}

TEST(OpsTest, GemmBitExactOnLargeShapesAndRowOffsetViews) {
  Xoshiro256 rng(8);
  ThreadPool pool4(4);
  // Kaggle-like layers: the top MLP's 367-wide input, the 13-wide bottom
  // input, the n = 1 logit layer, and a K deep enough for several panels.
  for (auto [m, k, n] : {std::tuple<size_t, size_t, size_t>{515, 367, 64},
                         {300, 13, 64},
                         {261, 64, 1},
                         {37, 1100, 19}}) {
    for (bool relu : {false, true}) {
      // Views start three rows into their buffers, like a batch's rows of
      // a flat dataset.
      const Tensor a_buf = Operand(m + 5, k, relu, rng);
      const MatView a(a_buf.row(3), m, k);
      const Tensor b = Tensor::Randn(k, n, 1.0f, rng);
      const Tensor at_buf = Operand(k + 5, m, relu, rng);
      const MatView at(at_buf.row(3), k, m);
      const Tensor a_own = Operand(m, k, relu, rng);
      const Tensor bt = Tensor::Randn(n, k, 1.0f, rng);
      Tensor nn, tn, nt;
      seed::MatMulInto(nn, a, b);
      seed::MatMulTransAInto(tn, at, b);
      seed::MatMulTransBInto(nt, a_own, bt);
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool4}) {
        Tensor c;
        MatMulInto(c, a, b, pool);
        EXPECT_TRUE(BitEqual(c, nn)) << "NN " << m << "x" << k << "x" << n;
        MatMulTransAInto(c, at, b, pool);
        EXPECT_TRUE(BitEqual(c, tn)) << "TN " << m << "x" << k << "x" << n;
        MatMulTransBInto(c, a_own, bt, pool);
        EXPECT_TRUE(BitEqual(c, nt)) << "NT " << m << "x" << k << "x" << n;
      }
    }
  }
}

TEST(OpsTest, InteractionBitExactAgainstReferenceLoops) {
  Xoshiro256 rng(9);
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  Tensor inter;
  std::vector<Tensor> grads;
  Tensor scratch;  // reused across shapes, as a model workspace is
  for (size_t f : {2, 3, 5, 8, 13, 27}) {
    for (size_t d : {1, 3, 4, 8, 13, 16, 17, 64}) {
      for (size_t rows : {1, 7, 130}) {
        std::vector<Tensor> feats;
        for (size_t i = 0; i < f; ++i) {
          feats.push_back(Operand(rows, d, i % 2 == 1, rng));
        }
        std::vector<const Tensor*> ptrs;
        for (const Tensor& t : feats) ptrs.push_back(&t);
        const Tensor grad_out =
            Operand(rows, f * (f - 1) / 2, (f + d) % 2 == 0, rng);
        Tensor fwd;
        seed::PairwiseDotInteractionInto(fwd, ptrs);
        std::vector<Tensor> bwd(f);
        seed::PairwiseDotInteractionBackwardInto(bwd, grad_out, ptrs);
        for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool1,
                                 &pool4}) {
          PairwiseDotInteractionInto(inter, ptrs, pool);
          EXPECT_TRUE(BitEqual(inter, fwd))
              << "forward f=" << f << " d=" << d << " rows=" << rows;
          grads.assign(f, Tensor());
          PairwiseDotInteractionBackwardInto(grads, grad_out, ptrs, scratch,
                                             pool);
          for (size_t i = 0; i < f; ++i) {
            EXPECT_TRUE(BitEqual(grads[i], bwd[i]))
                << "backward f=" << f << " d=" << d << " rows=" << rows
                << " feature " << i;
          }
        }
      }
    }
  }
}

TEST(OpsDeathTest, MatMulShapeMismatchAborts) {
  Tensor a(2, 3);
  Tensor b(4, 2);
  EXPECT_DEATH(MatMul(a, b), "Check failed");
}

}  // namespace
}  // namespace fae

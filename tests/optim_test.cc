// Tests for optim: Adam, gradient clipping.
#include <cmath>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "optim/adam.h"
#include "optim/clip.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace optim {
namespace {

/// Quadratic loss 0.5 * ||w - target||^2 for optimizer convergence checks.
ag::Variable Quadratic(const ag::Variable& w, const Tensor& target) {
  ag::Variable diff = ag::Sub(w, ag::Variable::Constant(target));
  return ag::MulScalar(ag::Sum(ag::Mul(diff, diff)), 0.5f);
}

TEST(AdamTest, FirstStepSizeIsLr) {
  // With bias correction, Adam's very first update is ~lr * sign(grad).
  ag::Variable w = ag::Variable::Param(Tensor::FromVector({1.0f}));
  Adam adam({w}, {.lr = 0.1f});
  adam.ZeroGrad();
  ag::Sum(w).Backward();  // grad = 1
  adam.Step();
  EXPECT_NEAR(w.value().at(0), 0.9f, 1e-3f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  ag::Variable w = ag::Variable::Param(Tensor::FromVector({4.0f, -4.0f}));
  Tensor target = Tensor::FromVector({-1.0f, 0.5f});
  Adam adam({w}, {.lr = 0.2f});
  for (int step = 0; step < 200; ++step) {
    adam.ZeroGrad();
    Quadratic(w, target).Backward();
    adam.Step();
  }
  EXPECT_TRUE(w.value().AllClose(target, 1e-2f));
}

TEST(AdamTest, SkipsFrozenParameters) {
  ag::Variable w = ag::Variable::Param(Tensor::FromVector({1.0f}));
  ag::Variable frozen = ag::Variable::Param(Tensor::FromVector({1.0f}));
  frozen.set_requires_grad(false);
  Adam adam({w, frozen}, {.lr = 0.1f});
  adam.ZeroGrad();
  ag::Sum(ag::Add(w, frozen)).Backward();
  adam.Step();
  EXPECT_NE(w.value().at(0), 1.0f);
  EXPECT_EQ(frozen.value().at(0), 1.0f);
}

TEST(AdamDeathTest, MissingGradAborts) {
  // A requires-grad parameter that never received a gradient means a broken
  // graph or a dropped data-parallel shard — silently skipping it hid such
  // bugs, so Step() now aborts by default.
  ag::Variable used = ag::Variable::Param(Tensor::FromVector({1.0f}));
  ag::Variable unused = ag::Variable::Param(Tensor::FromVector({1.0f}));
  Adam adam({used, unused}, {.lr = 0.1f});
  ag::Sum(used).Backward();
  EXPECT_DEATH(adam.Step(), "no accumulated");
}

TEST(ClipTest, NormUnchangedBelowThreshold) {
  ag::Variable w = ag::Variable::Param(Tensor::FromVector({1.0f}));
  w.ZeroGrad();
  ag::Sum(w).Backward();  // grad norm 1
  float norm = ClipGradNorm({w}, 10.0f);
  EXPECT_NEAR(norm, 1.0f, 1e-6f);
  EXPECT_NEAR(w.grad().at(0), 1.0f, 1e-6f);
}

TEST(ClipTest, ScalesDownAboveThreshold) {
  ag::Variable w = ag::Variable::Param(Tensor::FromVector({3.0f, 4.0f}));
  w.ZeroGrad();
  ag::Variable loss = ag::Sum(ag::Mul(w, w));  // grad = 2w = (6, 8), norm 10
  loss.Backward();
  float norm = ClipGradNorm({w}, 5.0f);
  EXPECT_NEAR(norm, 10.0f, 1e-4f);
  EXPECT_NEAR(Norm2(w.grad()), 5.0f, 1e-3f);
  // Direction preserved.
  EXPECT_NEAR(w.grad().at(0) / w.grad().at(1), 6.0f / 8.0f, 1e-4f);
}

TEST(ClipTest, GlobalNormAcrossParameters) {
  ag::Variable a = ag::Variable::Param(Tensor::FromVector({3.0f}));
  ag::Variable b = ag::Variable::Param(Tensor::FromVector({4.0f}));
  a.ZeroGrad();
  b.ZeroGrad();
  ag::Sum(ag::Mul(a, a)).Backward();  // grad a = 6
  ag::Sum(ag::Mul(b, b)).Backward();  // grad b = 8
  float norm = ClipGradNorm({a, b}, 1.0f);
  EXPECT_NEAR(norm, 10.0f, 1e-4f);
  float combined = std::sqrt(a.grad().at(0) * a.grad().at(0) +
                             b.grad().at(0) * b.grad().at(0));
  EXPECT_NEAR(combined, 1.0f, 1e-3f);
}

}  // namespace
}  // namespace optim
}  // namespace dar

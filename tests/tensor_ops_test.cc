// Tests for tensor/tensor_ops.h kernels.
#include "tensor/tensor_ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/fastmath.h"
#include "tensor/gemm.h"
#include "tensor/random.h"

namespace dar {
namespace {

Tensor T2(std::vector<float> v, int64_t rows, int64_t cols) {
  return Tensor(Shape{rows, cols}, std::move(v));
}

TEST(ElementwiseTest, AddSubMulDiv) {
  Tensor a = Tensor::FromVector({1.0f, 2.0f, 3.0f});
  Tensor b = Tensor::FromVector({4.0f, 5.0f, 6.0f});
  EXPECT_TRUE(Add(a, b).AllClose(Tensor::FromVector({5.0f, 7.0f, 9.0f})));
  EXPECT_TRUE(Sub(a, b).AllClose(Tensor::FromVector({-3.0f, -3.0f, -3.0f})));
  EXPECT_TRUE(Mul(a, b).AllClose(Tensor::FromVector({4.0f, 10.0f, 18.0f})));
  EXPECT_TRUE(Div(b, a).AllClose(Tensor::FromVector({4.0f, 2.5f, 2.0f})));
}

TEST(ElementwiseTest, ShapeMismatchAborts) {
  Tensor a(Shape{2});
  Tensor b(Shape{3});
  EXPECT_DEATH(Add(a, b), "equal shapes");
}

TEST(ElementwiseTest, InPlaceOps) {
  Tensor a = Tensor::FromVector({1.0f, 2.0f});
  Tensor b = Tensor::FromVector({10.0f, 20.0f});
  AddInPlace(a, b);
  EXPECT_TRUE(a.AllClose(Tensor::FromVector({11.0f, 22.0f})));
  AxpyInPlace(a, b, 0.5f);
  EXPECT_TRUE(a.AllClose(Tensor::FromVector({16.0f, 32.0f})));
  ScaleInPlace(a, 0.25f);
  EXPECT_TRUE(a.AllClose(Tensor::FromVector({4.0f, 8.0f})));
}

TEST(ElementwiseTest, ScalarOps) {
  Tensor a = Tensor::FromVector({1.0f, -2.0f});
  EXPECT_TRUE(AddScalar(a, 1.0f).AllClose(Tensor::FromVector({2.0f, -1.0f})));
  EXPECT_TRUE(MulScalar(a, -2.0f).AllClose(Tensor::FromVector({-2.0f, 4.0f})));
  EXPECT_TRUE(Neg(a).AllClose(Tensor::FromVector({-1.0f, 2.0f})));
  EXPECT_TRUE(Abs(a).AllClose(Tensor::FromVector({1.0f, 2.0f})));
}

TEST(UnaryTest, MathFunctions) {
  Tensor a = Tensor::FromVector({0.0f, 1.0f});
  EXPECT_NEAR(Exp(a).at(1), std::exp(1.0f), 1e-5f);
  EXPECT_NEAR(Log(Tensor::FromVector({std::exp(2.0f)})).at(0), 2.0f, 1e-4f);
  EXPECT_NEAR(Tanh(a).at(1), std::tanh(1.0f), 1e-5f);
  EXPECT_NEAR(Sigmoid(Tensor::FromVector({0.0f})).at(0), 0.5f, 1e-6f);
  EXPECT_TRUE(Relu(Tensor::FromVector({-1.0f, 2.0f}))
                  .AllClose(Tensor::FromVector({0.0f, 2.0f})));
  EXPECT_NEAR(Sqrt(Tensor::FromVector({9.0f})).at(0), 3.0f, 1e-5f);
}

TEST(UnaryTest, LogClampsNearZero) {
  Tensor out = Log(Tensor::FromVector({0.0f}));
  EXPECT_TRUE(std::isfinite(out.at(0)));
}

TEST(MatMulTest, KnownProduct) {
  Tensor a = T2({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor b = T2({7, 8, 9, 10, 11, 12}, 3, 2);
  Tensor c = MatMul(a, b);
  EXPECT_TRUE(c.AllClose(T2({58, 64, 139, 154}, 2, 2)));
}

TEST(MatMulTest, IdentityIsNoop) {
  Pcg32 rng(3);
  Tensor a = Tensor::Randn({4, 4}, rng);
  EXPECT_TRUE(MatMul(a, Tensor::Eye(4)).AllClose(a, 1e-5f));
  EXPECT_TRUE(MatMul(Tensor::Eye(4), a).AllClose(a, 1e-5f));
}

TEST(MatMulTest, TransposedVariantsAgree) {
  Pcg32 rng(4);
  Tensor a = Tensor::Randn({5, 3}, rng);
  Tensor b = Tensor::Randn({5, 4}, rng);
  // A^T B  ==  transpose(A) * B
  EXPECT_TRUE(MatMulTA(a, b).AllClose(MatMul(Transpose(a), b), 1e-4f));
  Tensor c = Tensor::Randn({6, 3}, rng);
  Tensor d = Tensor::Randn({4, 3}, rng);
  // C D^T  ==  C * transpose(D)
  EXPECT_TRUE(MatMulTB(c, d).AllClose(MatMul(c, Transpose(d)), 1e-4f));
}

TEST(MatMulTest, InnerDimMismatchAborts) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{4, 2});
  EXPECT_DEATH(MatMul(a, b), "DAR_CHECK");
}

/// Parameterized sweep: matmul against a naive reference over shapes.
class MatMulSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulSweep, MatchesNaive) {
  auto [m, k, n] = GetParam();
  Pcg32 rng(static_cast<uint64_t>(m * 100 + k * 10 + n));
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  Tensor c = MatMul(a, b);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += a.at(i, kk) * b.at(kk, j);
      EXPECT_NEAR(c.at(i, j), acc, 1e-3f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulSweep,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 7, 3},
                      std::tuple{5, 1, 5}, std::tuple{8, 8, 8},
                      std::tuple{3, 17, 5}, std::tuple{16, 2, 9}));

TEST(BroadcastTest, AddRowBroadcastInPlace) {
  Tensor m = T2({1, 2, 3, 4}, 2, 2);
  AddRowBroadcastInPlace(m, Tensor::FromVector({10.0f, 20.0f}));
  EXPECT_TRUE(m.AllClose(T2({11, 22, 13, 24}, 2, 2)));
}

TEST(BroadcastTest, SumRows) {
  Tensor m = T2({1, 2, 3, 4}, 2, 2);
  EXPECT_TRUE(SumRows(m).AllClose(Tensor::FromVector({4.0f, 6.0f})));
}

// ---- The rows rule (tensor_ops.h) -------------------------------------------
//
// An op reading a [B, T, F] operand as rows must give the bytes of the
// rank-2 call on the same buffer as [B·T, F], whichever GEMM path the shape
// takes and at any kernel thread count.

struct RowsShape {
  int64_t b, t, f, n;  // operand [b, t, f], product width n
};

bool SameBytes(const Tensor& got, const Tensor& want) {
  return got.numel() == want.numel() &&
         std::memcmp(got.data(), want.data(),
                     static_cast<size_t>(want.numel()) * sizeof(float)) == 0;
}

class RowsViewTest
    : public ::testing::TestWithParam<std::tuple<RowsShape, int>> {
 protected:
  void SetUp() override { gemm::SetKernelThreads(std::get<1>(GetParam())); }
  void TearDown() override { gemm::SetKernelThreads(1); }
};

TEST_P(RowsViewTest, Rank3MatchesRank2OverTheSameRows) {
  const RowsShape s = std::get<0>(GetParam());
  Pcg32 rng(static_cast<uint64_t>(s.b * 1000 + s.t * 10 + s.f));
  const Tensor x = Tensor::Randn({s.b, s.t, s.f}, rng);
  const Tensor g = Tensor::Randn({s.b, s.t, s.n}, rng);
  const Tensor w = Tensor::Randn({s.f, s.n}, rng);
  const Tensor wt = Tensor::Randn({s.n, s.f}, rng);
  const Tensor bias = Tensor::Randn({s.n}, rng);
  const Tensor x2 = x.Reshape({s.b * s.t, s.f});
  const Tensor g2 = g.Reshape({s.b * s.t, s.n});

  Tensor mm = MatMul(x, w);
  Tensor mm2 = MatMul(x2, w);
  EXPECT_EQ(mm.shape(), (Shape{s.b, s.t, s.n}));
  EXPECT_TRUE(SameBytes(mm, mm2));

  AddRowBroadcastInPlace(mm, bias);
  AddRowBroadcastInPlace(mm2, bias);
  EXPECT_EQ(mm.shape(), (Shape{s.b, s.t, s.n}));
  EXPECT_TRUE(SameBytes(mm, mm2));

  const Tensor tb = MatMulTB(x, wt);
  EXPECT_EQ(tb.shape(), (Shape{s.b, s.t, s.n}));
  EXPECT_TRUE(SameBytes(tb, MatMulTB(x2, wt)));

  const Tensor ta = MatMulTA(x, g);
  EXPECT_EQ(ta.shape(), (Shape{s.f, s.n}));
  EXPECT_TRUE(SameBytes(ta, MatMulTA(x2, g2)));

  const Tensor sum = SumRows(g);
  EXPECT_EQ(sum.shape(), (Shape{s.n}));
  EXPECT_TRUE(SameBytes(sum, SumRows(g2)));

  const Tensor cat = ConcatCols(x, g);
  EXPECT_EQ(cat.shape(), (Shape{s.b, s.t, s.f + s.n}));
  EXPECT_TRUE(SameBytes(cat, ConcatCols(x2, g2)));
}

// The second shape is a GRU input projection at batch 64 ([64, 44, 32] x
// [32, 72]), large enough for the packed GEMM path.
INSTANTIATE_TEST_SUITE_P(
    Shapes, RowsViewTest,
    ::testing::Combine(::testing::Values(RowsShape{2, 3, 4, 5},
                                         RowsShape{64, 44, 32, 72}),
                       ::testing::Values(1, 4)));

TEST(RowsViewDeathTest, MismatchedLeadingDimsAbort) {
  const Tensor a(Shape{2, 3, 4});
  const Tensor same_rows(Shape{3, 2, 5});  // 6 rows too, other leading dims
  const Tensor other_rows(Shape{2, 4, 5});
  const Tensor flat_rows(Shape{6, 5});     // 6 rows at rank 2
  EXPECT_DEATH(ConcatCols(a, same_rows), "DAR_CHECK");
  EXPECT_DEATH(ConcatCols(a, other_rows), "DAR_CHECK");
  EXPECT_DEATH(ConcatCols(a, flat_rows), "DAR_CHECK");
  EXPECT_DEATH(MatMulTA(a, same_rows), "DAR_CHECK");
  EXPECT_DEATH(MatMulTA(a, other_rows), "DAR_CHECK");
  EXPECT_DEATH(MatMulTA(a, flat_rows), "DAR_CHECK");
}

TEST(RowsViewDeathTest, FeatureDimsAreStillChecked) {
  const Tensor a(Shape{2, 3, 4});
  EXPECT_DEATH(MatMul(a, Tensor(Shape{5, 2})), "DAR_CHECK");
  EXPECT_DEATH(MatMulTB(a, Tensor(Shape{2, 5})), "DAR_CHECK");
  EXPECT_DEATH(MatMul(Tensor(Shape{4}), Tensor(Shape{4, 2})), "DAR_CHECK");
  Tensor rows(Shape{2, 3, 4});
  EXPECT_DEATH(AddRowBroadcastInPlace(rows, Tensor(Shape{3})), "DAR_CHECK");
}

TEST(ReduceTest, Aggregates) {
  Tensor a = Tensor::FromVector({1.0f, -2.0f, 3.0f});
  EXPECT_NEAR(SumAll(a), 2.0f, 1e-6f);
  EXPECT_NEAR(MeanAll(a), 2.0f / 3.0f, 1e-6f);
  EXPECT_EQ(MaxAll(a), 3.0f);
  EXPECT_EQ(MinAll(a), -2.0f);
}

TEST(ReduceTest, ArgMaxRows) {
  Tensor m = T2({1, 5, 2, 9, 3, 4}, 2, 3);
  std::vector<int64_t> idx = ArgMaxRows(m);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(SoftmaxTest, RowsSumToOne) {
  Pcg32 rng(5);
  Tensor logits = Tensor::Randn({4, 6}, rng, 3.0f);
  Tensor p = SoftmaxRows(logits);
  for (int64_t i = 0; i < 4; ++i) {
    float sum = 0.0f;
    for (int64_t j = 0; j < 6; ++j) {
      EXPECT_GT(p.at(i, j), 0.0f);
      sum += p.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxTest, StableUnderLargeLogits) {
  Tensor logits = T2({1000.0f, 999.0f}, 1, 2);
  Tensor p = SoftmaxRows(logits);
  EXPECT_TRUE(std::isfinite(p.at(0, 0)));
  EXPECT_GT(p.at(0, 0), p.at(0, 1));
}

TEST(SoftmaxTest, LogSoftmaxMatchesLogOfSoftmax) {
  Pcg32 rng(6);
  Tensor logits = Tensor::Randn({3, 5}, rng);
  Tensor ls = LogSoftmaxRows(logits);
  Tensor p = SoftmaxRows(logits);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(ls.at(i, j), std::log(p.at(i, j)), 1e-4f);
    }
  }
}

TEST(ShapeOpsTest, Transpose) {
  Tensor m = T2({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor t = Transpose(m);
  EXPECT_EQ(t.size(0), 3);
  EXPECT_EQ(t.at(2, 1), 6.0f);
}

TEST(ShapeOpsTest, ConcatCols) {
  Tensor a = T2({1, 2, 3, 4}, 2, 2);
  Tensor b = T2({5, 6}, 2, 1);
  Tensor c = ConcatCols(a, b);
  EXPECT_EQ(c.size(1), 3);
  EXPECT_EQ(c.at(0, 2), 5.0f);
  EXPECT_EQ(c.at(1, 1), 4.0f);
}

TEST(ShapeOpsTest, SliceAndSetTime) {
  Tensor x(Shape{2, 3, 2});
  Tensor step = T2({1, 2, 3, 4}, 2, 2);
  SetTime(x, 1, step);
  Tensor got = SliceTime(x, 1);
  EXPECT_TRUE(got.AllClose(step));
  EXPECT_EQ(SliceTime(x, 0).at(0, 0), 0.0f);
}

TEST(ShapeOpsTest, Norm2) {
  EXPECT_NEAR(Norm2(Tensor::FromVector({3.0f, 4.0f})), 5.0f, 1e-5f);
}

// ---- fastmath --------------------------------------------------------------

// FastExp as first written, with std::floor and a std::min / std::max clamp
// (a loop calling it stays scalar). tensor/fastmath.h rewrote the clamp and
// the floor so loops vectorize; every result bit must stay the same.
float ClampFloorExp(float x) {
  x = std::min(88.0f, std::max(-87.0f, x));
  float z = std::floor(x * 1.44269504089f + 0.5f);  // round(x / ln 2)
  x -= z * 0.693359375f;                            // ln 2, high part
  x -= z * -2.12194440e-4f;                         // ln 2, low part
  float y = 1.9875691500e-4f;
  y = y * x + 1.3981999507e-3f;
  y = y * x + 8.3334519073e-3f;
  y = y * x + 4.1665795894e-2f;
  y = y * x + 1.6666665459e-1f;
  y = y * x + 5.0000001201e-1f;
  y = y * x * x + x + 1.0f;
  uint32_t bits = static_cast<uint32_t>(static_cast<int32_t>(z) + 127) << 23;
  float pow2;
  std::memcpy(&pow2, &bits, sizeof(pow2));
  return y * pow2;
}

float ClampFloorSigmoid(float x) { return 1.0f / (1.0f + ClampFloorExp(-x)); }

float ClampFloorTanh(float x) {
  return 2.0f / (1.0f + ClampFloorExp(-2.0f * x)) - 1.0f;
}

/// Number of positions where `got` and `want` differ in any bit.
int64_t BitDifferences(const float* got, const std::vector<float>& want) {
  if (std::memcmp(got, want.data(), want.size() * sizeof(float)) == 0) {
    return 0;
  }
  int64_t diffs = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    diffs += std::memcmp(&got[i], &want[i], sizeof(float)) != 0;
  }
  return diffs;
}

/// Holds FastExp, FastSigmoid, FastTanh and the tensor Sigmoid / Tanh
/// kernels (vector loops in tensor_ops.cc) to the clamp-floor formula on xs.
void ExpectFastMathMatches(const std::vector<float>& xs) {
  const Tensor in(Shape{static_cast<int64_t>(xs.size())}, xs);
  std::vector<float> want(xs.size()), got(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) want[i] = ClampFloorExp(xs[i]);
  for (size_t i = 0; i < xs.size(); ++i) got[i] = fastmath::FastExp(xs[i]);
  EXPECT_EQ(BitDifferences(got.data(), want), 0) << "FastExp";
  for (size_t i = 0; i < xs.size(); ++i) want[i] = ClampFloorSigmoid(xs[i]);
  for (size_t i = 0; i < xs.size(); ++i) got[i] = fastmath::FastSigmoid(xs[i]);
  EXPECT_EQ(BitDifferences(got.data(), want), 0) << "FastSigmoid";
  EXPECT_EQ(BitDifferences(Sigmoid(in).data(), want), 0) << "Sigmoid";
  for (size_t i = 0; i < xs.size(); ++i) want[i] = ClampFloorTanh(xs[i]);
  for (size_t i = 0; i < xs.size(); ++i) got[i] = fastmath::FastTanh(xs[i]);
  EXPECT_EQ(BitDifferences(got.data(), want), 0) << "FastTanh";
  EXPECT_EQ(BitDifferences(Tanh(in).data(), want), 0) << "Tanh";
}

/// x and the `ulps` floats on either side of it.
void AddNeighbours(float x, int ulps, std::vector<float>& xs) {
  const float inf = std::numeric_limits<float>::infinity();
  float lo = x, hi = x;
  xs.push_back(x);
  for (int u = 0; u < ulps; ++u) {
    lo = std::nextafter(lo, -inf);
    hi = std::nextafter(hi, inf);
    xs.push_back(lo);
    xs.push_back(hi);
  }
}

TEST(FastMathTest, EvenlySpacedBitPatternsMatchClampFloorFormula) {
  // 2^24 patterns, every 256th of the 2^32 floats, in chunks of 2^14.
  constexpr uint32_t kChunk = 1u << 14;
  std::vector<float> xs(kChunk);
  for (uint32_t base = 0; base < (1u << 24); base += kChunk) {
    for (uint32_t i = 0; i < kChunk; ++i) {
      xs[i] = std::bit_cast<float>((base + i) << 8);
    }
    ExpectFastMathMatches(xs);
    if (HasFailure()) FAIL() << "first failing chunk at pattern " << base;
  }
}

TEST(FastMathTest, EdgeInputsMatchClampFloorFormula) {
  using limits = std::numeric_limits<float>;
  std::vector<float> xs = {0.0f,
                           -0.0f,
                           limits::infinity(),
                           -limits::infinity(),
                           limits::quiet_NaN(),
                           limits::denorm_min(),
                           -limits::denorm_min(),
                           2 * limits::denorm_min(),
                           -2 * limits::denorm_min(),
                           limits::min(),
                           -limits::min()};
  // The clamp bounds and their neighbours.
  for (float edge : {87.0f, -87.0f, 88.0f, -88.0f}) AddNeighbours(edge, 4, xs);
  // Where floor(x / ln 2 + 1/2) steps from k - 1 to k.
  for (int k = -126; k <= 127; ++k) {
    AddNeighbours(static_cast<float>((k - 0.5) * 0.6931471805599453), 4, xs);
  }
  ExpectFastMathMatches(xs);
}

}  // namespace
}  // namespace dar

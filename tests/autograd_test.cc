// Tests for the autograd engine (variable.h + ops.h): graph mechanics,
// known analytic gradients, gradient-flow control.
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "nn/gru.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace ag {
namespace {

TEST(VariableTest, LeafBasics) {
  Variable v = Variable::Param(Tensor::FromVector({1.0f, 2.0f}));
  EXPECT_TRUE(v.defined());
  EXPECT_TRUE(v.requires_grad());
  EXPECT_FALSE(v.has_grad());
  EXPECT_EQ(v.numel(), 2);
}

TEST(VariableTest, MovedFirstGradientMatchesTheCopyingPath) {
  // A node's first gradient taken over by move must hold the bits the
  // copying path gives (0 + g over a fresh zero buffer: -0 becomes +0, a
  // NaN and denormals pass through), count one visit, and reuse g's buffer.
  const float kDenorm = std::numeric_limits<float>::denorm_min();
  const Tensor g = Tensor::FromVector(
      {-0.0f, 0.0f, std::numeric_limits<float>::quiet_NaN(), kDenorm,
       -kDenorm, -2.5f});
  Node copied;
  Node moved;
  copied.value = moved.value = Tensor(g.shape());
  copied.AccumulateGrad(g);
  Tensor handed = g;
  const float* buffer = handed.data();
  moved.AccumulateGrad(std::move(handed));
  EXPECT_EQ(moved.grad.data(), buffer);
  EXPECT_EQ(moved.grad_visits, 1);
  EXPECT_EQ(copied.grad_visits, 1);
  EXPECT_FALSE(std::signbit(moved.grad.flat(0)));
  auto same_bits = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
  };
  EXPECT_TRUE(same_bits(moved.grad, copied.grad));
  // A later gradient is added into the held buffer on both paths.
  copied.AccumulateGrad(g);
  moved.AccumulateGrad(Tensor(g));
  EXPECT_EQ(moved.grad.data(), buffer);
  EXPECT_EQ(moved.grad_visits, 2);
  EXPECT_TRUE(same_bits(moved.grad, copied.grad));
}

TEST(VariableTest, ConstantDoesNotRequireGrad) {
  Variable c = Variable::Constant(Tensor::FromVector({1.0f}));
  EXPECT_FALSE(c.requires_grad());
}

TEST(VariableTest, BackwardThroughAdd) {
  Variable a = Variable::Param(Tensor::FromVector({1.0f, 2.0f}));
  Variable b = Variable::Param(Tensor::FromVector({3.0f, 4.0f}));
  Variable loss = Sum(Add(a, b));
  loss.Backward();
  EXPECT_TRUE(a.grad().AllClose(Tensor::FromVector({1.0f, 1.0f})));
  EXPECT_TRUE(b.grad().AllClose(Tensor::FromVector({1.0f, 1.0f})));
}

TEST(VariableTest, BackwardThroughMulUsesOtherOperand) {
  Variable a = Variable::Param(Tensor::FromVector({2.0f}));
  Variable b = Variable::Param(Tensor::FromVector({5.0f}));
  Sum(Mul(a, b)).Backward();
  EXPECT_EQ(a.grad().at(0), 5.0f);
  EXPECT_EQ(b.grad().at(0), 2.0f);
}

TEST(VariableTest, GradientsAccumulateAcrossBackwards) {
  Variable a = Variable::Param(Tensor::FromVector({1.0f}));
  Sum(MulScalar(a, 3.0f)).Backward();
  EXPECT_EQ(a.grad().at(0), 3.0f);
  Sum(MulScalar(a, 3.0f)).Backward();
  EXPECT_EQ(a.grad().at(0), 6.0f);
  a.ZeroGrad();
  EXPECT_EQ(a.grad().at(0), 0.0f);
}

TEST(VariableTest, DiamondGraphAccumulates) {
  // loss = sum(a*a) -> d/da = 2a.
  Variable a = Variable::Param(Tensor::FromVector({3.0f}));
  Sum(Mul(a, a)).Backward();
  EXPECT_EQ(a.grad().at(0), 6.0f);
}

TEST(VariableTest, ReusedSubexpression) {
  // b = 2a; loss = sum(b + b) = 4a -> grad 4.
  Variable a = Variable::Param(Tensor::FromVector({1.0f}));
  Variable b = MulScalar(a, 2.0f);
  Sum(Add(b, b)).Backward();
  EXPECT_EQ(a.grad().at(0), 4.0f);
}

TEST(VariableTest, DetachBlocksGradient) {
  Variable a = Variable::Param(Tensor::FromVector({2.0f}));
  Variable d = MulScalar(a, 3.0f).Detach();
  EXPECT_FALSE(d.requires_grad());
  Variable b = Variable::Param(Tensor::FromVector({1.0f}));
  Sum(Mul(d, b)).Backward();
  EXPECT_FALSE(a.has_grad());
  EXPECT_EQ(b.grad().at(0), 6.0f);
}

TEST(VariableTest, ConstantInputsDropGraph) {
  Variable c1 = Variable::Constant(Tensor::FromVector({1.0f}));
  Variable c2 = Variable::Constant(Tensor::FromVector({2.0f}));
  Variable out = Add(c1, c2);
  EXPECT_FALSE(out.requires_grad());
  EXPECT_TRUE(out.node()->parents.empty());  // graph not retained
}

TEST(VariableTest, BackwardNonScalarNeedsSeed) {
  Variable a = Variable::Param(Tensor::FromVector({1.0f, 2.0f}));
  Variable y = MulScalar(a, 2.0f);
  EXPECT_DEATH(y.Backward(), "scalar");
  y.Backward(Tensor::FromVector({1.0f, 10.0f}));
  EXPECT_TRUE(a.grad().AllClose(Tensor::FromVector({2.0f, 20.0f})));
}

TEST(VariableTest, DeepChainDoesNotOverflowStack) {
  Variable a = Variable::Param(Tensor::FromVector({1.0f}));
  Variable x = a;
  for (int i = 0; i < 20000; ++i) x = AddScalar(x, 0.0f);
  Sum(x).Backward();
  EXPECT_EQ(a.grad().at(0), 1.0f);
}

TEST(OpsTest, DivGradient) {
  Variable a = Variable::Param(Tensor::FromVector({6.0f}));
  Variable b = Variable::Param(Tensor::FromVector({2.0f}));
  Sum(Div(a, b)).Backward();
  EXPECT_NEAR(a.grad().at(0), 0.5f, 1e-6f);          // 1/b
  EXPECT_NEAR(b.grad().at(0), -6.0f / 4.0f, 1e-6f);  // -a/b^2
}

TEST(OpsTest, SigmoidGradientAtZero) {
  Variable a = Variable::Param(Tensor::FromVector({0.0f}));
  Sum(Sigmoid(a)).Backward();
  EXPECT_NEAR(a.grad().at(0), 0.25f, 1e-6f);
}

TEST(OpsTest, TanhGradientAtZero) {
  Variable a = Variable::Param(Tensor::FromVector({0.0f}));
  Sum(Tanh(a)).Backward();
  EXPECT_NEAR(a.grad().at(0), 1.0f, 1e-6f);
}

TEST(OpsTest, ReluGradientGates) {
  Variable a = Variable::Param(Tensor::FromVector({-1.0f, 2.0f}));
  Sum(Relu(a)).Backward();
  EXPECT_EQ(a.grad().at(0), 0.0f);
  EXPECT_EQ(a.grad().at(1), 1.0f);
}

TEST(OpsTest, MatMulForwardAndGrad) {
  Variable a = Variable::Param(Tensor(Shape{1, 2}, {1.0f, 2.0f}));
  Variable b = Variable::Param(Tensor(Shape{2, 1}, {3.0f, 4.0f}));
  Variable out = MatMul(a, b);
  EXPECT_EQ(out.value().at(0, 0), 11.0f);
  Sum(out).Backward();
  EXPECT_TRUE(a.grad().AllClose(Tensor(Shape{1, 2}, {3.0f, 4.0f})));
  EXPECT_TRUE(b.grad().AllClose(Tensor(Shape{2, 1}, {1.0f, 2.0f})));
}

TEST(OpsTest, MatMulNTMatchesExplicitTranspose) {
  Pcg32 rng(20);
  Tensor ta = Tensor::Randn({3, 4}, rng);
  Tensor tb = Tensor::Randn({5, 4}, rng);
  Variable a = Variable::Param(ta);
  Variable b = Variable::Param(tb);
  Tensor expected = MatMul(ta, Transpose(tb));
  EXPECT_TRUE(MatMulNT(a, b).value().AllClose(expected, 1e-4f));
}

TEST(OpsTest, MeanGradient) {
  Variable a = Variable::Param(Tensor::FromVector({1.0f, 2.0f, 3.0f, 4.0f}));
  Mean(a).Backward();
  EXPECT_TRUE(a.grad().AllClose(Tensor::FromVector({0.25f, 0.25f, 0.25f, 0.25f})));
}

TEST(OpsTest, StraightThroughRoundForwardHardBackwardIdentity) {
  Variable a = Variable::Param(Tensor::FromVector({0.3f, 0.7f}));
  Variable h = StraightThroughRound(a);
  EXPECT_EQ(h.value().at(0), 0.0f);
  EXPECT_EQ(h.value().at(1), 1.0f);
  Sum(MulScalar(h, 2.0f)).Backward();
  EXPECT_TRUE(a.grad().AllClose(Tensor::FromVector({2.0f, 2.0f})));
}

TEST(OpsTest, GradientReversalNegatesAndScales) {
  Variable a = Variable::Param(Tensor::FromVector({1.0f}));
  Variable r = GradientReversal(a, 2.0f);
  EXPECT_EQ(r.value().at(0), 1.0f);  // forward identity
  Sum(MulScalar(r, 3.0f)).Backward();
  EXPECT_EQ(a.grad().at(0), -6.0f);
}

TEST(OpsTest, SoftmaxThenPickIsCrossEntropyShape) {
  Variable logits = Variable::Param(Tensor(Shape{2, 3}, {1, 2, 3, 3, 2, 1}));
  Variable logp = LogSoftmaxRowsOp(logits);
  Variable picked = PickColumns(logp, {2, 0});
  EXPECT_EQ(picked.value().size(0), 2);
  Variable loss = Neg(Mean(picked));
  loss.Backward();
  // Gradient rows sum to zero for log-softmax + pick.
  float row0 = logits.grad().at(0, 0) + logits.grad().at(0, 1) +
               logits.grad().at(0, 2);
  EXPECT_NEAR(row0, 0.0f, 1e-5f);
}

TEST(OpsTest, EmbeddingLookupScattersGradients) {
  Variable table = Variable::Param(Tensor(Shape{3, 2}, {0, 0, 1, 1, 2, 2}));
  Variable out = EmbeddingLookup(table, {{1, 1}, {2, 0}});
  EXPECT_EQ(out.value().at(0, 0, 0), 1.0f);
  EXPECT_EQ(out.value().at(1, 0, 1), 2.0f);
  Sum(out).Backward();
  // Token 1 used twice -> grad 2 per component; tokens 0 and 2 once.
  EXPECT_EQ(table.grad().at(1, 0), 2.0f);
  EXPECT_EQ(table.grad().at(0, 0), 1.0f);
  EXPECT_EQ(table.grad().at(2, 1), 1.0f);
}

TEST(OpsTest, ScaleLastDimForward) {
  Variable x = Variable::Param(Tensor(Shape{1, 2, 2}, {1, 2, 3, 4}));
  Variable s = Variable::Param(Tensor(Shape{1, 2}, {2.0f, 0.0f}));
  Variable out = ScaleLastDim(x, s);
  EXPECT_EQ(out.value().at(0, 0, 1), 4.0f);
  EXPECT_EQ(out.value().at(0, 1, 0), 0.0f);
  Sum(out).Backward();
  EXPECT_EQ(s.grad().at(0, 0), 3.0f);  // sum of fiber (1+2)
  EXPECT_EQ(x.grad().at(0, 1, 0), 0.0f);
}

/// Op names of the distinct nodes reachable from `root` through parent
/// edges, each with its node count.
std::map<std::string, int> TapeOps(const Variable& root) {
  std::unordered_set<const Node*> seen{root.node().get()};
  std::vector<const Node*> stack{root.node().get()};
  std::map<std::string, int> ops;
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    ++ops[n->op];
    for (const auto& p : n->parents) {
      if (seen.insert(p.get()).second) stack.push_back(p.get());
    }
  }
  return ops;
}

TEST(OpsTest, BiGruTapeSizeIsIndependentOfSequenceLength) {
  // A BiGRU layer is one `bigru` node however long the sequence: both
  // directions' projections and recurrences live inside
  // nn::BiGruSequence, not on the tape. The tape holds that node, x and
  // the six parameters.
  Pcg32 rng(3);
  nn::BiGru bigru(4, 3, rng);
  auto tape_ops = [&bigru](int64_t t_len) {
    Pcg32 data_rng(4);
    Variable x = Variable::Param(Tensor::Randn({2, t_len, 4}, data_rng));
    Tensor valid(Shape{2, t_len}, 1.0f);
    valid.at(1, t_len - 1) = 0.0f;
    return TapeOps(bigru.Forward(x, &valid));
  };
  std::map<std::string, int> ops = tape_ops(40);
  EXPECT_EQ(tape_ops(1), ops);
  EXPECT_EQ(ops, (std::map<std::string, int>{{"bigru", 1}, {"leaf", 7}}));
}

TEST(OpsTest, TimeDiffForwardAndGrad) {
  Variable x = Variable::Param(Tensor(Shape{1, 3}, {1.0f, 4.0f, 2.0f}));
  Variable d = TimeDiff(x);
  EXPECT_EQ(d.value().at(0, 0), 3.0f);
  EXPECT_EQ(d.value().at(0, 1), -2.0f);
  Sum(d).Backward();
  // Telescoping: grad = [-1, 0, 1].
  EXPECT_TRUE(x.grad().AllClose(Tensor(Shape{1, 3}, {-1.0f, 0.0f, 1.0f})));
}

TEST(OpsTest, SliceConcatRowsColsRoundTrip) {
  Variable x = Variable::Param(Tensor(Shape{2, 4}, {1, 2, 3, 4, 5, 6, 7, 8}));
  Variable left = SliceCols(x, 0, 2);
  Variable right = SliceCols(x, 2, 2);
  EXPECT_TRUE(ConcatCols(left, right).value().AllClose(x.value()));
  Variable top = SliceRows(x, 0, 1);
  Variable bottom = SliceRows(x, 1, 1);
  EXPECT_TRUE(ConcatRows({top, bottom}).value().AllClose(x.value()));
  Sum(ConcatRows({top, bottom})).Backward();
  EXPECT_TRUE(x.grad().AllClose(Tensor(Shape{2, 4}, 1.0f)));
}

TEST(OpsTest, SumTimeAndRowSum) {
  Variable x = Variable::Param(Tensor(Shape{1, 2, 2}, {1, 2, 3, 4}));
  Variable st = SumTime(x);
  EXPECT_EQ(st.value().at(0, 0), 4.0f);
  EXPECT_EQ(st.value().at(0, 1), 6.0f);
  Variable rs = RowSum(Variable::Param(Tensor(Shape{2, 2}, {1, 2, 3, 4})));
  EXPECT_EQ(rs.value().at(0), 3.0f);
  EXPECT_EQ(rs.value().at(1), 7.0f);
}

}  // namespace
}  // namespace ag
}  // namespace dar

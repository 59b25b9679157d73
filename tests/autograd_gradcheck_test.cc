// Numerical gradient checks for every differentiable op: the analytic
// backward of each op is compared against central finite differences via
// ag::CheckGradients.
#include <cmath>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "core/regularizer.h"
#include "core/train_config.h"
#include "nn/attention.h"
#include "nn/gru.h"
#include "nn/gumbel.h"
#include "nn/layer_norm.h"
#include "nn/loss.h"
#include "tensor/random.h"

namespace dar {
namespace ag {
namespace {

/// A named scalar-valued function of leaf tensors plus its input shapes.
struct OpCase {
  std::string name;
  std::vector<Shape> shapes;
  std::function<Variable(const std::vector<Variable>&)> fn;
  /// Some inputs must stay positive (Log, Sqrt, Div denominator).
  bool positive_inputs = false;
};

class OpGradCheck : public ::testing::TestWithParam<OpCase> {};

TEST_P(OpGradCheck, MatchesNumericGradient) {
  const OpCase& c = GetParam();
  Pcg32 rng(static_cast<uint64_t>(std::hash<std::string>{}(c.name)));
  std::vector<Tensor> inputs;
  for (const Shape& s : c.shapes) {
    Tensor t = Tensor::Randn(s, rng, 0.6f);
    if (c.positive_inputs) {
      for (int64_t i = 0; i < t.numel(); ++i) {
        t.flat(i) = 0.3f + std::fabs(t.flat(i));
      }
    }
    inputs.push_back(std::move(t));
  }
  GradCheckResult r = CheckGradients(c.fn, inputs);
  EXPECT_TRUE(r.ok) << c.name << ": max error " << r.max_abs_error << " at "
                    << r.worst_location;
}

std::vector<OpCase> AllOpCases() {
  std::vector<OpCase> cases;
  auto add = [&](std::string name, std::vector<Shape> shapes,
                 std::function<Variable(const std::vector<Variable>&)> fn,
                 bool positive = false) {
    cases.push_back({std::move(name), std::move(shapes), std::move(fn), positive});
  };

  add("add", {{2, 3}, {2, 3}},
      [](const std::vector<Variable>& v) { return Sum(Add(v[0], v[1])); });
  add("sub", {{2, 3}, {2, 3}},
      [](const std::vector<Variable>& v) { return Sum(Sub(v[0], v[1])); });
  add("mul", {{2, 3}, {2, 3}},
      [](const std::vector<Variable>& v) { return Sum(Mul(v[0], v[1])); });
  add("div", {{2, 3}, {2, 3}},
      [](const std::vector<Variable>& v) { return Sum(Div(v[0], v[1])); },
      /*positive=*/true);
  add("neg", {{4}},
      [](const std::vector<Variable>& v) { return Sum(Neg(v[0])); });
  add("add_scalar", {{4}},
      [](const std::vector<Variable>& v) { return Sum(AddScalar(v[0], 2.5f)); });
  add("mul_scalar", {{4}},
      [](const std::vector<Variable>& v) { return Sum(MulScalar(v[0], -1.5f)); });
  // x·w + b as one node, at rank 2 and with x [B, T, k] read as rows.
  for (const Shape& x : {Shape{3, 4}, Shape{2, 3, 4}}) {
    add(x.size() == 2 ? "affine" : "affine_rank3", {x, {4, 2}, {2}},
        [](const std::vector<Variable>& v) {
          Variable y = Affine(v[0], v[1], v[2]);
          return Sum(Mul(y, y));
        });
  }
  add("scale_last_dim", {{2, 3, 4}, {2, 3}}, [](const std::vector<Variable>& v) {
    return Sum(Mul(ScaleLastDim(v[0], v[1]), ScaleLastDim(v[0], v[1])));
  });
  add("matmul", {{3, 4}, {4, 2}},
      [](const std::vector<Variable>& v) {
        Variable y = MatMul(v[0], v[1]);
        return Sum(Mul(y, y));  // nonlinear head exposes both factors
      });
  add("matmul_nt", {{3, 4}, {2, 4}}, [](const std::vector<Variable>& v) {
    Variable y = MatMulNT(v[0], v[1]);
    return Sum(Mul(y, y));
  });
  add("sigmoid", {{2, 3}},
      [](const std::vector<Variable>& v) { return Sum(Sigmoid(v[0])); });
  add("tanh", {{2, 3}},
      [](const std::vector<Variable>& v) { return Sum(Tanh(v[0])); });
  add("exp", {{2, 3}},
      [](const std::vector<Variable>& v) { return Sum(Exp(v[0])); });
  add("log", {{2, 3}},
      [](const std::vector<Variable>& v) { return Sum(Log(v[0])); },
      /*positive=*/true);
  add("sqrt", {{2, 3}},
      [](const std::vector<Variable>& v) { return Sum(Sqrt(v[0])); },
      /*positive=*/true);
  add("mean", {{5}},
      [](const std::vector<Variable>& v) { return Mean(Mul(v[0], v[0])); });
  add("sum_time", {{2, 3, 2}}, [](const std::vector<Variable>& v) {
    Variable y = SumTime(v[0]);
    return Sum(Mul(y, y));
  });
  add("row_sum", {{3, 4}}, [](const std::vector<Variable>& v) {
    Variable y = RowSum(v[0]);
    return Sum(Mul(y, y));
  });
  add("reshape", {{2, 6}}, [](const std::vector<Variable>& v) {
    Variable y = Reshape(v[0], Shape{3, 4});
    return Sum(Mul(y, y));
  });
  add("concat_cols", {{2, 3}, {2, 2}}, [](const std::vector<Variable>& v) {
    Variable y = ConcatCols(v[0], v[1]);
    return Sum(Mul(y, y));
  });
  add("concat_cols_rank3", {{2, 3, 2}, {2, 3, 1}},
      [](const std::vector<Variable>& v) {
        Variable y = ConcatCols(v[0], v[1]);
        return Sum(Mul(y, y));
      });
  add("slice_cols", {{2, 5}}, [](const std::vector<Variable>& v) {
    Variable y = SliceCols(v[0], 1, 3);
    return Sum(Mul(y, y));
  });
  add("slice_rows", {{4, 3}}, [](const std::vector<Variable>& v) {
    Variable y = SliceRows(v[0], 1, 2);
    return Sum(Mul(y, y));
  });
  add("concat_rows", {{2, 3}, {1, 3}}, [](const std::vector<Variable>& v) {
    Variable y = ConcatRows({v[0], v[1]});
    return Sum(Mul(y, y));
  });
  // The fused GRU direction, differentiated with respect to its input
  // projection [B, T, 3H] and W_h [H, 3H], masked and in both directions.
  for (bool reverse : {false, true}) {
    add(reverse ? "gru_sequence_reverse" : "gru_sequence",
        {{2, 4, 9}, {3, 9}}, [reverse](const std::vector<Variable>& v) {
          const Tensor valid(Shape{2, 4}, {1, 1, 1, 1, 1, 1, 0, 0});
          Variable y = nn::GruSequence(v[0], v[1], &valid, reverse);
          return Sum(Mul(y, y));
        });
  }
  // The one-node BiGRU layer, differentiated with respect to x [B, T, E]
  // and both directions' w_x [E, 3H], w_h [H, 3H] and b [3H], masked, on
  // each schedule.
  for (bool paired : {false, true}) {
    add(paired ? "bigru_paired" : "bigru",
        {{2, 4, 3}, {3, 6}, {2, 6}, {6}, {3, 6}, {2, 6}, {6}},
        [paired](const std::vector<Variable>& v) {
          const Tensor valid(Shape{2, 4}, {1, 1, 1, 1, 1, 1, 0, 0});
          Variable y = nn::BiGruSequence(v[0], {v[1], v[2], v[3]},
                                         {v[4], v[5], v[6]}, &valid, paired);
          return Sum(Mul(y, y));
        });
  }
  add("time_diff", {{2, 4}}, [](const std::vector<Variable>& v) {
    Variable y = TimeDiff(v[0]);
    return Sum(Mul(y, y));
  });
  add("softmax_rows", {{3, 4}}, [](const std::vector<Variable>& v) {
    Variable y = SoftmaxRowsOp(v[0]);
    return Sum(Mul(y, y));
  });
  add("log_softmax_rows", {{3, 4}}, [](const std::vector<Variable>& v) {
    Variable y = LogSoftmaxRowsOp(v[0]);
    return Sum(Mul(y, y));
  });
  add("pick_columns", {{3, 4}}, [](const std::vector<Variable>& v) {
    Variable y = PickColumns(v[0], {1, 3, 0});
    return Sum(Mul(y, y));
  });
  add("embedding_lookup", {{4, 3}}, [](const std::vector<Variable>& v) {
    Variable y = EmbeddingLookup(v[0], {{0, 2, 2}, {1, 3, 0}});
    return Sum(Mul(y, y));
  });
  add("abs_smooth_region", {{2, 3}},
      // |x| is non-differentiable at 0; positive inputs keep the check in
      // the smooth region.
      [](const std::vector<Variable>& v) { return Sum(Abs(v[0])); },
      /*positive=*/true);
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpGradCheck,
                         ::testing::ValuesIn(AllOpCases()),
                         [](const ::testing::TestParamInfo<OpCase>& info) {
                           return info.param.name;
                         });

// ---- Rationalization building blocks ---------------------------------------
//
// The composite functions the training losses are built from: the
// Gumbel-softmax mask surrogate, cross-entropy behind a constant input
// mask, and the sparsity/coherence regularizer terms (eq. 3). These are
// exactly the gradients the data-parallel trainer shards and reduces.

/// A [3, 5] validity mask with a padded tail (rows of different lengths).
Tensor TestValidMask() {
  Tensor valid(Shape{3, 5}, 1.0f);
  valid.at(1, 4) = 0.0f;
  valid.at(2, 3) = 0.0f;
  valid.at(2, 4) = 0.0f;
  return valid;
}

/// Selection logits with well-separated neighbor values, so that the
/// regularizer's |m_t - m_{t-1}| terms stay far from their kinks under
/// finite-difference perturbation.
Tensor TestSelectionLogits() {
  return Tensor(Shape{3, 5}, {-2.0f, 1.5f, -1.0f, 2.0f, -2.5f,   //
                              1.0f, -1.8f, 2.2f, -0.8f, 1.7f,    //
                              -1.2f, 2.5f, -2.2f, 0.9f, -1.5f});
}

TEST(RationalizationGradCheck, GumbelSoftSurrogate) {
  const Tensor valid = TestValidMask();
  Pcg32 rng(17);
  const Tensor noise = nn::DrawBinaryMaskNoise(Shape{3, 5}, rng);
  auto fn = [&](const std::vector<Variable>& v) {
    nn::GumbelMask mask =
        nn::SampleBinaryMaskWithNoise(v[0], valid, /*tau=*/0.8f,
                                      /*training=*/true, noise);
    return Sum(Mul(mask.soft, mask.soft));
  };
  GradCheckResult r = CheckGradients(fn, {TestSelectionLogits()});
  EXPECT_TRUE(r.ok) << "gumbel soft surrogate: max error " << r.max_abs_error
                    << " at " << r.worst_location;
}

TEST(RationalizationGradCheck, StraightThroughHardUsesSoftGradient) {
  // The hard mask is a step function — its true derivative is zero almost
  // everywhere. The straight-through estimator defines its backward as the
  // soft surrogate's, so the two paths must produce identical logit grads.
  const Tensor valid = TestValidMask();
  Pcg32 rng(18);
  const Tensor noise = nn::DrawBinaryMaskNoise(Shape{3, 5}, rng);
  Variable logits_hard = Variable::Param(TestSelectionLogits());
  Variable logits_soft = Variable::Param(TestSelectionLogits());
  Sum(nn::SampleBinaryMaskWithNoise(logits_hard, valid, 0.8f, true, noise)
          .hard)
      .Backward();
  Sum(nn::SampleBinaryMaskWithNoise(logits_soft, valid, 0.8f, true, noise)
          .soft)
      .Backward();
  EXPECT_TRUE(logits_hard.grad().vec() == logits_soft.grad().vec());
}

TEST(RationalizationGradCheck, MaskedCrossEntropy) {
  // Cross-entropy over logits computed from a masked input: the rationale
  // mask zeroes features, and gradients must vanish there and match finite
  // differences everywhere else.
  const std::vector<int64_t> labels = {0, 2, 1};
  Tensor feature_mask(Shape{3, 4}, 1.0f);
  feature_mask.at(0, 3) = 0.0f;
  feature_mask.at(2, 1) = 0.0f;
  feature_mask.at(2, 2) = 0.0f;
  Tensor weights(Shape{4, 3},
                 {0.4f, -0.3f, 0.2f, -0.5f, 0.6f, 0.1f,  //
                  0.3f, -0.2f, 0.5f, 0.2f, -0.4f, 0.3f});
  auto fn = [&](const std::vector<Variable>& v) {
    Variable masked = Mul(v[0], Variable::Constant(feature_mask));
    Variable logits = MatMul(masked, Variable::Constant(weights));
    return nn::CrossEntropy(logits, labels);
  };
  Pcg32 rng(19);
  GradCheckResult r = CheckGradients(fn, {Tensor::Randn({3, 4}, rng, 0.6f)});
  EXPECT_TRUE(r.ok) << "masked cross-entropy: max error " << r.max_abs_error
                    << " at " << r.worst_location;
}

TEST(RationalizationGradCheck, SparsityPenaltyTerm) {
  const Tensor valid = TestValidMask();
  core::TrainConfig config;
  config.sparsity_lambda = 1.0f;
  config.coherence_lambda = 0.0f;  // isolate the |rate - alpha| term
  auto fn = [&](const std::vector<Variable>& v) {
    Variable soft = Sigmoid(v[0]);
    nn::GumbelMask mask{soft, soft};
    return core::SparsityCoherencePenalty(mask, valid, config);
  };
  GradCheckResult r = CheckGradients(fn, {TestSelectionLogits()});
  EXPECT_TRUE(r.ok) << "sparsity term: max error " << r.max_abs_error
                    << " at " << r.worst_location;
}

TEST(RationalizationGradCheck, CoherencePenaltyTerm) {
  const Tensor valid = TestValidMask();
  core::TrainConfig config;
  config.sparsity_lambda = 0.0f;  // isolate the |m_t - m_{t-1}| term
  config.coherence_lambda = 1.0f;
  auto fn = [&](const std::vector<Variable>& v) {
    Variable soft = Sigmoid(v[0]);
    nn::GumbelMask mask{soft, soft};
    return core::SparsityCoherencePenalty(mask, valid, config);
  };
  GradCheckResult r = CheckGradients(fn, {TestSelectionLogits()});
  EXPECT_TRUE(r.ok) << "coherence term: max error " << r.max_abs_error
                    << " at " << r.worst_location;
}

TEST(RationalizationGradCheck, CombinedRegularizerAtPaperWeights) {
  const Tensor valid = TestValidMask();
  const core::TrainConfig config;  // paper defaults: lambda_1=5, lambda_2=0.5
  auto fn = [&](const std::vector<Variable>& v) {
    Variable soft = Sigmoid(v[0]);
    nn::GumbelMask mask{soft, soft};
    return core::SparsityCoherencePenalty(mask, valid, config);
  };
  GradCheckResult r = CheckGradients(fn, {TestSelectionLogits()});
  EXPECT_TRUE(r.ok) << "combined regularizer: max error " << r.max_abs_error
                    << " at " << r.worst_location;
}

// ---------------------------------------------------------------------------
// Module-level gradchecks: composite backward paths that chain many op
// closures (the same idiom as GruTest.GradCheckThroughTime). The module is
// built outside the function so only the data input is perturbed.

TEST(ModuleGradCheck, MultiHeadAttentionBackward) {
  Pcg32 rng(51);
  nn::MultiHeadAttention attention(/*dim=*/4, /*num_heads=*/2, rng);
  const Tensor valid = Tensor::Full(Shape{1, 3}, 1.0f);
  Pcg32 data_rng(52);
  GradCheckResult r = CheckGradients(
      [&](const std::vector<Variable>& v) {
        Variable y = attention.Forward(v[0], valid);
        return Sum(Mul(y, y));
      },
      {Tensor::Randn({1, 3, 4}, data_rng, 0.5f)});
  EXPECT_TRUE(r.ok) << "attention: max error " << r.max_abs_error << " at "
                    << r.worst_location;
}

TEST(ModuleGradCheck, MultiHeadAttentionRespectsPaddingMask) {
  // With a padded tail position the gradient must still match numerically:
  // the masked softmax path (large negative scores) is part of the graph.
  Pcg32 rng(53);
  nn::MultiHeadAttention attention(/*dim=*/4, /*num_heads=*/2, rng);
  Tensor valid = Tensor::Full(Shape{1, 4}, 1.0f);
  valid.flat(3) = 0.0f;  // last position is padding
  Pcg32 data_rng(54);
  GradCheckResult r = CheckGradients(
      [&](const std::vector<Variable>& v) {
        Variable y = attention.Forward(v[0], valid);
        return Sum(Mul(y, y));
      },
      {Tensor::Randn({1, 4, 4}, data_rng, 0.5f)});
  EXPECT_TRUE(r.ok) << "masked attention: max error " << r.max_abs_error
                    << " at " << r.worst_location;
}

TEST(ModuleGradCheck, LayerNormBackward) {
  // The fused layer-norm backward (gain/bias affine over a normalized row)
  // against central differences, through a non-linear head so the
  // normalization Jacobian's off-diagonal terms matter.
  nn::LayerNorm norm(/*dim=*/5);
  Pcg32 data_rng(55);
  GradCheckResult r = CheckGradients(
      [&](const std::vector<Variable>& v) {
        Variable y = norm.Forward(v[0]);
        return Sum(Mul(y, Sigmoid(y)));
      },
      {Tensor::Randn({3, 5}, data_rng, 0.8f)});
  EXPECT_TRUE(r.ok) << "layer_norm: max error " << r.max_abs_error << " at "
                    << r.worst_location;
}

}  // namespace
}  // namespace ag
}  // namespace dar

// Tests for the core building blocks: Generator, Predictor, regularizer,
// encoders.
#include <cmath>

#include <gtest/gtest.h>

#include "core/encoder.h"
#include "core/generator.h"
#include "core/predictor.h"
#include "core/regularizer.h"
#include "data/batch.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace core {
namespace {

TrainConfig SmallConfig() {
  TrainConfig config;
  config.embedding_dim = 8;
  config.hidden_dim = 6;
  return config;
}

Tensor SmallEmbeddings(int64_t vocab, int64_t dim) {
  Pcg32 rng(1);
  return Tensor::Randn({vocab, dim}, rng, 0.3f);
}

data::Batch SmallBatch() {
  std::vector<data::Example> examples = {
      {{2, 3, 4, 5}, 1, {0, 1, 1, 0}},
      {{6, 7, 8}, 0, {1, 0, 0}},
  };
  return data::Batch::FromExamples(examples, 0, 2, /*pad_id=*/0);
}

TEST(GeneratorTest, SelectionLogitsShape) {
  TrainConfig config = SmallConfig();
  Pcg32 rng(2);
  Generator generator(SmallEmbeddings(10, 8), config, rng);
  data::Batch batch = SmallBatch();
  ag::Variable logits = generator.SelectionLogits(batch);
  EXPECT_EQ(logits.value().shape(), (Shape{2, 4}));
}

TEST(GeneratorTest, DeterministicMaskThresholdsAtZero) {
  TrainConfig config = SmallConfig();
  Pcg32 rng(3);
  Generator generator(SmallEmbeddings(10, 8), config, rng);
  generator.SetTraining(false);
  data::Batch batch = SmallBatch();
  Tensor mask = generator.DeterministicMask(batch);
  Tensor logits = generator.SelectionLogits(batch).value();
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      bool expected = logits.at(i, j) > 0.0f && batch.valid.at(i, j) > 0.0f;
      EXPECT_EQ(mask.at(i, j), expected ? 1.0f : 0.0f);
    }
  }
  // Padded tail of example 1 never selected.
  EXPECT_EQ(mask.at(1, 3), 0.0f);
}

TEST(GeneratorTest, SampleMaskGradsReachEncoder) {
  TrainConfig config = SmallConfig();
  Pcg32 rng(4);
  Generator generator(SmallEmbeddings(10, 8), config, rng);
  data::Batch batch = SmallBatch();
  Pcg32 sample_rng(5);
  nn::GumbelMask mask = generator.SampleMask(batch, sample_rng);
  ag::Sum(mask.hard).Backward();
  int64_t with_grad = 0;
  for (const nn::NamedParameter& p : generator.Parameters()) {
    if (p.variable.has_grad() && Norm2(p.variable.grad()) > 0.0f) ++with_grad;
  }
  EXPECT_GT(with_grad, 0);
}

TEST(PredictorTest, ForwardShapes) {
  TrainConfig config = SmallConfig();
  Pcg32 rng(6);
  Predictor predictor(SmallEmbeddings(10, 8), config, rng);
  data::Batch batch = SmallBatch();
  ag::Variable logits = predictor.ForwardFullText(batch);
  EXPECT_EQ(logits.value().shape(), (Shape{2, 2}));
}

TEST(PredictorTest, ZeroMaskErasesInputDifferences) {
  TrainConfig config = SmallConfig();
  Pcg32 rng(7);
  Predictor predictor(SmallEmbeddings(10, 8), config, rng);
  predictor.SetTraining(false);
  // Two batches with different tokens but all-zero masks must agree:
  // certification of exclusion at the input level.
  std::vector<data::Example> e1 = {{{2, 3, 4}, 0, {}}};
  std::vector<data::Example> e2 = {{{7, 8, 9}, 0, {}}};
  data::Batch b1 = data::Batch::FromExamples(e1, 0, 1, 0);
  data::Batch b2 = data::Batch::FromExamples(e2, 0, 1, 0);
  Tensor zero_mask(Shape{1, 3});
  Tensor out1 = predictor.ForwardWithConstMask(b1, zero_mask).value();
  Tensor out2 = predictor.ForwardWithConstMask(b2, zero_mask).value();
  EXPECT_TRUE(out1.AllClose(out2, 1e-5f));
}

TEST(PredictorTest, MaskGatesTokenInfluence) {
  TrainConfig config = SmallConfig();
  Pcg32 rng(8);
  Predictor predictor(SmallEmbeddings(10, 8), config, rng);
  predictor.SetTraining(false);
  std::vector<data::Example> e1 = {{{2, 3, 4}, 0, {}}};
  std::vector<data::Example> e2 = {{{2, 9, 4}, 0, {}}};  // differs at pos 1
  data::Batch b1 = data::Batch::FromExamples(e1, 0, 1, 0);
  data::Batch b2 = data::Batch::FromExamples(e2, 0, 1, 0);
  Tensor mask_excluding(Shape{1, 3}, {1, 0, 1});
  EXPECT_TRUE(predictor.ForwardWithConstMask(b1, mask_excluding)
                  .value()
                  .AllClose(
                      predictor.ForwardWithConstMask(b2, mask_excluding).value(),
                      1e-5f));
  Tensor mask_including(Shape{1, 3}, {1, 1, 1});
  EXPECT_FALSE(
      predictor.ForwardWithConstMask(b1, mask_including)
          .value()
          .AllClose(predictor.ForwardWithConstMask(b2, mask_including).value(),
                    1e-6f));
}

TEST(PredictorTest, ForwardMixedSwapsContext) {
  TrainConfig config = SmallConfig();
  Pcg32 rng(9);
  Predictor predictor(SmallEmbeddings(10, 8), config, rng);
  predictor.SetTraining(false);
  data::Batch batch = SmallBatch();
  // Full mask: mixing has no effect (context fully owned).
  ag::Variable full = ag::Variable::Constant(batch.valid);
  Tensor mixed_full =
      predictor.ForwardMixed(batch, batch.tokens, full).value();
  Tensor plain = predictor.ForwardFullText(batch).value();
  EXPECT_TRUE(mixed_full.AllClose(plain, 1e-5f));
}

TEST(RegularizerTest, ZeroAtExactTargetConstantMask) {
  TrainConfig config = SmallConfig();
  config.sparsity_target = 0.5f;
  config.sparsity_lambda = 1.0f;
  config.coherence_lambda = 0.0f;
  Tensor valid(Shape{1, 4}, 1.0f);
  // Exactly half selected.
  Tensor hard(Shape{1, 4}, {1, 1, 0, 0});
  nn::GumbelMask mask{ag::Variable::Constant(hard),
                      ag::Variable::Constant(hard)};
  EXPECT_NEAR(SparsityCoherencePenalty(mask, valid, config).value().item(),
              0.0f, 1e-6f);
}

TEST(RegularizerTest, SparsityPenaltyIsAbsoluteDeviation) {
  TrainConfig config = SmallConfig();
  config.sparsity_target = 0.25f;
  config.sparsity_lambda = 2.0f;
  config.coherence_lambda = 0.0f;
  Tensor valid(Shape{1, 4}, 1.0f);
  Tensor hard(Shape{1, 4}, {1, 1, 1, 1});  // rate 1.0, deviation 0.75
  nn::GumbelMask mask{ag::Variable::Constant(hard),
                      ag::Variable::Constant(hard)};
  EXPECT_NEAR(SparsityCoherencePenalty(mask, valid, config).value().item(),
              2.0f * 0.75f, 1e-5f);
}

TEST(RegularizerTest, CoherenceCountsTransitions) {
  TrainConfig config = SmallConfig();
  config.sparsity_target = 0.5f;
  config.sparsity_lambda = 0.0f;
  config.coherence_lambda = 3.0f;
  Tensor valid(Shape{1, 4}, 1.0f);
  Tensor alternating(Shape{1, 4}, {1, 0, 1, 0});  // 3 transitions / 3 pairs
  nn::GumbelMask mask{ag::Variable::Constant(alternating),
                      ag::Variable::Constant(alternating)};
  EXPECT_NEAR(SparsityCoherencePenalty(mask, valid, config).value().item(),
              3.0f * 1.0f, 1e-5f);

  Tensor block(Shape{1, 4}, {1, 1, 0, 0});  // 1 transition / 3 pairs
  nn::GumbelMask mask2{ag::Variable::Constant(block),
                       ag::Variable::Constant(block)};
  EXPECT_NEAR(SparsityCoherencePenalty(mask2, valid, config).value().item(),
              3.0f / 3.0f, 1e-5f);
}

TEST(RegularizerTest, PerExampleNormalizationIgnoresPadding) {
  TrainConfig config = SmallConfig();
  config.sparsity_target = 0.5f;
  config.sparsity_lambda = 1.0f;
  config.coherence_lambda = 0.0f;
  // Example with length 2 (2 padded): selecting 1 of 2 valid = on target.
  Tensor valid(Shape{1, 4}, {1, 1, 0, 0});
  Tensor hard(Shape{1, 4}, {1, 0, 0, 0});
  nn::GumbelMask mask{ag::Variable::Constant(hard),
                      ag::Variable::Constant(hard)};
  EXPECT_NEAR(SparsityCoherencePenalty(mask, valid, config).value().item(),
              0.0f, 1e-6f);
}

TEST(PredictorTest, SupportsMoreThanTwoClasses) {
  TrainConfig config = SmallConfig();
  config.num_classes = 4;
  Pcg32 rng(12);
  Predictor predictor(SmallEmbeddings(10, 8), config, rng);
  std::vector<data::Example> examples = {{{2, 3, 4}, 3, {}},
                                         {{5, 6, 7}, 0, {}}};
  data::Batch batch = data::Batch::FromExamples(examples, 0, 2, 0);
  ag::Variable logits = predictor.ForwardFullText(batch);
  EXPECT_EQ(logits.value().shape(), (Shape{2, 4}));
  // Cross-entropy against 4-way labels is finite and differentiable.
  ag::Variable logp = ag::LogSoftmaxRowsOp(logits);
  ag::Variable loss = ag::Neg(ag::Mean(ag::PickColumns(logp, batch.labels)));
  EXPECT_TRUE(std::isfinite(loss.value().item()));
  loss.Backward();
}

TEST(EncoderTest, FactorySelectsKind) {
  TrainConfig config = SmallConfig();
  Pcg32 rng(10);
  auto gru = MakeEncoder(config, rng);
  EXPECT_EQ(gru->output_dim(), 2 * config.hidden_dim);
  config.encoder = EncoderKind::kTransformer;
  config.transformer.dim = 8;
  config.transformer.num_heads = 2;
  auto transformer = MakeEncoder(config, rng);
  EXPECT_EQ(transformer->output_dim(), 8);
}

TEST(EncoderTest, TransformerEncoderPluggableIntoPredictor) {
  TrainConfig config = SmallConfig();
  config.encoder = EncoderKind::kTransformer;
  config.transformer.dim = 8;
  config.transformer.num_heads = 2;
  config.transformer.ffn_dim = 16;
  config.transformer.num_layers = 1;
  Pcg32 rng(11);
  Predictor predictor(SmallEmbeddings(10, 8), config, rng);
  data::Batch batch = SmallBatch();
  Tensor logits = predictor.ForwardFullText(batch).value();
  EXPECT_EQ(logits.shape(), (Shape{2, 2}));
  for (int64_t i = 0; i < logits.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(logits.flat(i)));
  }
}

}  // namespace
}  // namespace core
}  // namespace dar

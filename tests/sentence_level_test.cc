// Tests for core/sentence_level.h: segmentation, the straight-through
// one-sentence sampler, and the RNP*/A2R* models.
#include "core/sentence_level.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/dataloader.h"
#include "datasets/beer.h"
#include "eval/experiment.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace core {
namespace {

constexpr int64_t kPeriod = 9;

data::Batch SentenceBatch() {
  // Example 0: "a b . c d e ." -> sentences [0,3) [3,7)
  // Example 1: "x y z"         -> one unterminated sentence [0,3)
  std::vector<data::Example> examples = {
      {{2, 3, kPeriod, 4, 5, 6, kPeriod}, 1, {}},
      {{7, 8, 7}, 0, {}},
  };
  return data::Batch::FromExamples(examples, 0, 2, /*pad_id=*/0);
}

TEST(SegmentSentencesTest, SplitsOnPeriods) {
  std::vector<std::vector<SentenceSpan>> spans =
      SegmentSentences(SentenceBatch(), kPeriod);
  ASSERT_EQ(spans.size(), 2u);
  ASSERT_EQ(spans[0].size(), 2u);
  EXPECT_EQ(spans[0][0].begin, 0);
  EXPECT_EQ(spans[0][0].end, 3);
  EXPECT_EQ(spans[0][1].begin, 3);
  EXPECT_EQ(spans[0][1].end, 7);
  // Unterminated final sentence still forms a span; padding excluded.
  ASSERT_EQ(spans[1].size(), 1u);
  EXPECT_EQ(spans[1][0].begin, 0);
  EXPECT_EQ(spans[1][0].end, 3);
}

TEST(SegmentSentencesTest, SpansPartitionValidTokens) {
  datasets::SyntheticDataset ds = datasets::MakeBeerDataset(
      datasets::BeerAspect::kAroma, {.train = 32, .dev = 8, .test = 8}, 91);
  data::DataLoader loader(ds.train, 16, /*shuffle=*/false);
  data::Batch batch = loader.Sequential()[0];
  auto spans = SegmentSentences(batch, ds.vocab.IdOrUnk("."));
  for (int64_t i = 0; i < batch.batch_size(); ++i) {
    int64_t covered = 0, expected = 0;
    int64_t prev_end = 0;
    for (const SentenceSpan& s : spans[static_cast<size_t>(i)]) {
      EXPECT_EQ(s.begin, prev_end);  // contiguous, non-overlapping
      EXPECT_LT(s.begin, s.end);
      covered += s.end - s.begin;
      prev_end = s.end;
    }
    for (int64_t t = 0; t < batch.max_len(); ++t) {
      expected += static_cast<int64_t>(batch.valid.at(i, t));
    }
    EXPECT_EQ(covered, expected);
  }
}

TEST(OneSentenceMaskTest, SelectsExactlyOneSentenceEval) {
  data::Batch batch = SentenceBatch();
  auto spans = SegmentSentences(batch, kPeriod);
  Tensor logits(Shape{2, 7}, {1, 1, 1, 3, 3, 3, 3,   // sentence 2 wins
                              0.5f, 0.5f, 0.5f, 0, 0, 0, 0});
  Pcg32 rng(1);
  nn::GumbelMask mask = SampleOneSentenceMask(
      ag::Variable::Constant(logits), spans, batch.valid, 1.0f,
      /*training=*/false, rng);
  // Example 0: second sentence selected, first not.
  EXPECT_EQ(mask.hard.value().at(0, 0), 0.0f);
  EXPECT_EQ(mask.hard.value().at(0, 3), 1.0f);
  EXPECT_EQ(mask.hard.value().at(0, 6), 1.0f);
  // Example 1: its single sentence selected, padding not.
  EXPECT_EQ(mask.hard.value().at(1, 0), 1.0f);
  EXPECT_EQ(mask.hard.value().at(1, 2), 1.0f);
  EXPECT_EQ(mask.hard.value().at(1, 3), 0.0f);
}

TEST(OneSentenceMaskTest, SoftProbsSumToOneAcrossSentences) {
  data::Batch batch = SentenceBatch();
  auto spans = SegmentSentences(batch, kPeriod);
  Pcg32 data_rng(2);
  Tensor logits = Tensor::Randn({2, 7}, data_rng);
  Pcg32 rng(3);
  nn::GumbelMask mask = SampleOneSentenceMask(
      ag::Variable::Constant(logits), spans, batch.valid, 1.0f,
      /*training=*/false, rng);
  // One representative token per sentence carries that sentence's prob.
  float p0 = mask.soft.value().at(0, 0);
  float p1 = mask.soft.value().at(0, 3);
  EXPECT_NEAR(p0 + p1, 1.0f, 1e-5f);
  EXPECT_NEAR(mask.soft.value().at(1, 0), 1.0f, 1e-5f);  // single sentence
}

TEST(OneSentenceMaskTest, GradientFlowsToLogits) {
  data::Batch batch = SentenceBatch();
  auto spans = SegmentSentences(batch, kPeriod);
  Pcg32 data_rng(4);
  ag::Variable logits = ag::Variable::Param(Tensor::Randn({2, 7}, data_rng));
  Pcg32 rng(5);
  nn::GumbelMask mask = SampleOneSentenceMask(logits, spans, batch.valid, 1.0f,
                                              /*training=*/false, rng);
  // Weighted sum exposes the softmax Jacobian (plain Sum cancels it:
  // sentence probabilities always sum to 1).
  Tensor weights(Shape{2, 7});
  for (int64_t t = 0; t < 7; ++t) weights.at(0, t) = static_cast<float>(t);
  ag::Sum(ag::Mul(mask.hard, ag::Variable::Constant(weights))).Backward();
  EXPECT_TRUE(logits.has_grad());
  EXPECT_GT(Norm2(logits.grad()), 0.0f);
}

TEST(OneSentenceMaskTest, TrainingModeIsStochastic) {
  data::Batch batch = SentenceBatch();
  auto spans = SegmentSentences(batch, kPeriod);
  Tensor logits(Shape{2, 7});  // uniform scores
  Pcg32 rng(6);
  int first_selected = 0;
  constexpr int kTrials = 200;
  for (int trial = 0; trial < kTrials; ++trial) {
    nn::GumbelMask mask = SampleOneSentenceMask(
        ag::Variable::Constant(logits), spans, batch.valid, 1.0f,
        /*training=*/true, rng);
    if (mask.hard.value().at(0, 0) > 0.5f) ++first_selected;
  }
  // Two equal-scoring sentences: roughly 50/50 under Gumbel noise. The
  // second sentence is longer (4 vs 3 tokens) but scores are means, so
  // length does not bias selection.
  EXPECT_GT(first_selected, kTrials / 4);
  EXPECT_LT(first_selected, 3 * kTrials / 4);
}

TEST(SentenceModelsTest, TrainLossFiniteAndEvalMaskOneSentence) {
  datasets::SyntheticDataset ds = datasets::MakeBeerDataset(
      datasets::BeerAspect::kAroma, {.train = 64, .dev = 16, .test = 16}, 95);
  TrainConfig config;
  config.embedding_dim = 8;
  config.hidden_dim = 6;
  config.batch_size = 16;
  for (const char* name : {"RNP*", "A2R*"}) {
    auto model = eval::MakeMethod(name, ds, config);
    data::DataLoader loader(ds.train, 16, /*shuffle=*/false);
    data::Batch batch = loader.Sequential()[0];
    model->SetTraining(true);
    ag::Variable loss = model->TrainLoss(batch);
    EXPECT_TRUE(std::isfinite(loss.value().item())) << name;
    loss.Backward();

    Tensor mask = model->EvalMask(batch);
    auto spans = SegmentSentences(batch, ds.vocab.IdOrUnk("."));
    for (int64_t i = 0; i < batch.batch_size(); ++i) {
      // Exactly one contiguous sentence selected.
      int64_t selected_sentences = 0;
      for (const SentenceSpan& s : spans[static_cast<size_t>(i)]) {
        bool all = true, any = false;
        for (int64_t t = s.begin; t < s.end; ++t) {
          if (mask.at(i, t) > 0.5f) {
            any = true;
          } else {
            all = false;
          }
        }
        EXPECT_EQ(all, any) << name << ": partial sentence selection";
        if (any) ++selected_sentences;
      }
      EXPECT_EQ(selected_sentences, 1) << name;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace dar

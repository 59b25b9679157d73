// Eval-mode determinism guard: serving correctness depends on (a) Dropout
// being the identity outside training and (b) EvalMask being deterministic
// across repeated calls — a checkpoint-restored model must answer the same
// request identically every time, from any thread.
#include <gtest/gtest.h>

#include "core/rnp.h"
#include "core/sentence_level.h"
#include "datasets/beer.h"
#include "eval/experiment.h"
#include "nn/dropout.h"

namespace dar {
namespace {

datasets::SyntheticDataset TinyDataset() {
  return datasets::MakeBeerDataset(datasets::BeerAspect::kAroma,
                                   {.train = 30, .dev = 10, .test = 12}, 11);
}

core::TrainConfig TinyConfig() {
  core::TrainConfig config;
  config.embedding_dim = 16;
  config.hidden_dim = 8;
  return config;
}

TEST(DeterminismTest, DropoutEvalModeIsIdentity) {
  Pcg32 rng(5);
  nn::Dropout dropout(0.5f, rng);
  Tensor x = Tensor::Randn({4, 7}, rng);

  dropout.SetTraining(false);
  for (int repeat = 0; repeat < 3; ++repeat) {
    Tensor y = dropout.Forward(ag::Variable::Constant(x)).value();
    ASSERT_EQ(y.numel(), x.numel());
    for (int64_t i = 0; i < x.numel(); ++i) {
      // Bit-exact identity, not merely approximate.
      EXPECT_EQ(y.flat(i), x.flat(i)) << "element " << i;
    }
  }

  // Sanity: the same module in training mode is *not* the identity (some
  // element is zeroed or rescaled), so the guard above is meaningful.
  dropout.SetTraining(true);
  Tensor t = dropout.Forward(ag::Variable::Constant(x)).value();
  bool changed = false;
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (t.flat(i) != x.flat(i)) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(DeterminismTest, EvalMaskDeterministicAcrossRepeatedCalls) {
  datasets::SyntheticDataset dataset = TinyDataset();
  core::TrainConfig config = TinyConfig();
  for (const char* method : {"RNP", "DAR", "VIB", "SPECTRA", "RNP*"}) {
    auto model = eval::MakeMethod(method, dataset, config);
    data::Batch batch =
        data::Batch::FromExamples(dataset.test, 0, 8, data::Vocabulary::kPadId);

    Tensor first = model->EvalMask(batch);
    for (int repeat = 0; repeat < 3; ++repeat) {
      Tensor again = model->EvalMask(batch);
      ASSERT_EQ(again.numel(), first.numel()) << method;
      for (int64_t i = 0; i < first.numel(); ++i) {
        ASSERT_EQ(again.flat(i), first.flat(i))
            << method << " element " << i << " repeat " << repeat;
      }
    }
  }
}

TEST(DeterminismTest, ServingStagesMatchEvalMaskAndPredictLogits) {
  datasets::SyntheticDataset dataset = TinyDataset();
  core::TrainConfig config = TinyConfig();
  for (const char* method : {"RNP", "DAR", "VIB", "SPECTRA", "RNP*"}) {
    auto model = eval::MakeMethod(method, dataset, config);
    data::Batch batch =
        data::Batch::FromExamples(dataset.test, 0, 8, data::Vocabulary::kPadId);

    Tensor toggled = model->EvalMask(batch);
    Tensor logits_toggled = model->PredictLogits(batch, toggled);

    // The four const stages the serving forward runs, on the model pinned
    // in eval mode: generator encoder -> selection, then predictor
    // encoder -> head.
    model->SetTraining(false);
    const core::RationalizerBase& const_model = *model;
    Tensor staged = const_model.EvalMaskFromStatesConst(
        batch, const_model.GenEncoderStatesConst(batch));
    ASSERT_EQ(staged.numel(), toggled.numel()) << method;
    for (int64_t i = 0; i < toggled.numel(); ++i) {
      ASSERT_EQ(staged.flat(i), toggled.flat(i)) << method << " element " << i;
    }
    Tensor logits_staged = const_model.PredictLogitsFromStatesConst(
        batch, const_model.PredEncoderStatesConst(batch, staged));
    ASSERT_EQ(logits_staged.numel(), logits_toggled.numel()) << method;
    for (int64_t i = 0; i < logits_toggled.numel(); ++i) {
      ASSERT_EQ(logits_staged.flat(i), logits_toggled.flat(i))
          << method << " logit " << i;
    }
  }
}

TEST(DeterminismTest, EvalMaskRestoresTrainingMode) {
  datasets::SyntheticDataset dataset = TinyDataset();
  auto model = eval::MakeMethod("RNP", dataset, TinyConfig());
  data::Batch batch =
      data::Batch::FromExamples(dataset.test, 0, 4, data::Vocabulary::kPadId);

  model->SetTraining(true);
  model->EvalMask(batch);
  EXPECT_TRUE(model->generator().training());
  model->SetTraining(false);
  model->EvalMask(batch);
  EXPECT_FALSE(model->generator().training());
}

}  // namespace
}  // namespace dar

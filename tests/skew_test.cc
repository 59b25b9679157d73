// Tests for the skewed-initialization settings (Tables VII & VIII).
#include "core/skew.h"

#include <gtest/gtest.h>

#include "core/rnp.h"
#include "core/trainer.h"
#include "data/dataloader.h"
#include "datasets/beer.h"
#include "eval/experiment.h"
#include "nn/loss.h"

namespace dar {
namespace core {
namespace {

const datasets::SyntheticDataset& SkewDataset() {
  static const datasets::SyntheticDataset& ds = *new datasets::SyntheticDataset(
      datasets::MakeBeerDataset(datasets::BeerAspect::kAroma,
                                {.train = 128, .dev = 32, .test = 32},
                                /*seed=*/17));
  return ds;
}

TrainConfig SkewConfig() {
  TrainConfig config;
  config.embedding_dim = 8;
  config.hidden_dim = 6;
  config.batch_size = 16;
  return config;
}

TEST(FirstSentenceMaskTest, CoversUpToFirstPeriod) {
  const datasets::SyntheticDataset& ds = SkewDataset();
  int64_t period = ds.vocab.IdOrUnk(".");
  data::DataLoader loader(ds.train, 8, /*shuffle=*/false);
  data::Batch batch = loader.Sequential()[0];
  Tensor mask = FirstSentenceMask(batch, period);
  for (int64_t i = 0; i < batch.batch_size(); ++i) {
    bool seen_period = false;
    for (int64_t j = 0; j < batch.max_len(); ++j) {
      if (batch.valid.at(i, j) == 0.0f) {
        EXPECT_EQ(mask.at(i, j), 0.0f);
        continue;
      }
      if (seen_period) {
        EXPECT_EQ(mask.at(i, j), 0.0f);
      } else {
        EXPECT_EQ(mask.at(i, j), 1.0f);
      }
      if (batch.tokens[static_cast<size_t>(i)][static_cast<size_t>(j)] ==
          period) {
        seen_period = true;
      }
    }
    EXPECT_TRUE(seen_period);  // every synthetic review has sentences
  }
}

TEST(SkewPredictorTest, LearnsFirstSentenceOnly) {
  const datasets::SyntheticDataset& ds = SkewDataset();
  TrainConfig config = SkewConfig();
  Tensor embeddings = eval::BuildEmbeddings(ds, config);
  Pcg32 rng(3);
  Predictor predictor(embeddings, config, rng);
  // Aroma labels vs appearance-only input: the first sentence is only
  // *correlated* with the aroma label, so accuracy should be above chance
  // (correlation) but well below the full-text ceiling.
  float acc = SkewPredictorPretrain(predictor, ds, /*epochs=*/4, rng,
                                    /*batch_size=*/32, /*lr=*/2e-3f);
  EXPECT_GT(acc, 0.4f);
  EXPECT_LT(acc, 0.95f);
}

TEST(SkewGeneratorTest, ReachesRequestedThreshold) {
  const datasets::SyntheticDataset& ds = SkewDataset();
  TrainConfig config = SkewConfig();
  Tensor embeddings = eval::BuildEmbeddings(ds, config);
  Pcg32 rng(4);
  Generator generator(embeddings, config, rng);
  float pre_acc = SkewGeneratorPretrain(generator, ds,
                                        /*accuracy_threshold=*/0.75f, rng,
                                        /*max_epochs=*/40, /*batch_size=*/32,
                                        /*lr=*/2e-3f);
  EXPECT_GE(pre_acc, 0.75f);
}

TEST(SkewGeneratorTest, FirstTokenSelectionLeaksLabel) {
  const datasets::SyntheticDataset& ds = SkewDataset();
  TrainConfig config = SkewConfig();
  Tensor embeddings = eval::BuildEmbeddings(ds, config);
  Pcg32 rng(5);
  Generator generator(embeddings, config, rng);
  SkewGeneratorPretrain(generator, ds, 0.8f, rng, 40, 32, 2e-3f);
  generator.SetTraining(false);
  // Check the leak on held-out data: token-0 selection == label.
  data::DataLoader loader(ds.dev, 16, /*shuffle=*/false);
  int64_t correct = 0, total = 0;
  for (const data::Batch& batch : loader.Sequential()) {
    Tensor mask = generator.DeterministicMask(batch);
    for (int64_t i = 0; i < batch.batch_size(); ++i) {
      bool selected = mask.at(i, 0) > 0.5f;
      if (selected == (batch.labels[static_cast<size_t>(i)] == 1)) ++correct;
      ++total;
    }
  }
  EXPECT_GT(static_cast<float>(correct) / static_cast<float>(total), 0.65f);
}

TEST(SkewPredictorTest, PretrainedPredictorPluggableIntoGame) {
  // The Table VII protocol: pretrain the predictor skewed, then run the
  // cooperative game from that initialization.
  const datasets::SyntheticDataset& ds = SkewDataset();
  TrainConfig config = SkewConfig();
  config.epochs = 1;
  config.pretrain_epochs = 1;
  Tensor embeddings = eval::BuildEmbeddings(ds, config);
  RnpModel rnp(embeddings, config);
  Pcg32 rng(6);
  SkewPredictorPretrain(rnp.predictor(), ds, /*epochs=*/2, rng, 32, 2e-3f);
  TrainRun run = Fit(rnp, ds);
  EXPECT_EQ(run.epochs.size(), 1u);  // game runs to completion from skew init
}

}  // namespace
}  // namespace core
}  // namespace dar

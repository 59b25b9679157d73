// Tests for core/mlm.h: masked-token pretraining of the Transformer
// encoder (the Table VI BERT stand-in).
#include "core/mlm.h"

#include <gtest/gtest.h>

#include "core/predictor.h"
#include "datasets/beer.h"
#include "eval/experiment.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace core {
namespace {

TrainConfig TransformerConfig() {
  TrainConfig config;
  config.embedding_dim = 16;
  config.encoder = EncoderKind::kTransformer;
  config.transformer.dim = 16;
  config.transformer.num_heads = 2;
  config.transformer.ffn_dim = 32;
  config.transformer.num_layers = 1;
  config.transformer.max_len = 96;
  config.transformer.dropout = 0.0f;
  return config;
}

const datasets::SyntheticDataset& MlmDataset() {
  static const datasets::SyntheticDataset& ds = *new datasets::SyntheticDataset(
      datasets::MakeBeerDataset(datasets::BeerAspect::kAroma,
                                {.train = 96, .dev = 16, .test = 16},
                                /*seed=*/61));
  return ds;
}

TEST(MlmTest, TrainingImprovesMaskedAccuracyOverChance) {
  const datasets::SyntheticDataset& ds = MlmDataset();
  TrainConfig config = TransformerConfig();
  Tensor embeddings = eval::BuildEmbeddings(ds, config);
  Pcg32 rng(1);
  MlmPretrainer pretrainer(embeddings, config,
                           ds.vocab.IdOrUnk("<mask>"), rng);
  MlmConfig mlm;
  mlm.epochs = 4;
  mlm.batch_size = 16;
  mlm.lr = 2e-3f;
  Pcg32 train_rng(2);
  float accuracy = pretrainer.Train(ds, mlm, train_rng);
  // Chance is ~1/vocab (<1%); fillers and aspect words are predictable
  // from context, so a trained model lands far above that.
  EXPECT_GT(accuracy, 0.05f);
}

TEST(MlmTest, InitializeEncoderCopiesWeights) {
  const datasets::SyntheticDataset& ds = MlmDataset();
  TrainConfig config = TransformerConfig();
  Tensor embeddings = eval::BuildEmbeddings(ds, config);
  Pcg32 rng(3);
  MlmPretrainer pretrainer(embeddings, config,
                           ds.vocab.IdOrUnk("<mask>"), rng);
  MlmConfig mlm;
  mlm.epochs = 1;
  mlm.batch_size = 16;
  Pcg32 train_rng(4);
  pretrainer.Train(ds, mlm, train_rng);

  Pcg32 p_rng(5);
  Predictor predictor(embeddings, config, p_rng);
  Pcg32 p_rng2(6);
  Predictor control(embeddings, config, p_rng2);
  pretrainer.InitializeEncoder(predictor.encoder());

  // The warm-started predictor's encoder now differs from a fresh one with
  // the same construction seed.
  std::vector<nn::NamedParameter> warm = predictor.encoder().Parameters();
  std::vector<nn::NamedParameter> cold = control.encoder().Parameters();
  ASSERT_EQ(warm.size(), cold.size());
  bool any_diff = false;
  for (size_t i = 0; i < warm.size(); ++i) {
    if (!warm[i].variable.value().AllClose(cold[i].variable.value(), 1e-6f)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(MlmTest, RequiresTransformerEncoder) {
  const datasets::SyntheticDataset& ds = MlmDataset();
  TrainConfig config = TransformerConfig();
  config.encoder = EncoderKind::kBiGru;
  Tensor embeddings = eval::BuildEmbeddings(ds, config);
  Pcg32 rng(7);
  EXPECT_DEATH(MlmPretrainer(embeddings, config, 2, rng), "Transformer");
}

}  // namespace
}  // namespace core
}  // namespace dar

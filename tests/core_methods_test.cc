// Tests for the rationalization methods: RNP, DAR, and all baselines.
// Verifies loss construction, gradient routing (especially DAR's frozen
// discriminator), parameter accounting (Table IV), and method-specific
// selection behaviour.
#include <cmath>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/baselines/vib.h"
#include "core/dar.h"
#include "core/rnp.h"
#include "data/dataloader.h"
#include "datasets/beer.h"
#include "eval/experiment.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace core {
namespace {

const datasets::SyntheticDataset& TinyDataset() {
  static const datasets::SyntheticDataset& ds = *new datasets::SyntheticDataset(
      datasets::MakeBeerDataset(datasets::BeerAspect::kAroma,
                                {.train = 64, .dev = 16, .test = 16},
                                /*seed=*/5));
  return ds;
}

TrainConfig TinyConfig() {
  TrainConfig config;
  config.embedding_dim = 8;
  config.hidden_dim = 6;
  config.batch_size = 8;
  config.epochs = 1;
  config.pretrain_epochs = 1;
  return config;
}

data::Batch FirstBatch() {
  data::DataLoader loader(TinyDataset().train, 8, /*shuffle=*/false);
  return loader.Sequential()[0];
}

class MethodCase : public ::testing::TestWithParam<std::string> {};

TEST_P(MethodCase, TrainLossIsFiniteScalar) {
  auto model = eval::MakeMethod(GetParam(), TinyDataset(), TinyConfig());
  model->Prepare(TinyDataset());
  model->SetTraining(true);
  ag::Variable loss = model->TrainLoss(FirstBatch());
  EXPECT_EQ(loss.value().numel(), 1);
  EXPECT_TRUE(std::isfinite(loss.value().item()));
  EXPECT_GT(loss.value().item(), 0.0f);
}

TEST_P(MethodCase, BackwardReachesGeneratorAndPredictor) {
  auto model = eval::MakeMethod(GetParam(), TinyDataset(), TinyConfig());
  model->Prepare(TinyDataset());
  model->SetTraining(true);
  ag::Variable loss = model->TrainLoss(FirstBatch());
  loss.Backward();
  int64_t gen_grads = 0;
  for (const nn::NamedParameter& p : model->generator().Parameters()) {
    if (p.variable.has_grad() && Norm2(p.variable.grad()) > 0.0f) ++gen_grads;
  }
  EXPECT_GT(gen_grads, 0) << GetParam() << ": generator got no gradient";
  int64_t pred_grads = 0;
  for (const nn::NamedParameter& p : model->predictor().Parameters()) {
    if (p.variable.has_grad() && Norm2(p.variable.grad()) > 0.0f) ++pred_grads;
  }
  EXPECT_GT(pred_grads, 0) << GetParam() << ": predictor got no gradient";
}

TEST_P(MethodCase, EvalMaskIsBinaryAndRespectsValidity) {
  auto model = eval::MakeMethod(GetParam(), TinyDataset(), TinyConfig());
  data::Batch batch = FirstBatch();
  Tensor mask = model->EvalMask(batch);
  EXPECT_EQ(mask.shape(), batch.valid.shape());
  for (int64_t i = 0; i < mask.numel(); ++i) {
    EXPECT_TRUE(mask.flat(i) == 0.0f || mask.flat(i) == 1.0f);
    EXPECT_LE(mask.flat(i), batch.valid.flat(i));
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, MethodCase,
                         ::testing::Values("RNP", "DAR", "DAR-cotrained",
                                           "DMR", "A2R", "Inter_RAT", "CAR",
                                           "3PLAYER", "VIB", "SPECTRA"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-' || c == '_') c = '0';
                           }
                           return name;
                         });

TEST(TableIvTest, ModuleCounts) {
  // Table IV: RNP 1gen+1pred; DAR/A2R/DMR-like methods add predictors.
  auto rnp = eval::MakeMethod("RNP", TinyDataset(), TinyConfig());
  auto dar = eval::MakeMethod("DAR", TinyDataset(), TinyConfig());
  auto dmr = eval::MakeMethod("DMR", TinyDataset(), TinyConfig());
  auto a2r = eval::MakeMethod("A2R", TinyDataset(), TinyConfig());
  auto car = eval::MakeMethod("CAR", TinyDataset(), TinyConfig());
  EXPECT_EQ(rnp->NumModules(), 2);
  EXPECT_EQ(dar->NumModules(), 3);
  EXPECT_EQ(dmr->NumModules(), 3);
  EXPECT_EQ(a2r->NumModules(), 3);
  EXPECT_EQ(car->NumModules(), 3);
}

TEST(TableIvTest, ParameterMultiples) {
  auto rnp = eval::MakeMethod("RNP", TinyDataset(), TinyConfig());
  auto dar = eval::MakeMethod("DAR", TinyDataset(), TinyConfig());
  // DAR adds exactly one predictor's worth of parameters (3x vs 2x in the
  // paper's generator==predictor-size accounting; here: 1.5x total).
  double ratio = static_cast<double>(dar->TotalParameters()) /
                 static_cast<double>(rnp->TotalParameters());
  EXPECT_NEAR(ratio, 1.5, 0.1);
}

TEST(DarTest, PrepareTrainsAndFreezesDiscriminator) {
  TrainConfig config = TinyConfig();
  config.pretrain_epochs = 6;
  config.lr = 5e-3f;
  Tensor embeddings = eval::BuildEmbeddings(TinyDataset(), config);
  DarModel dar(embeddings, config);
  dar.Prepare(TinyDataset());
  EXPECT_GT(dar.discriminator_dev_accuracy(), 0.55f);
  for (const nn::NamedParameter& p : dar.discriminator().Parameters()) {
    EXPECT_FALSE(p.variable.requires_grad()) << p.name;
  }
}

TEST(DarTest, FrozenDiscriminatorGetsNoGradient) {
  Tensor embeddings = eval::BuildEmbeddings(TinyDataset(), TinyConfig());
  DarModel dar(embeddings, TinyConfig());
  dar.Prepare(TinyDataset());
  dar.SetTraining(true);
  ag::Variable loss = dar.TrainLoss(FirstBatch());
  loss.Backward();
  for (const nn::NamedParameter& p : dar.discriminator().Parameters()) {
    // Stale pretraining gradients were cleared at freeze time; the game's
    // backward pass must not add any.
    if (p.variable.has_grad()) {
      EXPECT_EQ(Norm2(p.variable.grad()), 0.0f) << p.name;
    }
  }
}

TEST(DarTest, DiscriminatorValuesUnchangedByFit) {
  Tensor embeddings = eval::BuildEmbeddings(TinyDataset(), TinyConfig());
  DarModel dar(embeddings, TinyConfig());
  TrainRun run = Fit(dar, TinyDataset());
  EXPECT_EQ(static_cast<int64_t>(run.epochs.size()), TinyConfig().epochs);
  // Re-train the same discriminator architecture from the same seed: the
  // frozen module must still equal its post-Prepare state. Verified by
  // checking no optimizer state touched it: TrainableParameters excludes it.
  for (const ag::Variable& p : dar.TrainableParameters()) {
    for (const nn::NamedParameter& d : dar.discriminator().Parameters()) {
      EXPECT_NE(p.node().get(), d.variable.node().get());
    }
  }
}

TEST(DarTest, DiscriminatorLossTermAddsToRnpCore) {
  // With aux_weight 0 the DAR loss reduces to the RNP core on the same
  // sample stream.
  TrainConfig config = TinyConfig();
  Tensor embeddings = eval::BuildEmbeddings(TinyDataset(), config);
  config.aux_weight = 0.0f;
  DarModel dar_zero(embeddings, config);
  dar_zero.Prepare(TinyDataset());
  config.aux_weight = 1.0f;
  DarModel dar_one(embeddings, config);
  dar_one.Prepare(TinyDataset());
  data::Batch batch = FirstBatch();
  dar_zero.SetTraining(false);  // deterministic masks for comparability
  dar_one.SetTraining(false);
  float loss_zero = dar_zero.TrainLoss(batch).value().item();
  float loss_one = dar_one.TrainLoss(batch).value().item();
  EXPECT_GT(loss_one, loss_zero);
}

TEST(VibSpectraTest, EvalMaskMatchesBudget) {
  TrainConfig config = TinyConfig();
  config.sparsity_target = 0.2f;
  for (const char* name : {"VIB", "SPECTRA"}) {
    auto model = eval::MakeMethod(name, TinyDataset(), config);
    data::Batch batch = FirstBatch();
    Tensor mask = model->EvalMask(batch);
    for (int64_t i = 0; i < batch.batch_size(); ++i) {
      float len = 0.0f, selected = 0.0f;
      for (int64_t j = 0; j < batch.max_len(); ++j) {
        len += batch.valid.at(i, j);
        selected += mask.at(i, j);
      }
      int64_t expected = std::max<int64_t>(
          1, static_cast<int64_t>(0.2f * len + 0.5f));
      EXPECT_EQ(static_cast<int64_t>(selected), expected) << name;
    }
  }
}

TEST(BudgetTopKTest, SelectsHighestScores) {
  Tensor scores(Shape{1, 5}, {0.1f, 0.9f, 0.5f, 0.8f, 0.2f});
  Tensor valid(Shape{1, 5}, 1.0f);
  Tensor mask = BudgetTopKMask(scores, valid, 0.4f);  // k = 2
  EXPECT_EQ(mask.at(0, 1), 1.0f);
  EXPECT_EQ(mask.at(0, 3), 1.0f);
  EXPECT_EQ(SumAll(mask), 2.0f);
}

TEST(BudgetTopKTest, NeverSelectsPadding) {
  Tensor scores(Shape{1, 4}, {0.1f, 0.2f, 9.0f, 9.0f});
  Tensor valid(Shape{1, 4}, {1, 1, 0, 0});
  Tensor mask = BudgetTopKMask(scores, valid, 0.5f);
  EXPECT_EQ(mask.at(0, 2), 0.0f);
  EXPECT_EQ(mask.at(0, 3), 0.0f);
  EXPECT_EQ(SumAll(mask), 1.0f);
}

TEST(MakeMethodTest, UnknownNameAborts) {
  EXPECT_DEATH(eval::MakeMethod("NOPE", TinyDataset(), TinyConfig()),
               "unknown method");
}

}  // namespace
}  // namespace core
}  // namespace dar

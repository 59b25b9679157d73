// Tests for core/trainer.h: the Fit loop, pretraining helpers, snapshots.
#include "core/trainer.h"

#include <memory>

#include <gtest/gtest.h>

#include "core/rnp.h"
#include "data/dataloader.h"
#include "nn/loss.h"
#include "datasets/beer.h"
#include "eval/experiment.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace core {
namespace {

const datasets::SyntheticDataset& TrainerDataset() {
  static const datasets::SyntheticDataset& ds = *new datasets::SyntheticDataset(
      datasets::MakeBeerDataset(datasets::BeerAspect::kAroma,
                                {.train = 96, .dev = 32, .test = 32},
                                /*seed=*/81));
  return ds;
}

TrainConfig TinyConfig() {
  TrainConfig config;
  config.embedding_dim = 8;
  config.hidden_dim = 6;
  config.batch_size = 16;
  config.epochs = 3;
  config.lr = 3e-3f;
  return config;
}

TEST(FitTest, RunsRequestedEpochs) {
  auto model = eval::MakeMethod("RNP", TrainerDataset(), TinyConfig());
  TrainRun run = Fit(*model, TrainerDataset());
  EXPECT_EQ(run.epochs.size(), 3u);
  EXPECT_GE(run.best_epoch, 0);
  EXPECT_LT(run.best_epoch, 3);
}

TEST(FitTest, BestDevAccIsMaximum) {
  auto model = eval::MakeMethod("RNP", TrainerDataset(), TinyConfig());
  TrainRun run = Fit(*model, TrainerDataset());
  for (const EpochStats& stats : run.epochs) {
    EXPECT_LE(stats.dev_acc, run.best_dev_acc + 1e-6f);
  }
}

TEST(FitTest, LossDecreasesOverTraining) {
  TrainConfig config = TinyConfig();
  config.epochs = 6;
  auto model = eval::MakeMethod("RNP", TrainerDataset(), config);
  TrainRun run = Fit(*model, TrainerDataset());
  EXPECT_LT(run.epochs.back().train_loss, run.epochs.front().train_loss);
}

TEST(FitTest, LeavesModelInEvalMode) {
  auto model = eval::MakeMethod("RNP", TrainerDataset(), TinyConfig());
  Fit(*model, TrainerDataset());
  EXPECT_FALSE(model->generator().training());
  EXPECT_FALSE(model->predictor().training());
}

TEST(FitTest, ParametersActuallyChange) {
  auto model = eval::MakeMethod("RNP", TrainerDataset(), TinyConfig());
  std::vector<Tensor> before;
  for (const ag::Variable& p : model->TrainableParameters()) {
    before.push_back(p.value());
  }
  Fit(*model, TrainerDataset());
  bool any_changed = false;
  std::vector<ag::Variable> params = model->TrainableParameters();
  for (size_t i = 0; i < params.size(); ++i) {
    if (!params[i].value().AllClose(before[i], 1e-7f)) any_changed = true;
  }
  EXPECT_TRUE(any_changed);
}

TEST(FitPredictorTest, FullTextPretrainingImprovesAccuracy) {
  const datasets::SyntheticDataset& ds = TrainerDataset();
  TrainConfig config = TinyConfig();
  Tensor embeddings = eval::BuildEmbeddings(ds, config);
  Pcg32 rng(1);
  Predictor predictor(embeddings, config, rng);

  // Baseline: untrained accuracy (should be ~chance on a balanced set).
  data::DataLoader loader(ds.dev, 16, /*shuffle=*/false);
  predictor.SetTraining(false);
  int64_t correct = 0, total = 0;
  for (const data::Batch& batch : loader.Sequential()) {
    Tensor logits = predictor.ForwardFullText(batch).value();
    std::vector<int64_t> preds = ArgMaxRows(logits);
    for (size_t i = 0; i < preds.size(); ++i) {
      if (preds[i] == batch.labels[i]) ++correct;
    }
    total += batch.batch_size();
  }
  float untrained = static_cast<float>(correct) / static_cast<float>(total);

  Pcg32 train_rng(2);
  float trained = FitFullTextPredictor(predictor, ds, /*epochs=*/6,
                                       /*batch_size=*/16, /*lr=*/3e-3f,
                                       train_rng);
  EXPECT_GT(trained, untrained);
  EXPECT_GT(trained, 0.7f);
}

TEST(EvaluateRationaleAccuracyTest, BoundedAndDeterministic) {
  auto model = eval::MakeMethod("RNP", TrainerDataset(), TinyConfig());
  float a1 = EvaluateRationaleAccuracy(*model, TrainerDataset().dev, 16);
  float a2 = EvaluateRationaleAccuracy(*model, TrainerDataset().dev, 16);
  EXPECT_GE(a1, 0.0f);
  EXPECT_LE(a1, 1.0f);
  EXPECT_EQ(a1, a2);  // eval path is deterministic
}

/// A deliberately defective model: its training loss classifies the full
/// text and never consults the generator, so every generator parameter is
/// orphaned from the loss graph — exactly the class of silent wiring bug
/// audit_first_step exists to catch on step 0.
class PredictorOnlyModel : public RnpModel {
 public:
  using RnpModel::RnpModel;

  ag::Variable TrainLoss(const data::Batch& batch) override {
    return nn::CrossEntropy(predictor().ForwardFullText(batch), batch.labels);
  }

  std::unique_ptr<RationalizerBase> CloneArchitecture() const override {
    return std::make_unique<PredictorOnlyModel>(embeddings(), config());
  }
};

TEST(AuditFirstStepTest, CleanModelTrainsNormally) {
  TrainConfig config = TinyConfig();
  config.epochs = 1;
  config.pretrain_epochs = 0;
  config.audit_first_step = true;
  auto model = eval::MakeMethod("RNP", TrainerDataset(), config);
  TrainRun run = Fit(*model, TrainerDataset());
  EXPECT_EQ(run.epochs.size(), 1u);
  // Sharded, the audit reads shard 0's graph on its replica.
  auto sharded = eval::MakeMethod("DAR", TrainerDataset(), config);
  run = Fit(*sharded, TrainerDataset(),
            ParallelTrainConfig{.num_workers = 2, .num_shards = 2});
  EXPECT_EQ(run.epochs.size(), 1u);
}

TEST(AuditFirstStepDeathTest, SeededDetachedParametersAbortOnStepZero) {
  TrainConfig config = TinyConfig();
  config.epochs = 1;
  config.pretrain_epochs = 0;
  config.audit_first_step = true;
  PredictorOnlyModel model(
      eval::BuildEmbeddings(TrainerDataset(), config), config);
  EXPECT_DEATH(Fit(model, TrainerDataset()), "audit_first_step");
}

TEST(AuditFirstStepDeathTest, ShardedSeededDetachedParametersAbortOnStepZero) {
  TrainConfig config = TinyConfig();
  config.epochs = 1;
  config.pretrain_epochs = 0;
  config.audit_first_step = true;
  PredictorOnlyModel model(
      eval::BuildEmbeddings(TrainerDataset(), config), config);
  EXPECT_DEATH(Fit(model, TrainerDataset(),
                   ParallelTrainConfig{.num_workers = 2, .num_shards = 2}),
               "audit_first_step");
}

TEST(AuditFirstStepDeathTest, DefectSurvivesSilentlyWithAuditOff) {
  // The control: without the audit the defective model trains "fine" —
  // which is why the first-step audit is worth its one-batch cost.
  TrainConfig config = TinyConfig();
  config.epochs = 1;
  config.pretrain_epochs = 0;
  config.audit_first_step = false;
  PredictorOnlyModel model(
      eval::BuildEmbeddings(TrainerDataset(), config), config);
  TrainRun run = Fit(model, TrainerDataset());
  EXPECT_EQ(run.epochs.size(), 1u);
}

TEST(NamedTrainableParametersTest, CoversEveryTrainableParameter) {
  auto model = eval::MakeMethod("RNP", TrainerDataset(), TinyConfig());
  std::vector<nn::NamedParameter> named = model->NamedTrainableParameters();
  std::vector<ag::Variable> params = model->TrainableParameters();
  ASSERT_EQ(named.size(), params.size());
  for (size_t i = 0; i < named.size(); ++i) {
    EXPECT_FALSE(named[i].name.empty());
    // Positional correspondence with the optimizer's parameter list.
    EXPECT_EQ(named[i].variable.node().get(), params[i].node().get());
  }
}

}  // namespace
}  // namespace core
}  // namespace dar

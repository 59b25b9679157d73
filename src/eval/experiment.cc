#include "eval/experiment.h"

#include <utility>

#include "core/baselines/a2r.h"
#include "core/baselines/car.h"
#include "core/baselines/dmr.h"
#include "core/baselines/inter_rat.h"
#include "core/baselines/spectra.h"
#include "core/baselines/three_player.h"
#include "core/baselines/vib.h"
#include "core/dar.h"
#include "core/rnp.h"
#include "core/sentence_level.h"
#include "data/dataloader.h"
#include "data/synthetic_glove.h"
#include "nn/loss.h"
#include "tensor/check.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace eval {

Tensor BuildEmbeddings(const datasets::SyntheticDataset& dataset,
                       const core::TrainConfig& config) {
  data::SyntheticGloveConfig glove;
  glove.dim = config.embedding_dim;
  // The embedding table is part of the (simulated) pretrained environment:
  // it depends on the dataset seed only, never on the method, so every
  // method sees identical vectors — as all paper baselines share GloVe.
  Pcg32 rng(config.seed ^ 0x610c3ULL, 7);
  return BuildSyntheticGlove(dataset.family, glove, rng);
}

std::unique_ptr<core::RationalizerBase> MakeMethod(
    const std::string& name, const datasets::SyntheticDataset& dataset,
    const core::TrainConfig& config) {
  Tensor embeddings = BuildEmbeddings(dataset, config);
  if (name == "RNP") {
    return std::make_unique<core::RnpModel>(std::move(embeddings), config);
  }
  if (name == "DAR") {
    return std::make_unique<core::DarModel>(std::move(embeddings), config);
  }
  if (name == "DAR-cotrained") {
    return std::make_unique<core::DarModel>(std::move(embeddings), config,
                                            /*cotrained=*/true);
  }
  if (name == "DMR") {
    return std::make_unique<core::DmrModel>(std::move(embeddings), config);
  }
  if (name == "A2R") {
    return std::make_unique<core::A2rModel>(std::move(embeddings), config);
  }
  if (name == "Inter_RAT") {
    return std::make_unique<core::InterRatModel>(std::move(embeddings), config);
  }
  if (name == "CAR") {
    return std::make_unique<core::CarModel>(std::move(embeddings), config);
  }
  if (name == "3PLAYER") {
    return std::make_unique<core::ThreePlayerModel>(std::move(embeddings),
                                                    config);
  }
  if (name == "VIB") {
    return std::make_unique<core::VibModel>(std::move(embeddings), config);
  }
  if (name == "SPECTRA") {
    return std::make_unique<core::SpectraModel>(std::move(embeddings), config);
  }
  if (name == "RNP*") {
    return std::make_unique<core::SentenceRnpModel>(
        std::move(embeddings), config, dataset.vocab.IdOrUnk("."));
  }
  if (name == "A2R*") {
    return std::make_unique<core::SentenceA2rModel>(
        std::move(embeddings), config, dataset.vocab.IdOrUnk("."));
  }
  DAR_CHECK_MSG(false, "unknown method name");
  return nullptr;
}

MethodResult EvaluateOnTest(core::RationalizerBase& model,
                            const datasets::SyntheticDataset& dataset) {
  MethodResult result;
  result.method = model.name();
  model.SetTraining(false);

  data::DataLoader loader(dataset.test, model.config().batch_size,
                          /*shuffle=*/false);
  RationaleMetricsAccumulator accumulator;
  int64_t rationale_correct = 0, full_correct = 0, total = 0;
  std::vector<int64_t> full_preds, labels;
  for (const data::Batch& batch : loader.Sequential()) {
    Tensor mask = model.EvalMask(batch);
    accumulator.Add(mask, batch);

    Tensor rationale_logits = model.PredictLogits(batch, mask);
    std::vector<int64_t> preds = ArgMaxRows(rationale_logits);
    Tensor full_logits = model.PredictLogits(batch, batch.valid);
    std::vector<int64_t> fpreds = ArgMaxRows(full_logits);
    for (size_t i = 0; i < preds.size(); ++i) {
      if (preds[i] == batch.labels[i]) ++rationale_correct;
      if (fpreds[i] == batch.labels[i]) ++full_correct;
      full_preds.push_back(fpreds[i]);
      labels.push_back(batch.labels[i]);
    }
    total += batch.batch_size();
  }

  result.rationale = accumulator.Finalize();
  result.rationale_acc =
      total > 0 ? static_cast<float>(rationale_correct) / static_cast<float>(total)
                : 0.0f;
  result.full_text_acc =
      total > 0 ? static_cast<float>(full_correct) / static_cast<float>(total)
                : 0.0f;
  result.full_text_prf = PositiveClassPrf(full_preds, labels);
  return result;
}

MethodResult TrainAndEvaluate(core::RationalizerBase& model,
                              const datasets::SyntheticDataset& dataset,
                              bool verbose) {
  core::TrainRun run = core::Fit(model, dataset, verbose);
  MethodResult result = EvaluateOnTest(model, dataset);
  result.train_run = std::move(run);
  return result;
}

}  // namespace eval
}  // namespace dar

#include "core/trainer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "check/graph_audit.h"
#include "core/game_loop.h"
#include "core/parallel_trainer.h"
#include "core/telemetry.h"
#include "data/dataloader.h"
#include "nn/loss.h"
#include "obs/trace.h"
#include "optim/adam.h"
#include "optim/clip.h"
#include "tensor/check.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace core {

namespace {

/// Snapshot/restore of parameter values for best-epoch selection.
std::vector<Tensor> SnapshotValues(const std::vector<ag::Variable>& params) {
  std::vector<Tensor> values;
  values.reserve(params.size());
  for (const ag::Variable& p : params) values.push_back(p.value());
  return values;
}

void RestoreValues(std::vector<ag::Variable>& params,
                   const std::vector<Tensor>& values) {
  DAR_CHECK_EQ(params.size(), values.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i].mutable_value() = values[i];
  }
}

}  // namespace

void AuditFirstStepOrDie(RationalizerBase& model, const ag::Variable& loss) {
  check::AuditReport report =
      check::AuditGraph(loss, model.NamedTrainableParameters());
  if (report.clean()) return;
  std::fprintf(stderr,
               "audit_first_step: training-graph audit of %s failed on "
               "step 0:\n%s",
               model.name().c_str(), report.ToString().c_str());
  std::abort();
}

TrainRun RunGame(RationalizerBase& model,
                 const datasets::SyntheticDataset& dataset,
                 const std::string& tag, const GradientFn& gradient,
                 const std::function<void()>& after_step, bool verbose,
                 obs::TrainObserver* observer) {
  const TrainConfig& config = model.config();
  // Kernel-thread knob: applied at entry (a quiesced point — no forward is
  // in flight). Bit-identical for any value, so training results do not
  // depend on it.
  if (config.kernel_threads > 0) gemm::SetKernelThreads(config.kernel_threads);
  model.Prepare(dataset);

  // Telemetry fan-out: the classic verbose console line is itself a
  // TrainObserver now; user observers ride alongside it.
  obs::ConsoleTrainLogger console;
  obs::MultiTrainObserver observers;
  if (verbose) observers.Add(&console);
  observers.Add(observer);
  const bool observing = !observers.empty();
  // The rationale-shift gauge needs a frozen full-text probe; it trains on
  // its own RNG streams and only measures on `model`, so building it never
  // perturbs the trajectory (telemetry stays passive).
  std::unique_ptr<RationaleShiftProbe> probe;
  if (observing && observers.WantsRationaleShift()) {
    probe = std::make_unique<RationaleShiftProbe>(model, dataset);
  }

  std::vector<ag::Variable> params = model.TrainableParameters();
  optim::Adam adam(params, {.lr = config.lr});
  data::DataLoader train_loader(dataset.train, config.batch_size,
                                /*shuffle=*/true);

  TrainRun run;
  std::vector<Tensor> best_values;
  EpochTelemetryAccumulator epoch_acc;
  for (int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    model.SetTraining(true);
    double loss_sum = 0.0;
    int64_t batches = 0;
    for (const data::Batch& batch : train_loader.Epoch(model.rng())) {
      obs::Span batch_span("train.batch");
      adam.ZeroGrad();
      const BatchLoss loss = gradient(
          batch, config.audit_first_step && epoch == 0 && batches == 0);
      const float grad_norm = optim::ClipGradNorm(params, config.grad_clip);
      {
        obs::Span step_span("train.step");
        adam.Step();
      }
      after_step();
      loss_sum += loss.value;
      ++batches;
      if (observing) {
        obs::BatchTelemetry telemetry = MakeBatchTelemetry(
            epoch, batches - 1, loss.value, grad_norm, loss.breakdown);
        if (probe != nullptr) {
          telemetry.rationale_shift = probe->MeasureShift(model, batch);
          telemetry.has_shift = true;
        }
        observers.OnBatch(telemetry);
        epoch_acc.Add(telemetry);
      }
    }

    model.SetTraining(false);
    float dev_acc;
    {
      obs::Span eval_span("train.eval");
      dev_acc =
          EvaluateRationaleAccuracy(model, dataset.dev, config.batch_size);
    }
    EpochStats stats;
    stats.train_loss = static_cast<float>(loss_sum / std::max<int64_t>(batches, 1));
    stats.dev_acc = dev_acc;
    run.epochs.push_back(stats);
    // >= breaks ties toward later epochs: dev accuracy saturates early on
    // the synthetic tasks while the rationale keeps refining under Omega.
    if (dev_acc >= run.best_dev_acc || run.best_epoch < 0) {
      run.best_dev_acc = dev_acc;
      run.best_epoch = epoch;
      best_values = SnapshotValues(params);
    }
    if (observing) {
      observers.OnEpoch(
          epoch_acc.Finish(epoch, tag, stats.train_loss, dev_acc));
    }
  }
  if (!best_values.empty()) RestoreValues(params, best_values);
  model.SetTraining(false);
  return run;
}

TrainRun Fit(RationalizerBase& model, const datasets::SyntheticDataset& dataset,
             bool verbose, obs::TrainObserver* observer) {
  auto gradient = [&model](const data::Batch& batch, bool audit) {
    ag::Variable loss = model.TrainLoss(batch);
    loss.Backward();
    if (audit) AuditFirstStepOrDie(model, loss);
    return BatchLoss{loss.value().item(), model.last_loss_breakdown(), loss};
  };
  return RunGame(model, dataset, model.name(), gradient, /*after_step=*/[] {},
                 verbose, observer);
}

TrainRun Fit(RationalizerBase& model, const datasets::SyntheticDataset& dataset,
             const ParallelTrainConfig& parallel, bool verbose,
             obs::TrainObserver* observer) {
  DataParallelTrainer trainer(model, parallel);
  return trainer.Fit(dataset, verbose, observer);
}

float FitPredictorWithMask(Predictor& predictor,
                           const datasets::SyntheticDataset& dataset,
                           int64_t epochs, int64_t batch_size, float lr,
                           Pcg32& rng, MaskFn mask_fn, const void* mask_ctx) {
  std::vector<ag::Variable> params;
  for (const nn::NamedParameter& p : predictor.Parameters()) {
    if (p.variable.requires_grad()) params.push_back(p.variable);
  }
  optim::Adam adam(params, {.lr = lr});
  data::DataLoader train_loader(dataset.train, batch_size, /*shuffle=*/true);
  data::DataLoader dev_loader(dataset.dev, batch_size, /*shuffle=*/false);

  for (int64_t epoch = 0; epoch < epochs; ++epoch) {
    predictor.SetTraining(true);
    for (const data::Batch& batch : train_loader.Epoch(rng)) {
      adam.ZeroGrad();
      Tensor mask = mask_fn ? mask_fn(batch, mask_ctx) : batch.valid;
      ag::Variable logits = predictor.ForwardWithConstMask(batch, mask);
      ag::Variable loss = nn::CrossEntropy(logits, batch.labels);
      loss.Backward();
      optim::ClipGradNorm(params, 5.0f);
      adam.Step();
    }
  }

  predictor.SetTraining(false);
  int64_t correct = 0, total = 0;
  for (const data::Batch& batch : dev_loader.Sequential()) {
    Tensor mask = mask_fn ? mask_fn(batch, mask_ctx) : batch.valid;
    Tensor logits = predictor.ForwardWithConstMask(batch, mask).value();
    float acc = nn::Accuracy(logits, batch.labels);
    correct += static_cast<int64_t>(acc * static_cast<float>(batch.batch_size()) + 0.5f);
    total += batch.batch_size();
  }
  return total > 0 ? static_cast<float>(correct) / static_cast<float>(total)
                   : 0.0f;
}

float FitFullTextPredictor(Predictor& predictor,
                           const datasets::SyntheticDataset& dataset,
                           int64_t epochs, int64_t batch_size, float lr,
                           Pcg32& rng) {
  return FitPredictorWithMask(predictor, dataset, epochs, batch_size, lr, rng,
                              /*mask_fn=*/nullptr, /*mask_ctx=*/nullptr);
}

float EvaluateRationaleAccuracy(RationalizerBase& model,
                                const std::vector<data::Example>& examples,
                                int64_t batch_size) {
  data::DataLoader loader(examples, batch_size, /*shuffle=*/false);
  int64_t correct = 0, total = 0;
  for (const data::Batch& batch : loader.Sequential()) {
    Tensor mask = model.EvalMask(batch);
    Tensor logits = model.PredictLogits(batch, mask);
    std::vector<int64_t> preds = ArgMaxRows(logits);
    for (size_t i = 0; i < preds.size(); ++i) {
      if (preds[i] == batch.labels[i]) ++correct;
    }
    total += batch.batch_size();
  }
  return total > 0 ? static_cast<float>(correct) / static_cast<float>(total)
                   : 0.0f;
}

}  // namespace core
}  // namespace dar

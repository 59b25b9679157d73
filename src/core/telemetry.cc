#include "core/telemetry.h"

#include <cmath>

#include "core/trainer.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace core {

RationaleShiftProbe::RationaleShiftProbe(
    const RationalizerBase& model, const datasets::SyntheticDataset& dataset)
    // The stream constants only have to differ from the model's (0xda5 in
    // RationalizerBase) so probe pretraining never replays model noise.
    : init_rng_(model.config().seed, /*stream=*/0x0b5e),
      probe_(model.embeddings(), model.config(), init_rng_) {
  const TrainConfig& config = model.config();
  Pcg32 train_rng(config.seed, /*stream=*/0x0b5f);
  FitFullTextPredictor(probe_, dataset, config.pretrain_epochs,
                       config.batch_size, config.lr, train_rng);
  probe_.SetRequiresGrad(false);
  probe_.SetTraining(false);
}

double RationaleShiftProbe::MeasureShift(RationalizerBase& model,
                                         const data::Batch& batch) {
  // The frozen probe reads the model's deterministic rationale and the
  // full input. EvalMask toggles eval mode around the computation and
  // restores the previous mode, so calling this mid-training is
  // side-effect free.
  Tensor mask = model.EvalMask(batch);
  Tensor rationale_logits = probe_.ForwardWithConstMask(batch, mask).value();
  Tensor full_logits = probe_.ForwardFullText(batch).value();

  // Cross-entropy gap: how much label cross-entropy the probe loses when
  // it reads the rationale instead of the full input. A semantically
  // aligned rationale carries the evidence the full-text reader keys on
  // (gap ~ 0); a deviated rationale is legible only to the predictor that
  // drifted with the generator, and the probe falls back toward chance.
  // Comparing the probe against itself keeps the trained predictor's
  // confidence and accuracy out of the gauge entirely.
  Tensor log_z = LogSoftmaxRows(rationale_logits);
  Tensor log_x = LogSoftmaxRows(full_logits);
  const int64_t rows = log_z.size(0);
  double gap_sum = 0.0;
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t label = batch.labels[static_cast<size_t>(i)];
    gap_sum += static_cast<double>(log_x.at(i, label)) -
               static_cast<double>(log_z.at(i, label));
  }
  double gap = rows > 0 ? gap_sum / static_cast<double>(rows) : 0.0;
  // The gap can dip below zero (a lucky rationale can read better than the
  // full text); zero is the aligned floor the gauge reports.
  return gap > 0.0 ? gap : 0.0;
}

void EpochTelemetryAccumulator::Add(const obs::BatchTelemetry& batch) {
  ++batches_;
  grad_norm_ += batch.grad_norm;
  if (batch.has_breakdown) {
    ++breakdown_batches_;
    task_ce_ += batch.task_ce;
    omega_ += batch.omega;
    sparsity_ += batch.sparsity;
  }
  if (batch.has_align) {
    ++align_batches_;
    align_ce_ += batch.align_ce;
  }
  if (batch.has_shift) {
    ++shift_batches_;
    shift_ += batch.rationale_shift;
  }
}

obs::EpochTelemetry EpochTelemetryAccumulator::Finish(
    int64_t epoch, const std::string& model, double train_loss,
    double dev_acc) {
  obs::EpochTelemetry t;
  t.epoch = epoch;
  t.batches = batches_;
  t.model = model;
  t.train_loss = train_loss;
  t.dev_acc = dev_acc;
  if (batches_ > 0) t.grad_norm = grad_norm_ / batches_;
  if (breakdown_batches_ > 0) {
    t.has_breakdown = true;
    t.task_ce = task_ce_ / breakdown_batches_;
    t.omega = omega_ / breakdown_batches_;
    t.sparsity = sparsity_ / breakdown_batches_;
  }
  if (align_batches_ > 0) {
    t.has_align = true;
    t.align_ce = align_ce_ / align_batches_;
  }
  if (shift_batches_ > 0) {
    t.has_shift = true;
    t.rationale_shift = shift_ / shift_batches_;
  }
  *this = EpochTelemetryAccumulator();
  return t;
}

obs::BatchTelemetry MakeBatchTelemetry(int64_t epoch, int64_t batch,
                                       double loss, double grad_norm,
                                       const LossBreakdown& breakdown) {
  obs::BatchTelemetry t;
  t.epoch = epoch;
  t.batch = batch;
  t.loss = loss;
  t.grad_norm = grad_norm;
  if (breakdown.valid) {
    t.has_breakdown = true;
    t.task_ce = breakdown.task_ce;
    t.omega = breakdown.omega;
    t.sparsity = breakdown.sparsity;
    if (breakdown.has_align) {
      t.has_align = true;
      t.align_ce = breakdown.align_ce;
    }
  }
  return t;
}

}  // namespace core
}  // namespace dar

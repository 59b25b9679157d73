#include "obs/train_observer.h"

#include <cstdio>
#include <utility>

namespace dar {
namespace obs {

namespace {

/// Gradient norms are small positives; a 1-2-5 ladder from 1e-3 to 100
/// brackets everything the clipping threshold (5.0) leaves possible, with
/// overflow catching exploding-gradient pathologies.
const std::vector<double>& GradNormBuckets() {
  static const std::vector<double>& buckets = *new std::vector<double>{
      1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5,
      1.0,  2.0,  5.0,  10.0, 20.0, 50.0, 100.0};
  return buckets;
}

}  // namespace

MetricsTrainObserver::MetricsTrainObserver(MetricsRegistry* registry,
                                           std::string prefix)
    : registry_(registry), prefix_(std::move(prefix)) {
  steps_ = &registry_->GetCounter(prefix_ + ".steps_total");
  epochs_ = &registry_->GetCounter(prefix_ + ".epochs_total");
  loss_ = &registry_->GetGauge(prefix_ + ".loss");
  task_ce_ = &registry_->GetGauge(prefix_ + ".task_ce");
  align_ce_ = &registry_->GetGauge(prefix_ + ".align_ce");
  omega_ = &registry_->GetGauge(prefix_ + ".omega");
  sparsity_ = &registry_->GetGauge(prefix_ + ".rationale_sparsity");
  shift_ = &registry_->GetGauge(prefix_ + ".rationale_shift");
  dev_acc_ = &registry_->GetGauge(prefix_ + ".dev_acc");
  grad_norm_ =
      &registry_->GetHistogram(prefix_ + ".grad_norm", GradNormBuckets());
}

void MetricsTrainObserver::OnBatch(const BatchTelemetry& telemetry) {
  steps_->Increment();
  loss_->Set(telemetry.loss);
  grad_norm_->Observe(telemetry.grad_norm);
  if (telemetry.has_breakdown) {
    task_ce_->Set(telemetry.task_ce);
    omega_->Set(telemetry.omega);
    sparsity_->Set(telemetry.sparsity);
  }
  if (telemetry.has_align) align_ce_->Set(telemetry.align_ce);
  if (telemetry.has_shift) shift_->Set(telemetry.rationale_shift);
}

void MetricsTrainObserver::OnEpoch(const EpochTelemetry& telemetry) {
  epochs_->Increment();
  dev_acc_->Set(telemetry.dev_acc);
}

JsonlTrainObserver::JsonlTrainObserver(std::ostream& out, bool per_batch)
    : out_(&out), per_batch_(per_batch) {}

void JsonlTrainObserver::OnBatch(const BatchTelemetry& t) {
  if (!per_batch_) return;
  std::ostream& out = *out_;
  out << "{\"event\":\"batch\",\"epoch\":" << t.epoch
      << ",\"batch\":" << t.batch << ",\"loss\":" << JsonNumber(t.loss)
      << ",\"grad_norm\":" << JsonNumber(t.grad_norm);
  if (t.has_breakdown) {
    out << ",\"task_ce\":" << JsonNumber(t.task_ce)
        << ",\"omega\":" << JsonNumber(t.omega)
        << ",\"rationale_sparsity\":" << JsonNumber(t.sparsity);
  }
  if (t.has_align) out << ",\"align_ce\":" << JsonNumber(t.align_ce);
  if (t.has_shift) {
    out << ",\"rationale_shift\":" << JsonNumber(t.rationale_shift);
  }
  out << "}\n";
}

void JsonlTrainObserver::OnEpoch(const EpochTelemetry& t) {
  std::ostream& out = *out_;
  out << "{\"event\":\"epoch\",\"model\":\"" << JsonEscape(t.model)
      << "\",\"epoch\":" << t.epoch << ",\"batches\":" << t.batches
      << ",\"train_loss\":" << JsonNumber(t.train_loss)
      << ",\"dev_acc\":" << JsonNumber(t.dev_acc)
      << ",\"grad_norm\":" << JsonNumber(t.grad_norm);
  if (t.has_breakdown) {
    out << ",\"task_ce\":" << JsonNumber(t.task_ce)
        << ",\"omega\":" << JsonNumber(t.omega)
        << ",\"rationale_sparsity\":" << JsonNumber(t.sparsity);
  }
  if (t.has_align) out << ",\"align_ce\":" << JsonNumber(t.align_ce);
  if (t.has_shift) {
    out << ",\"rationale_shift\":" << JsonNumber(t.rationale_shift);
  }
  out << "}\n";
  out.flush();
}

void ConsoleTrainLogger::OnEpoch(const EpochTelemetry& t) {
  std::printf("  [%s] epoch %2lld  loss %.4f  dev_acc %.3f\n",
              t.model.c_str(), static_cast<long long>(t.epoch), t.train_loss,
              t.dev_acc);
  std::fflush(stdout);
}

}  // namespace obs
}  // namespace dar

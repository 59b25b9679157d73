// Training telemetry: the observer interface core::Fit() and the
// data-parallel trainer report into, plus stock observers (metrics
// registry, JSONL stream, console logger).
//
// The trainer fills a BatchTelemetry per optimizer step and an
// EpochTelemetry per epoch. All fields are plain numbers so this header
// stays dependency-free; the model-side glue (loss breakdowns, the frozen
// full-text probe behind the rationale-shift gauge) lives in core/.
//
// The rationale-shift gauge is the paper's Fig. 3 phenomenon made watchable
// during training: how much label cross-entropy a *frozen, full-text
// pretrained* probe predictor loses when it reads the current rationale
// instead of the full input. When the generator/predictor pair collude on
// deviated rationales (vanilla RNP), the frozen probe cannot read them and
// the gap grows toward chance; DAR's alignment term keeps the rationale
// legible to exactly such a frozen full-text reader, so the gauge shrinks.
// Computing it costs extra forwards, so observers that do not need it
// override WantsRationaleShift().
#ifndef DAR_OBS_TRAIN_OBSERVER_H_
#define DAR_OBS_TRAIN_OBSERVER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace dar {
namespace obs {

/// Telemetry of one optimizer step.
struct BatchTelemetry {
  int64_t epoch = 0;
  int64_t batch = 0;
  /// Total training loss (per-example mean over the batch).
  double loss = 0.0;
  /// Loss components (valid when has_breakdown): task cross-entropy
  /// H_c(Y, P(Z)), DAR's alignment cross-entropy H_c(Y, P^t(Z)) (valid when
  /// has_align), and the sparsity/coherence regularizer Omega(M).
  double task_ce = 0.0;
  double align_ce = 0.0;
  double omega = 0.0;
  /// Global L2 gradient norm before clipping.
  double grad_norm = 0.0;
  /// Fraction of valid tokens the sampled rationale selected.
  double sparsity = 0.0;
  /// Rationale-shift gauge (valid when has_shift): mean label
  /// cross-entropy the frozen full-text probe loses reading the batch's
  /// deterministic rationale instead of the full input.
  double rationale_shift = 0.0;
  bool has_breakdown = false;
  bool has_align = false;
  bool has_shift = false;
};

/// Telemetry of one epoch: batch means plus the dev evaluation.
struct EpochTelemetry {
  int64_t epoch = 0;
  int64_t batches = 0;
  double train_loss = 0.0;
  double dev_acc = 0.0;
  double task_ce = 0.0;
  double align_ce = 0.0;
  double omega = 0.0;
  double grad_norm = 0.0;
  double sparsity = 0.0;
  double rationale_shift = 0.0;
  bool has_breakdown = false;
  bool has_align = false;
  bool has_shift = false;
  /// Display tag, e.g. "DAR" or "RNP x4" for a 4-shard parallel run.
  std::string model;
};

/// Interface the trainers call. Default implementations ignore everything,
/// so observers override only the hooks they need.
class TrainObserver {
 public:
  virtual ~TrainObserver() = default;
  virtual void OnBatch(const BatchTelemetry& telemetry) { (void)telemetry; }
  virtual void OnEpoch(const EpochTelemetry& telemetry) { (void)telemetry; }
  /// Whether the trainer should build the frozen probe and compute the
  /// rationale-shift gauge (two extra eval forwards per batch).
  virtual bool WantsRationaleShift() const { return true; }
};

/// Fans out to several observers.
class MultiTrainObserver : public TrainObserver {
 public:
  void Add(TrainObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
  }
  bool empty() const { return observers_.empty(); }
  void OnBatch(const BatchTelemetry& telemetry) override {
    for (TrainObserver* o : observers_) o->OnBatch(telemetry);
  }
  void OnEpoch(const EpochTelemetry& telemetry) override {
    for (TrainObserver* o : observers_) o->OnEpoch(telemetry);
  }
  bool WantsRationaleShift() const override {
    for (TrainObserver* o : observers_) {
      if (o->WantsRationaleShift()) return true;
    }
    return false;
  }

 private:
  std::vector<TrainObserver*> observers_;
};

/// Records training telemetry into a MetricsRegistry: per-step gauges
/// (live values, including `<prefix>.rationale_shift`), step counters, and
/// a gradient-norm histogram — the training half of the shared export
/// surface (the serving half is serve::ServingStats).
class MetricsTrainObserver : public TrainObserver {
 public:
  explicit MetricsTrainObserver(MetricsRegistry* registry,
                                std::string prefix = "train");

  void OnBatch(const BatchTelemetry& telemetry) override;
  void OnEpoch(const EpochTelemetry& telemetry) override;

 private:
  MetricsRegistry* registry_;
  std::string prefix_;
  Counter* steps_;
  Counter* epochs_;
  Gauge* loss_;
  Gauge* task_ce_;
  Gauge* align_ce_;
  Gauge* omega_;
  Gauge* sparsity_;
  Gauge* shift_;
  Gauge* dev_acc_;
  Histogram* grad_norm_;
};

/// Writes one JSON object per epoch (and optionally per batch) to a
/// stream; the machine-readable training log.
class JsonlTrainObserver : public TrainObserver {
 public:
  /// `out` must outlive the observer. With `per_batch`, every optimizer
  /// step also emits a line ({"event":"batch",...}).
  explicit JsonlTrainObserver(std::ostream& out, bool per_batch = false);

  void OnBatch(const BatchTelemetry& telemetry) override;
  void OnEpoch(const EpochTelemetry& telemetry) override;

 private:
  std::ostream* out_;
  bool per_batch_;
};

/// The human-readable epoch log: one line per epoch, byte-identical to the
/// historical `  [NAME] epoch  N  loss L  dev_acc A` printf. Fit(verbose=
/// true) attaches one.
class ConsoleTrainLogger : public TrainObserver {
 public:
  void OnEpoch(const EpochTelemetry& telemetry) override;
  /// The shift gauge costs extra forwards, and the epoch line does not
  /// show it.
  bool WantsRationaleShift() const override { return false; }
};

}  // namespace obs
}  // namespace dar

#endif  // DAR_OBS_TRAIN_OBSERVER_H_

// Training-telemetry glue between the trainers and src/obs/: the frozen
// full-text probe behind the rationale-shift gauge, and the per-epoch
// aggregation of the game loop both Fit() paths run (core/game_loop.h).
#ifndef DAR_CORE_TELEMETRY_H_
#define DAR_CORE_TELEMETRY_H_

#include <cstdint>
#include <string>

#include "core/rationalizer.h"
#include "obs/train_observer.h"

namespace dar {
namespace core {

/// The frozen reference predictor behind the rationale-shift gauge.
///
/// Construction pretrains a predictor on the *full input* (the eq. 4
/// protocol DAR uses for predictor^t) and freezes it. MeasureShift then
/// reports, for a batch, how much label cross-entropy this fixed reader
/// loses when it reads the model's current deterministic rationale Z
/// instead of the full input X:
///
///   shift = max(0, mean_i [ H(y_i, P_probe(Z_i)) - H(y_i, P_probe(X_i)) ]).
///
/// A rationale whose semantics stay aligned with the input carries the
/// evidence the full-text reader keys on (gap near zero); a deviated
/// rationale is legible only to the predictor that drifted along with the
/// generator, and the frozen probe falls back toward chance — the
/// collusion signature of paper Fig. 3, live per batch. Because the probe
/// is compared against *itself* on the two inputs, the gauge is
/// insensitive to how confident or accurate the co-trained predictor
/// happens to be. DAR's alignment term trains Z to be classified
/// correctly by exactly such a frozen full-text predictor, so the gauge
/// visibly shrinks for DAR against vanilla RNP.
///
/// The probe draws from its own RNG streams and only runs eval-mode
/// forwards, so attaching one never perturbs the observed training
/// trajectory (asserted in tests/obs_test.cc).
class RationaleShiftProbe {
 public:
  /// Pretrains the probe for `model.config().pretrain_epochs` full-text
  /// epochs on `dataset` with the model's architecture and embeddings.
  RationaleShiftProbe(const RationalizerBase& model,
                      const datasets::SyntheticDataset& dataset);

  /// Mean rationale-vs-full-text CE gap of the frozen probe on the batch.
  /// Toggles the model through eval mode and back (no RNG consumed).
  double MeasureShift(RationalizerBase& model, const data::Batch& batch);

 private:
  /// Declared before probe_: the constructor feeds it to Predictor's
  /// weight initialization.
  Pcg32 init_rng_;
  Predictor probe_;
};

/// Accumulates per-batch telemetry into the epoch means the game loop
/// reports through TrainObserver::OnEpoch.
class EpochTelemetryAccumulator {
 public:
  void Add(const obs::BatchTelemetry& batch);
  /// Epoch summary; `train_loss` and `dev_acc` come from the trainer's own
  /// bookkeeping (identical to the values in TrainRun). Resets the
  /// accumulator for the next epoch.
  obs::EpochTelemetry Finish(int64_t epoch, const std::string& model,
                             double train_loss, double dev_acc);

 private:
  int64_t batches_ = 0;
  int64_t breakdown_batches_ = 0;
  int64_t align_batches_ = 0;
  int64_t shift_batches_ = 0;
  double task_ce_ = 0.0;
  double align_ce_ = 0.0;
  double omega_ = 0.0;
  double grad_norm_ = 0.0;
  double sparsity_ = 0.0;
  double shift_ = 0.0;
};

/// Builds the BatchTelemetry record for one optimizer step from the
/// model's stashed loss breakdown.
obs::BatchTelemetry MakeBatchTelemetry(int64_t epoch, int64_t batch,
                                       double loss, double grad_norm,
                                       const LossBreakdown& breakdown);

}  // namespace core
}  // namespace dar

#endif  // DAR_CORE_TELEMETRY_H_

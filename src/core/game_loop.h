// The rationalization game's training loop, private to src/core: both
// core::Fit() overloads (core/trainer.h) run it, and differ only in the
// GradientFn they hand it — sequential TrainLoss + Backward, or the
// sharded reduce of core/parallel_trainer.h.
#ifndef DAR_CORE_GAME_LOOP_H_
#define DAR_CORE_GAME_LOOP_H_

#include <functional>
#include <string>

#include "core/rationalizer.h"
#include "core/trainer.h"

namespace dar {
namespace core {

/// A batch's training loss (per-example mean) and its components.
struct BatchLoss {
  float value = 0.0f;
  LossBreakdown breakdown;
  /// The loss's recorded graph, if any. The loop frees it only once the
  /// step is done, after the optimizer step and telemetry, as e2e_bench's
  /// replay of this loop does; freeing it earlier raised peak RSS.
  ag::Variable graph;
};

/// Accumulates the gradient of `batch`'s training loss into the model's
/// trainable parameters, whose gradients the loop has zeroed, and returns
/// that loss. With `audit` set (the first step under
/// TrainConfig::audit_first_step) it passes the loss graph it built to
/// AuditFirstStepOrDie.
using GradientFn =
    std::function<BatchLoss(const data::Batch& batch, bool audit)>;

/// Prepare(), then `config.epochs` epochs of Adam: per batch, ZeroGrad →
/// `gradient` → ClipGradNorm → Step → `after_step`; per epoch, the dev
/// evaluation and best-epoch snapshot, with telemetry to `observer` (and
/// the console if `verbose`) under the model name `tag`. Restores the best
/// epoch's parameters at the end.
TrainRun RunGame(RationalizerBase& model,
                 const datasets::SyntheticDataset& dataset,
                 const std::string& tag, const GradientFn& gradient,
                 const std::function<void()>& after_step, bool verbose,
                 obs::TrainObserver* observer);

/// TrainConfig::audit_first_step: cross-checks `model`'s trainable
/// parameters against the tape recorded under `loss`, right after its
/// Backward() and before clipping, so the audited gradients are exactly
/// what Backward produced. Any finding (orphaned parameter,
/// missing/stale/doubled gradient, shape mismatch, NaN/Inf) aborts before
/// the first optimizer step can bake the defect into the weights.
void AuditFirstStepOrDie(RationalizerBase& model, const ag::Variable& loss);

}  // namespace core
}  // namespace dar

#endif  // DAR_CORE_GAME_LOOP_H_

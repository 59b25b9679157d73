// Training: the rationalization game and full-text pretraining. Both Fit()
// overloads run one game loop (core/game_loop.h); they differ only in how a
// batch's gradient is computed — sequentially, or sharded across replicas
// (core/parallel_trainer.h).
#ifndef DAR_CORE_TRAINER_H_
#define DAR_CORE_TRAINER_H_

#include <cstdint>
#include <vector>

#include "core/predictor.h"
#include "core/rationalizer.h"
#include "datasets/synthetic_review.h"
#include "obs/train_observer.h"

namespace dar {
namespace core {

/// Per-epoch training statistics.
struct EpochStats {
  float train_loss = 0.0f;
  /// Dev-set accuracy of the predictor on the selected rationale — the
  /// paper's early-stopping criterion.
  float dev_acc = 0.0f;
};

/// Result of Fit().
struct TrainRun {
  std::vector<EpochStats> epochs;
  int64_t best_epoch = -1;
  float best_dev_acc = 0.0f;
};

/// Trains a rationalization model: Prepare() (method-specific pretraining),
/// then `config.epochs` epochs of Adam on TrainLoss with gradient clipping,
/// early "stopping" by snapshot — the parameters from the best-dev-accuracy
/// epoch are restored at the end (the paper's protocol, Appendix B).
///
/// `observer` (optional) receives per-step and per-epoch telemetry: loss
/// components, gradient norms, rationale sparsity, and — when the observer
/// asks for it — the rationale-shift gauge measured against a frozen
/// full-text probe (core/telemetry.h). Telemetry is passive: attaching an
/// observer never changes the training trajectory. `verbose` attaches the
/// classic one-line-per-epoch console log (an obs::ConsoleTrainLogger).
TrainRun Fit(RationalizerBase& model, const datasets::SyntheticDataset& dataset,
             bool verbose = false, obs::TrainObserver* observer = nullptr);

/// Configuration of the data-parallel training path.
///
/// Each minibatch is split into `num_shards` contiguous row shards; shard s
/// runs forward/backward on an architecture replica of the model, with its
/// backward seeded by shard_size/batch_size so that the reduced gradient is
/// the gradient of the per-example-mean batch loss. After a barrier the
/// shard gradients are accumulated into the master parameters in shard
/// order and one Adam::Step() is taken, after which the master values
/// are broadcast back to every replica. The shard count — not the worker
/// count — defines the floating-point summation tree, so results depend
/// only on num_shards, never on how many threads happened to run.
struct ParallelTrainConfig {
  /// Worker threads executing shard tasks (>= 1).
  int num_workers = 1;
  /// Shards per minibatch; 0 means num_workers. Capped at the batch size.
  int64_t num_shards = 0;
};

/// Data-parallel Fit(): the same game loop as Fit() above (Prepare, Adam,
/// clipping, audit_first_step, telemetry, best-epoch snapshot) with each
/// batch's gradient computed by the shard → replica → reduce scheme
/// described on ParallelTrainConfig. The model must support
/// CloneArchitecture() (RNP and DAR do). Gumbel noise is drawn per batch
/// from the master RNG in the sequential order, so with num_shards = 1 this
/// path reproduces the sequential Fit() bit-exactly; with more shards it
/// computes the same per-example-mean gradient up to float summation order.
/// Epoch telemetry is tagged "<name> x<num_shards>".
TrainRun Fit(RationalizerBase& model, const datasets::SyntheticDataset& dataset,
             const ParallelTrainConfig& parallel, bool verbose = false,
             obs::TrainObserver* observer = nullptr);

/// Pretrains `predictor` to classify with a fixed mask policy. Used for
/// DAR's predictor^t (full-text mask), the skewed-predictor setting
/// (first-sentence mask), and the Table VI transformer warm-up.
///
/// `mask_fn` maps a batch to the constant input mask; pass nullptr for the
/// full-text (validity) mask. Returns the final dev accuracy under the same
/// mask policy.
using MaskFn = Tensor (*)(const data::Batch&, const void* ctx);
float FitPredictorWithMask(Predictor& predictor,
                           const datasets::SyntheticDataset& dataset,
                           int64_t epochs, int64_t batch_size, float lr,
                           Pcg32& rng, MaskFn mask_fn = nullptr,
                           const void* mask_ctx = nullptr);

/// Convenience wrapper: full-text pretraining (eq. 4).
float FitFullTextPredictor(Predictor& predictor,
                           const datasets::SyntheticDataset& dataset,
                           int64_t epochs, int64_t batch_size, float lr,
                           Pcg32& rng);

/// Dev/test accuracy of `model`'s predictor with deterministic rationales.
float EvaluateRationaleAccuracy(RationalizerBase& model,
                                const std::vector<data::Example>& examples,
                                int64_t batch_size);

}  // namespace core
}  // namespace dar

#endif  // DAR_CORE_TRAINER_H_

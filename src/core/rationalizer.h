// Base class shared by every rationalization method in this repository
// (RNP, DAR, and the baselines under core/baselines/).
#ifndef DAR_CORE_RATIONALIZER_H_
#define DAR_CORE_RATIONALIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/generator.h"
#include "core/predictor.h"
#include "core/regularizer.h"
#include "core/train_config.h"
#include "data/batch.h"
#include "datasets/synthetic_review.h"
#include "nn/checkpoint.h"

namespace dar {
namespace core {

/// Components of the last TrainLoss() computed on a model, for telemetry.
/// Methods built on RnpCoreLoss fill task_ce / omega / sparsity (valid
/// becomes true); DAR additionally fills align_ce (has_align). Methods
/// with bespoke losses leave it invalid and only the total is observable.
struct LossBreakdown {
  /// H_c(Y, P(Z)) — the informativeness cross-entropy (eq. 2).
  float task_ce = 0.0f;
  /// H_c(Y, P^t(Z)) — DAR's discriminative-alignment term (eq. 5),
  /// unweighted (the loss applies config.aux_weight on top).
  float align_ce = 0.0f;
  /// Omega(M) — the sparsity + coherence regularizer (eq. 3).
  float omega = 0.0f;
  /// Fraction of valid tokens the sampled hard mask selected.
  float sparsity = 0.0f;
  bool has_align = false;
  bool valid = false;
};

/// A rationalization method: a generator/predictor pair plus a
/// method-specific training loss. Subclasses add auxiliary modules
/// (DAR's frozen discriminator, DMR's teacher, A2R's soft predictor, ...)
/// and override TrainLoss.
class RationalizerBase {
 public:
  /// `embeddings` is the shared pretrained [vocab, E] table; every player
  /// embeds the input independently (as in the reference implementations)
  /// but from the same frozen vectors.
  RationalizerBase(Tensor embeddings, TrainConfig config, std::string name);
  virtual ~RationalizerBase() = default;

  RationalizerBase(const RationalizerBase&) = delete;
  RationalizerBase& operator=(const RationalizerBase&) = delete;

  /// Builds the training loss for one batch (training mode, stochastic
  /// masks). Called inside Fit()'s inner loop.
  virtual ag::Variable TrainLoss(const data::Batch& batch) = 0;

  /// One-time setup before training (e.g. DAR pretrains and freezes its
  /// discriminator here, eq. 4). Default: nothing.
  virtual void Prepare(const datasets::SyntheticDataset& dataset);

  /// Parameters updated by the optimizer. Default: generator + predictor.
  virtual std::vector<ag::Variable> TrainableParameters() const;

  /// TrainableParameters() with human-readable names resolved by matching
  /// Variable handles against the checkpoint modules
  /// ("generator/gru.w_ih", ...); unmatched handles get positional names.
  /// This is the parameter list the graph auditor wants (Fit()'s
  /// audit_first_step pass and dar_check's model-zoo harness both use it).
  /// Non-const because CheckpointModules() is.
  std::vector<nn::NamedParameter> NamedTrainableParameters();

  /// Train/eval mode for all modules. Default: generator + predictor.
  virtual void SetTraining(bool training);

  /// Deterministic rationale mask for evaluation, [B, T]. Toggles the model
  /// into eval mode around the computation and restores the previous mode;
  /// training-time evaluation goes through here.
  Tensor EvalMask(const data::Batch& batch);

  // ---- Eval-mode forward stages ---------------------------------------------
  //
  // The eval forward, split into four stages: generator encoder ->
  // selection -> predictor encoder -> head. EvalMask and PredictLogits are
  // compositions of them, and serving (serve::InferenceSession) runs the
  // same four stages; its cache (serve/cache.h) stores the two encoders'
  // states per token sequence and re-runs only the selection and head
  // stages on a hit. So "cached == cold" is a structural identity,
  // certified bit-for-bit by tests/serve_cache_test.cc. All stages require
  // eval mode (SetTraining(false)) and are const and thread-compatible: the
  // serving layer calls them from many worker threads concurrently.
  // Methods customize the selection rule by overriding
  // EvalMaskFromStatesConst (VIB/SPECTRA: budgeted top-k; RNP*: best
  // sentence).

  /// Generator's post-encoder hidden states [B, T, H_g].
  Tensor GenEncoderStatesConst(const data::Batch& batch) const;

  /// The eval mask derived from precomputed generator states: selection
  /// head plus the method's selection rule. Base: per-token sigmoid
  /// threshold gated on validity.
  virtual Tensor EvalMaskFromStatesConst(const data::Batch& batch,
                                         const Tensor& gen_states) const;

  /// Predictor's post-encoder hidden states [B, T, H_p] over the masked
  /// input Z = M ⊙ X.
  Tensor PredEncoderStatesConst(const data::Batch& batch,
                                const Tensor& mask) const;

  /// Class logits [B, num_classes] from precomputed predictor states
  /// (masked max-pool + classification head).
  Tensor PredictLogitsFromStatesConst(const data::Batch& batch,
                                      const Tensor& pred_states) const;

  /// Number of player modules (Table IV row "modules"): 1 generator +
  /// however many predictors the method uses.
  virtual int64_t NumModules() const { return 2; }

  /// Total scalar parameter count across all modules, excluding the frozen
  /// embedding tables (Table IV row "parameters").
  virtual int64_t TotalParameters() const;

  /// Predictor logits for a fixed mask (evaluation mode). Toggles the
  /// predictor into eval mode and back.
  Tensor PredictLogits(const data::Batch& batch, const Tensor& mask);

  /// Modules included in a saved model, in a stable order. Subclasses with
  /// auxiliary players that ship with the deployed model (DAR's frozen
  /// discriminator) extend this. Used by Save/LoadRationalizer, the serving
  /// layer's checkpoint restore, and replica mirroring (MirrorFrom).
  virtual std::vector<nn::NamedModule> CheckpointModules();

  /// Constructs an architecturally identical, freshly initialized model of
  /// the same method (same embeddings, config, and options — Prepare() is
  /// NOT run on the copy). The data-parallel trainer builds per-thread
  /// replicas this way and then MirrorFrom()s the trained master state in.
  /// Default: nullptr — the method does not support data-parallel training.
  virtual std::unique_ptr<RationalizerBase> CloneArchitecture() const;

  /// Copies `other`'s full parameter state into this model: values and
  /// per-parameter requires_grad flags of every checkpoint module (so a
  /// master's pretrained-and-frozen modules stay frozen in the replica).
  /// Architectures must match (e.g. this = other->CloneArchitecture()).
  void MirrorFrom(RationalizerBase& other);

  /// When non-null, RnpCoreLoss perturbs the selection logits with this
  /// [B, T] tensor instead of drawing Gumbel noise from rng(). The
  /// data-parallel trainer draws one noise tensor per minibatch from the
  /// master RNG and injects each replica's row slice, which keeps the
  /// sharded run on exactly the sequential run's noise sequence (and keeps
  /// replicas deterministic regardless of shard→thread assignment). The
  /// pointee must outlive the TrainLoss call; pass nullptr to restore
  /// normal RNG sampling.
  void set_injected_mask_noise(const Tensor* noise) {
    injected_mask_noise_ = noise;
  }

  /// Components of the most recent TrainLoss() on this instance (each
  /// replica of a data-parallel run is its own instance, so no cross-thread
  /// sharing). Invalid until the first TrainLoss call.
  const LossBreakdown& last_loss_breakdown() const { return last_breakdown_; }

  Generator& generator() { return generator_; }
  Predictor& predictor() { return predictor_; }
  const TrainConfig& config() const { return config_; }
  const std::string& name() const { return name_; }
  const Tensor& embeddings() const { return embeddings_; }
  Pcg32& rng() { return rng_; }

 protected:
  /// CE(Y, predictor(Z)) + Omega(M) — the RNP core that most methods build
  /// on (eq. 2 + eq. 3). Returns the sampled mask through `mask_out` and
  /// the predictor's rationale logits through `logits_out` so subclasses
  /// can feed them to auxiliary modules without recomputing.
  ag::Variable RnpCoreLoss(const data::Batch& batch, nn::GumbelMask* mask_out,
                           ag::Variable* logits_out = nullptr);

  /// Parameter count of one module, minus its frozen embedding table.
  static int64_t CountTrainable(const nn::Module& module);

  TrainConfig config_;
  std::string name_;
  Tensor embeddings_;
  Pcg32 rng_;
  Generator generator_;
  Predictor predictor_;
  const Tensor* injected_mask_noise_ = nullptr;
  LossBreakdown last_breakdown_;
};

/// Saves every module of a trained model (CheckpointModules) as one
/// multi-module checkpoint file. Returns false on I/O failure.
bool SaveRationalizer(RationalizerBase& model, const std::string& path);

/// Restores a model saved with SaveRationalizer. The model must have been
/// constructed with the same architecture (method, config, vocabulary).
nn::CheckpointResult LoadRationalizer(RationalizerBase& model,
                                      const std::string& path);

}  // namespace core
}  // namespace dar

#endif  // DAR_CORE_RATIONALIZER_H_

// Shared training configuration for all rationalization methods.
#ifndef DAR_CORE_TRAIN_CONFIG_H_
#define DAR_CORE_TRAIN_CONFIG_H_

#include <cstdint>

#include "nn/transformer.h"

namespace dar {
namespace core {

/// Which sequence encoder the players use.
enum class EncoderKind {
  /// Bidirectional GRU — the paper's main setting (200-d GRUs + GloVe,
  /// scaled down here).
  kBiGru,
  /// Pretrained Transformer — the paper's BERT setting (Table VI).
  kTransformer,
};

/// Hyper-parameters shared by the generator, predictors, and trainer.
///
/// Defaults are the scaled-to-one-CPU-core analogue of the paper's setup
/// (Appendix B / Table X): Adam, Gumbel-softmax sampling, sparsity and
/// coherence regularization, early stopping on dev accuracy.
struct TrainConfig {
  // Model sizes.
  int64_t embedding_dim = 32;
  int64_t hidden_dim = 24;  // per direction; BiGRU output is 2x
  int64_t num_classes = 2;
  EncoderKind encoder = EncoderKind::kBiGru;
  nn::TransformerConfig transformer;

  // Optimization.
  float lr = 1e-3f;
  int64_t batch_size = 64;
  int64_t epochs = 10;
  float grad_clip = 5.0f;

  // Rationale regularization (eq. 3).
  float sparsity_target = 0.15f;   // alpha
  float sparsity_lambda = 5.0f;   // lambda_1
  float coherence_lambda = 0.5f;   // lambda_2

  // Gumbel-softmax temperature.
  float tau = 1.0f;

  // Method-specific loss weights (interpretation depends on the method:
  // DAR's discriminator term, DMR's KL, A2R's JS, 3PLAYER's complement
  // term, Inter_RAT's intervention KL, VIB's prior KL).
  float aux_weight = 1.0f;

  // Epochs of full-text pretraining for DAR's discriminator (eq. 4) and
  // other pretrained auxiliaries.
  int64_t pretrain_epochs = 5;

  // Reproducibility.
  uint64_t seed = 42;

  /// GEMM kernel threads for large encoder matmuls (tensor/gemm.h). Fit()
  /// applies the knob process-wide at entry: n > 1 builds the kernel pool
  /// (results stay bit-identical to single-threaded — the M partition is
  /// fixed, see gemm.h), 1 forces the inline path, 0 leaves the current
  /// process setting untouched. Composes with data-parallel training: the
  /// shard replicas share one kernel pool.
  int kernel_threads = 0;

  /// When true, Fit() runs the autograd graph auditor (check/graph_audit.h)
  /// on the very first training step, right after the first Backward():
  /// the optimizer's parameter list is cross-checked against the recorded
  /// tape, and any finding — an orphaned (detached or frozen-but-optimized)
  /// parameter, a missing/stale/doubled gradient, a shape mismatch, NaN/Inf
  /// — prints the full report to stderr and aborts before the first
  /// optimizer step can bake the defect into the weights. One audit on step
  /// 0 only; the remaining steps run at full speed.
  bool audit_first_step = false;

  /// Returns a copy with the sparsity target set to `alpha` (benches use
  /// this to match each dataset's human-annotation sparsity, as the paper
  /// does).
  TrainConfig WithSparsityTarget(float alpha) const {
    TrainConfig c = *this;
    c.sparsity_target = alpha;
    return c;
  }
};

}  // namespace core
}  // namespace dar

#endif  // DAR_CORE_TRAIN_CONFIG_H_

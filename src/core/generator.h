// The rationale generator f_G.
#ifndef DAR_CORE_GENERATOR_H_
#define DAR_CORE_GENERATOR_H_

#include <memory>

#include "core/encoder.h"
#include "core/train_config.h"
#include "data/batch.h"
#include "nn/embedding.h"
#include "nn/gumbel.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace dar {
namespace core {

/// Generator: embeds the input, encodes it contextually, and emits one
/// selection logit per token; rationale masks are sampled from those logits
/// with binary Gumbel-softmax + straight-through (eq. 1's M).
class Generator : public nn::Module {
 public:
  /// `pretrained_embeddings` is the [vocab, E] table (SyntheticGlove);
  /// it is kept frozen, matching the paper's fixed GloVe vectors.
  Generator(Tensor pretrained_embeddings, const TrainConfig& config,
            Pcg32& rng);

  /// Per-token selection logits [B, T].
  ag::Variable SelectionLogits(const data::Batch& batch) const;

  /// Post-encoder hidden states [B, T, output_dim] of the selection
  /// encoder — the first half of SelectionLogits.
  ag::Variable EncodeStates(const data::Batch& batch) const;

  /// The selection head over precomputed encoder states [B, T, H] — the
  /// second half of SelectionLogits. SelectionLogits(batch) ==
  /// SelectionLogitsFromStates(EncodeStates(batch)) bit-for-bit, which is
  /// what lets the serving cache store states and re-run only this stage.
  ag::Variable SelectionLogitsFromStates(const ag::Variable& states) const;

  /// Samples a rationale mask for a training batch (stochastic) or derives
  /// the deterministic mask in eval mode.
  nn::GumbelMask SampleMask(const data::Batch& batch, Pcg32& rng) const;

  /// SampleMask with caller-supplied Gumbel noise [B, T] instead of RNG
  /// draws. The data-parallel trainer uses this to feed each shard replica
  /// its slice of the master-drawn batch noise (see nn::DrawBinaryMaskNoise).
  nn::GumbelMask SampleMaskWithNoise(const data::Batch& batch,
                                     const Tensor& noise) const;

  /// Deterministic hard mask values (eval mode), [B, T].
  Tensor DeterministicMask(const data::Batch& batch) const;

  /// DeterministicMask's thresholding applied to precomputed selection
  /// logits: sigmoid(l / tau) > 0.5 <=> l > 0, gated by validity.
  static Tensor ThresholdMask(const Tensor& logits, const Tensor& valid);

  /// The contextual encoder (mutable: pretraining warm-starts copy into it).
  SequenceEncoder& encoder() { return *encoder_; }

 private:
  TrainConfig config_;
  nn::Embedding embedding_;
  std::unique_ptr<SequenceEncoder> encoder_;
  nn::Linear head_;  // output_dim -> 1 selection score
};

}  // namespace core
}  // namespace dar

#endif  // DAR_CORE_GENERATOR_H_

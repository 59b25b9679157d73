// The predictor f_P (and the architecture of DAR's predictor^t).
#ifndef DAR_CORE_PREDICTOR_H_
#define DAR_CORE_PREDICTOR_H_

#include <memory>

#include "core/encoder.h"
#include "core/train_config.h"
#include "data/batch.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace dar {
namespace core {

/// Predictor: embeds tokens, zeroes unselected positions (Z = M ⊙ X,
/// eq. 1), encodes, masked-max-pools, and classifies.
///
/// The same class serves as RNP's predictor, DAR's frozen predictor^t
/// (constructed identically, pretrained on the all-ones mask, then frozen),
/// and every baseline's auxiliary predictors.
class Predictor : public nn::Module {
 public:
  Predictor(Tensor pretrained_embeddings, const TrainConfig& config,
            Pcg32& rng);

  /// Class logits [B, num_classes] for the rationale selected by `mask`
  /// [B, T] (a Variable so generator gradients flow through the masking).
  ag::Variable Forward(const data::Batch& batch, const ag::Variable& mask) const;

  /// Logits for a constant mask (no gradient into the mask).
  ag::Variable ForwardWithConstMask(const data::Batch& batch,
                                    const Tensor& mask) const;

  /// Post-encoder hidden states [B, T, output_dim] over the masked input
  /// Z = M ⊙ X — the first half of ForwardWithConstMask.
  ag::Variable EncodeWithConstMask(const data::Batch& batch,
                                   const Tensor& mask) const;

  /// Pool + classification head over precomputed encoder states — the
  /// second half of ForwardWithConstMask, as a const tensor stage:
  /// LogitsFromStatesConst(EncodeWithConstMask(b, m).value(), b.valid) is
  /// bit-identical to ForwardWithConstMask(b, m).value(), which is what
  /// lets the serving cache store states and re-run only the head.
  Tensor LogitsFromStatesConst(const Tensor& states,
                               const Tensor& valid) const;

  /// Logits with the full input visible (mask = validity mask). This is the
  /// "accuracy on full text" probe (Fig. 3) and predictor^t pretraining
  /// input (eq. 4).
  ag::Variable ForwardFullText(const data::Batch& batch) const;

  /// Logits for a *context-intervened* rationale: selected positions keep
  /// the batch's own tokens, unselected positions take `alt_tokens`'
  /// embeddings instead of zeros. Inter_RAT's backdoor-adjustment
  /// approximation resamples the non-rationale context this way.
  ag::Variable ForwardMixed(const data::Batch& batch,
                            const std::vector<std::vector<int64_t>>& alt_tokens,
                            const ag::Variable& mask) const;

  /// The contextual encoder (mutable: pretraining warm-starts copy into it).
  SequenceEncoder& encoder() { return *encoder_; }

 private:
  TrainConfig config_;
  nn::Embedding embedding_;
  std::unique_ptr<SequenceEncoder> encoder_;
  nn::Linear head_;
};

}  // namespace core
}  // namespace dar

#endif  // DAR_CORE_PREDICTOR_H_

#include "core/predictor.h"

#include <utility>

#include "nn/pooling.h"
#include "tensor/check.h"

namespace dar {
namespace core {

Predictor::Predictor(Tensor pretrained_embeddings, const TrainConfig& config,
                     Pcg32& rng)
    : config_(config),
      embedding_(std::move(pretrained_embeddings), /*trainable=*/false),
      encoder_(MakeEncoder(config, rng)),
      head_(encoder_->output_dim(), config.num_classes, rng) {
  RegisterChild("embedding", &embedding_);
  RegisterChild("encoder", encoder_.get());
  RegisterChild("head", &head_);
}

ag::Variable Predictor::Forward(const data::Batch& batch,
                                const ag::Variable& mask) const {
  ag::Variable embedded = embedding_.Forward(batch.tokens);
  ag::Variable masked = ag::ScaleLastDim(embedded, mask);
  ag::Variable states = encoder_->Encode(masked, batch.valid);
  ag::Variable pooled = nn::MaskedMaxPool(states, batch.valid);
  return head_.Forward(pooled);
}

ag::Variable Predictor::ForwardWithConstMask(const data::Batch& batch,
                                             const Tensor& mask) const {
  return Forward(batch, ag::Variable::Constant(mask));
}

ag::Variable Predictor::EncodeWithConstMask(const data::Batch& batch,
                                            const Tensor& mask) const {
  ag::Variable masked = ag::ScaleLastDim(embedding_.Forward(batch.tokens),
                                         ag::Variable::Constant(mask));
  return encoder_->Encode(masked, batch.valid);
}

Tensor Predictor::LogitsFromStatesConst(const Tensor& states,
                                        const Tensor& valid) const {
  ag::Variable pooled =
      nn::MaskedMaxPool(ag::Variable::Constant(states), valid);
  return head_.Forward(pooled).value();
}

ag::Variable Predictor::ForwardFullText(const data::Batch& batch) const {
  return ForwardWithConstMask(batch, batch.valid);
}

ag::Variable Predictor::ForwardMixed(
    const data::Batch& batch,
    const std::vector<std::vector<int64_t>>& alt_tokens,
    const ag::Variable& mask) const {
  DAR_CHECK_EQ(static_cast<int64_t>(alt_tokens.size()), batch.batch_size());
  ag::Variable own = embedding_.Forward(batch.tokens);
  ag::Variable alt = embedding_.Forward(alt_tokens);
  // Z_mixed = M ⊙ X + (1 - M) ⊙ X_alt, restricted to valid positions.
  ag::Variable complement = ag::Mul(ag::AddScalar(ag::Neg(mask), 1.0f),
                                    ag::Variable::Constant(batch.valid));
  ag::Variable mixed = ag::Add(ag::ScaleLastDim(own, mask),
                               ag::ScaleLastDim(alt, complement));
  ag::Variable states = encoder_->Encode(mixed, batch.valid);
  ag::Variable pooled = nn::MaskedMaxPool(states, batch.valid);
  return head_.Forward(pooled);
}

}  // namespace core
}  // namespace dar

#include "core/generator.h"

#include <utility>

#include "tensor/check.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace core {

Generator::Generator(Tensor pretrained_embeddings, const TrainConfig& config,
                     Pcg32& rng)
    : config_(config),
      embedding_(std::move(pretrained_embeddings), /*trainable=*/false),
      encoder_(MakeEncoder(config, rng)),
      head_(encoder_->output_dim(), 1, rng) {
  RegisterChild("embedding", &embedding_);
  RegisterChild("encoder", encoder_.get());
  RegisterChild("head", &head_);
}

ag::Variable Generator::EncodeStates(const data::Batch& batch) const {
  return encoder_->Encode(embedding_.Forward(batch.tokens), batch.valid);
}

ag::Variable Generator::SelectionLogitsFromStates(
    const ag::Variable& states) const {
  const Tensor& sv = states.value();
  ag::Variable logits = head_.Forward(states);  // [B, T, 1]
  return ag::Reshape(logits, Shape{sv.size(0), sv.size(1)});
}

ag::Variable Generator::SelectionLogits(const data::Batch& batch) const {
  return SelectionLogitsFromStates(EncodeStates(batch));
}

nn::GumbelMask Generator::SampleMask(const data::Batch& batch,
                                     Pcg32& rng) const {
  ag::Variable logits = SelectionLogits(batch);
  return nn::SampleBinaryMask(logits, batch.valid, config_.tau, training(),
                              rng);
}

nn::GumbelMask Generator::SampleMaskWithNoise(const data::Batch& batch,
                                              const Tensor& noise) const {
  ag::Variable logits = SelectionLogits(batch);
  return nn::SampleBinaryMaskWithNoise(logits, batch.valid, config_.tau,
                                       training(), noise);
}

Tensor Generator::ThresholdMask(const Tensor& logits, const Tensor& valid) {
  // sigmoid(l / tau) > 0.5  <=>  l > 0; gated by validity.
  Tensor mask(logits.shape());
  for (int64_t i = 0; i < mask.numel(); ++i) {
    mask.flat(i) = (logits.flat(i) > 0.0f && valid.flat(i) > 0.0f) ? 1.0f : 0.0f;
  }
  return mask;
}

Tensor Generator::DeterministicMask(const data::Batch& batch) const {
  return ThresholdMask(SelectionLogits(batch).value(), batch.valid);
}

}  // namespace core
}  // namespace dar

#include "core/rationalizer.h"

#include <unordered_map>
#include <utility>

#include "nn/loss.h"
#include "tensor/check.h"

namespace dar {
namespace core {

RationalizerBase::RationalizerBase(Tensor embeddings, TrainConfig config,
                                   std::string name)
    : config_(config),
      name_(std::move(name)),
      embeddings_(std::move(embeddings)),
      rng_(config.seed, /*stream=*/0xda5),
      generator_(embeddings_, config_, rng_),
      predictor_(embeddings_, config_, rng_) {}

void RationalizerBase::Prepare(const datasets::SyntheticDataset& dataset) {
  (void)dataset;
}

std::vector<ag::Variable> RationalizerBase::TrainableParameters() const {
  std::vector<ag::Variable> params;
  for (const nn::NamedParameter& p : generator_.Parameters()) {
    if (p.variable.requires_grad()) params.push_back(p.variable);
  }
  for (const nn::NamedParameter& p : predictor_.Parameters()) {
    if (p.variable.requires_grad()) params.push_back(p.variable);
  }
  return params;
}

std::vector<nn::NamedParameter> RationalizerBase::NamedTrainableParameters() {
  std::unordered_map<const ag::Node*, std::string> names;
  for (const nn::NamedModule& m : CheckpointModules()) {
    if (m.module == nullptr) continue;
    for (const nn::NamedParameter& p : m.module->Parameters()) {
      names[p.variable.node().get()] = m.name + "/" + p.name;
    }
  }
  std::vector<nn::NamedParameter> out;
  int64_t index = 0;
  for (const ag::Variable& v : TrainableParameters()) {
    auto it = names.find(v.node().get());
    std::string name = it != names.end()
                           ? it->second
                           : "trainable[" + std::to_string(index) + "]";
    out.push_back({std::move(name), v});
    ++index;
  }
  return out;
}

void RationalizerBase::SetTraining(bool training) {
  generator_.SetTraining(training);
  predictor_.SetTraining(training);
}

Tensor RationalizerBase::EvalMask(const data::Batch& batch) {
  bool was_training = generator_.training();
  SetTraining(false);
  Tensor mask = EvalMaskFromStatesConst(batch, GenEncoderStatesConst(batch));
  SetTraining(was_training);
  return mask;
}

Tensor RationalizerBase::GenEncoderStatesConst(
    const data::Batch& batch) const {
  return generator_.EncodeStates(batch).value();
}

Tensor RationalizerBase::EvalMaskFromStatesConst(const data::Batch& batch,
                                                 const Tensor& gen_states) const {
  Tensor logits =
      generator_
          .SelectionLogitsFromStates(ag::Variable::Constant(gen_states))
          .value();
  return Generator::ThresholdMask(logits, batch.valid);
}

Tensor RationalizerBase::PredEncoderStatesConst(const data::Batch& batch,
                                                const Tensor& mask) const {
  return predictor_.EncodeWithConstMask(batch, mask).value();
}

Tensor RationalizerBase::PredictLogitsFromStatesConst(
    const data::Batch& batch, const Tensor& pred_states) const {
  return predictor_.LogitsFromStatesConst(pred_states, batch.valid);
}

int64_t RationalizerBase::TotalParameters() const {
  return CountTrainable(generator_) + CountTrainable(predictor_);
}

Tensor RationalizerBase::PredictLogits(const data::Batch& batch,
                                       const Tensor& mask) {
  bool was_training = predictor_.training();
  predictor_.SetTraining(false);
  Tensor logits =
      PredictLogitsFromStatesConst(batch, PredEncoderStatesConst(batch, mask));
  predictor_.SetTraining(was_training);
  return logits;
}

std::vector<nn::NamedModule> RationalizerBase::CheckpointModules() {
  return {{"generator", &generator_}, {"predictor", &predictor_}};
}

std::unique_ptr<RationalizerBase> RationalizerBase::CloneArchitecture() const {
  return nullptr;
}

void RationalizerBase::MirrorFrom(RationalizerBase& other) {
  std::vector<nn::NamedModule> mine = CheckpointModules();
  std::vector<nn::NamedModule> theirs = other.CheckpointModules();
  DAR_CHECK_MSG(mine.size() == theirs.size(),
                "MirrorFrom: module count mismatch (different architectures?)");
  for (size_t i = 0; i < mine.size(); ++i) {
    mine[i].module->CopyStateFrom(*theirs[i].module);
  }
}

ag::Variable RationalizerBase::RnpCoreLoss(const data::Batch& batch,
                                           nn::GumbelMask* mask_out,
                                           ag::Variable* logits_out) {
  nn::GumbelMask mask =
      injected_mask_noise_ != nullptr
          ? generator_.SampleMaskWithNoise(batch, *injected_mask_noise_)
          : generator_.SampleMask(batch, rng_);
  ag::Variable logits = predictor_.Forward(batch, mask.hard);
  ag::Variable ce = nn::CrossEntropy(logits, batch.labels);
  ag::Variable omega = SparsityCoherencePenalty(mask, batch.valid, config_);
  if (mask_out != nullptr) *mask_out = mask;
  if (logits_out != nullptr) *logits_out = logits;

  // Telemetry: loss components and realized sparsity of the sampled mask
  // (selected / valid; hard already zeroes padded positions).
  last_breakdown_ = LossBreakdown{};
  last_breakdown_.task_ce = ce.value().item();
  last_breakdown_.omega = omega.value().item();
  const Tensor& hard = mask.hard.value();
  double selected = 0.0, valid_total = 0.0;
  for (int64_t i = 0; i < hard.numel(); ++i) selected += hard.flat(i);
  for (int64_t i = 0; i < batch.valid.numel(); ++i) {
    valid_total += batch.valid.flat(i);
  }
  last_breakdown_.sparsity =
      valid_total > 0.0 ? static_cast<float>(selected / valid_total) : 0.0f;
  last_breakdown_.valid = true;
  return ag::Add(ce, omega);
}

bool SaveRationalizer(RationalizerBase& model, const std::string& path) {
  return nn::SaveCheckpoint(model.CheckpointModules(), path);
}

nn::CheckpointResult LoadRationalizer(RationalizerBase& model,
                                      const std::string& path) {
  return nn::LoadCheckpoint(model.CheckpointModules(), path);
}

int64_t RationalizerBase::CountTrainable(const nn::Module& module) {
  int64_t n = 0;
  for (const nn::NamedParameter& p : module.Parameters()) {
    // The frozen pretrained embedding tables are excluded: Table IV counts
    // player parameters, and all methods share identical embeddings. Frozen
    // *player* parameters (DAR's discriminator) still count — they are part
    // of the deployed model.
    if (p.name.find("embedding/") != std::string::npos) continue;
    n += p.variable.numel();
  }
  return n;
}

}  // namespace core
}  // namespace dar

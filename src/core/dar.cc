#include "core/dar.h"

#include <utility>

#include "core/trainer.h"
#include "nn/loss.h"

namespace dar {
namespace core {

DarModel::DarModel(Tensor embeddings, TrainConfig config, bool cotrained)
    : RationalizerBase(std::move(embeddings), config, "DAR"),
      cotrained_(cotrained),
      discriminator_(embeddings_, config_, rng_) {}

void DarModel::Prepare(const datasets::SyntheticDataset& dataset) {
  if (cotrained_) return;
  // Eq. 4: theta_{P_t}* = argmin H_c(Y, Y^t | X) over the full input.
  discriminator_dev_acc_ = FitFullTextPredictor(
      discriminator_, dataset, config_.pretrain_epochs, config_.batch_size,
      config_.lr, rng_);
  discriminator_.SetRequiresGrad(false);
}

ag::Variable DarModel::TrainLoss(const data::Batch& batch) {
  // Eq. 6: H_c(Y, P(Z)) + Omega(M)  [RNP core]  +  H_c(Y, P^t(Z)).
  nn::GumbelMask mask;
  ag::Variable core = RnpCoreLoss(batch, &mask);
  // In the paper's setting the discriminator is frozen: this term's
  // gradient reaches only the generator, through the mask (eq. 5).
  ag::Variable disc_logits = discriminator_.Forward(batch, mask.hard);
  ag::Variable disc_ce = nn::CrossEntropy(disc_logits, batch.labels);
  last_breakdown_.align_ce = disc_ce.value().item();
  last_breakdown_.has_align = true;
  ag::Variable loss = ag::Add(core, ag::MulScalar(disc_ce, config_.aux_weight));
  if (cotrained_) {
    // Co-trained ablation arm: the auxiliary module also learns the
    // full-text task from scratch during the game (the failure mode the
    // paper attributes to DMR/A2R-style designs).
    ag::Variable full_ce =
        nn::CrossEntropy(discriminator_.ForwardFullText(batch), batch.labels);
    loss = ag::Add(loss, full_ce);
  }
  return loss;
}

std::vector<ag::Variable> DarModel::TrainableParameters() const {
  std::vector<ag::Variable> params = RationalizerBase::TrainableParameters();
  if (cotrained_) {
    for (const nn::NamedParameter& p : discriminator_.Parameters()) {
      if (p.variable.requires_grad()) params.push_back(p.variable);
    }
  }
  return params;
}

std::unique_ptr<RationalizerBase> DarModel::CloneArchitecture() const {
  // The clone is never Prepare()d: the master pretrains predictor^t once and
  // MirrorFrom copies the frozen result (values + requires_grad) into every
  // replica, so replicas skip eq. 4 entirely.
  return std::make_unique<DarModel>(embeddings(), config(), cotrained_);
}

void DarModel::SetTraining(bool training) {
  RationalizerBase::SetTraining(training);
  // The frozen discriminator always runs in eval mode.
  discriminator_.SetTraining(cotrained_ && training);
}

int64_t DarModel::TotalParameters() const {
  return RationalizerBase::TotalParameters() + CountTrainable(discriminator_);
}

std::vector<nn::NamedModule> DarModel::CheckpointModules() {
  std::vector<nn::NamedModule> modules = RationalizerBase::CheckpointModules();
  modules.push_back({"discriminator", &discriminator_});
  return modules;
}

}  // namespace core
}  // namespace dar

// DAR — Discriminatively Aligned Rationalization (the paper's method).
//
// DAR augments the RNP game with a third module, predictor^t: a predictor
// *pretrained on the full input* (eq. 4) and *frozen* during the game.
// Feeding the selected rationale to the frozen predictor^t and minimizing
// its cross-entropy (eq. 5) w.r.t. the generator discriminatively aligns
// the rationale distribution with the full-input distribution; the overall
// objective is eq. 6:
//
//   min_{G,P}  H_c(Y, P(Z)) + H_c(Y, P^t(Z)) + Omega(M).
//
// Because predictor^t never sees deviated rationales during its own
// training, it cannot be corrupted by the generator — breaking the
// collusion loop behind rationale shift (Theorem 1).
#ifndef DAR_CORE_DAR_H_
#define DAR_CORE_DAR_H_

#include "core/rationalizer.h"

namespace dar {
namespace core {

/// The DAR model: RNP + frozen, full-text-pretrained discriminator.
class DarModel : public RationalizerBase {
 public:
  /// Paper setting by default: predictor^t is pretrained on full text,
  /// then frozen. `cotrained` is the ablation arm bench/ablation_dar runs
  /// ("DAR-cotrained"): predictor^t starts random and co-trains with the
  /// game, a DMR-like degradation.
  DarModel(Tensor embeddings, TrainConfig config, bool cotrained = false);

  /// Pretrains predictor^t on the full input (eq. 4) and freezes it; a
  /// no-op for the co-trained arm.
  void Prepare(const datasets::SyntheticDataset& dataset) override;

  ag::Variable TrainLoss(const data::Batch& batch) override;

  std::vector<ag::Variable> TrainableParameters() const override;
  std::unique_ptr<RationalizerBase> CloneArchitecture() const override;
  void SetTraining(bool training) override;
  int64_t NumModules() const override { return 3; }  // 1 gen + 2 pred
  int64_t TotalParameters() const override;
  std::vector<nn::NamedModule> CheckpointModules() override;

  Predictor& discriminator() { return discriminator_; }

  /// Dev-set full-text accuracy reached by predictor^t after Prepare().
  float discriminator_dev_accuracy() const { return discriminator_dev_acc_; }

 private:
  bool cotrained_;
  Predictor discriminator_;
  float discriminator_dev_acc_ = 0.0f;
};

}  // namespace core
}  // namespace dar

#endif  // DAR_CORE_DAR_H_

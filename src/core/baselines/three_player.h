// 3PLAYER — Introspective extraction and complement control
// (Yu et al., EMNLP 2019).
//
// Adds a *complement* predictor that reads the unselected text X_{-Z}. The
// complement predictor minimizes its own cross-entropy; the generator
// adversarially maximizes it, squeezing all label-relevant information into
// the rationale. The paper's critique: this keeps information in but
// cannot keep noise out, so rationale shift persists.
#ifndef DAR_CORE_BASELINES_THREE_PLAYER_H_
#define DAR_CORE_BASELINES_THREE_PLAYER_H_

#include "core/rationalizer.h"

namespace dar {
namespace core {

/// Reimplementation of the 3PLAYER game:
///   CE(Y, P(Z)) + w * CE(Y, P_c(X_{-Z}))   [adversarial in M]  + Omega.
class ThreePlayerModel : public RationalizerBase {
 public:
  ThreePlayerModel(Tensor embeddings, TrainConfig config);

  ag::Variable TrainLoss(const data::Batch& batch) override;
  std::vector<ag::Variable> TrainableParameters() const override;
  void SetTraining(bool training) override;
  int64_t NumModules() const override { return 3; }
  int64_t TotalParameters() const override;

 private:
  Predictor complement_predictor_;
};

}  // namespace core
}  // namespace dar

#endif  // DAR_CORE_BASELINES_THREE_PLAYER_H_

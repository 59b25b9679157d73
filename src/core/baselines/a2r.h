// A2R — "Understanding Interlocking Dynamics of Cooperative
// Rationalization" (Yu et al., NeurIPS 2021).
//
// A2R adds an auxiliary predictor that reads the input weighted by the
// generator's *soft* attention (so it always sees a smoothed version of the
// whole text) and ties the two predictors together with a JS divergence.
// This conveys full-text information to the game, mitigating interlocking;
// the paper's critique is that aligning the two predictors' *outputs* does
// not align their *inputs*, so rationale shift can persist.
#ifndef DAR_CORE_BASELINES_A2R_H_
#define DAR_CORE_BASELINES_A2R_H_

#include "core/rationalizer.h"

namespace dar {
namespace core {

/// Token-level reimplementation of A2R (matching the paper's "re-A2R"):
///   CE(Y, P(Z_hard)) + CE(Y, P_soft(X ⊙ p)) + w * JS(P, P_soft) + Omega.
class A2rModel : public RationalizerBase {
 public:
  A2rModel(Tensor embeddings, TrainConfig config);

  ag::Variable TrainLoss(const data::Batch& batch) override;
  std::vector<ag::Variable> TrainableParameters() const override;
  void SetTraining(bool training) override;
  int64_t NumModules() const override { return 3; }
  int64_t TotalParameters() const override;

 private:
  Predictor soft_predictor_;
};

}  // namespace core
}  // namespace dar

#endif  // DAR_CORE_BASELINES_A2R_H_

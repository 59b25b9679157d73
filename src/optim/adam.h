// Adam optimizer (Kingma & Ba, 2015) — the paper's optimizer, and the one
// every training loop in this repo steps with.
#ifndef DAR_OPTIM_ADAM_H_
#define DAR_OPTIM_ADAM_H_

#include <vector>

#include "autograd/variable.h"
#include "tensor/tensor.h"

namespace dar {
namespace optim {

/// Adam hyper-parameters. Only the learning rate varies between
/// experiments; the moment decays and epsilon are fixed at the common (and
/// the paper's) values: beta1 0.9, beta2 0.999, eps 1e-8.
struct AdamConfig {
  float lr = 1e-3f;
};

/// Adam over a fixed parameter list. Parameters are Variable handles shared
/// with the owning modules; Step() updates their values in place from the
/// accumulated gradients.
class Adam {
 public:
  Adam(std::vector<ag::Variable> params, AdamConfig config = {});

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  /// Applies one update from the current gradients. Frozen parameters
  /// (requires_grad false) are skipped. A requires-grad parameter without
  /// an accumulated gradient aborts: every trainable parameter in this
  /// codebase participates in every training loss, so a missing gradient
  /// means a broken graph or a dropped data-parallel shard, and skipping
  /// it would train on a fraction of the data.
  void Step();

  /// Zeroes all parameter gradients.
  void ZeroGrad() {
    for (ag::Variable& p : params_) p.ZeroGrad();
  }

 private:
  std::vector<ag::Variable> params_;
  AdamConfig config_;
  int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace optim
}  // namespace dar

#endif  // DAR_OPTIM_ADAM_H_

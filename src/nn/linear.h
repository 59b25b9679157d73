// Fully connected layer: y = x W + b.
#ifndef DAR_NN_LINEAR_H_
#define DAR_NN_LINEAR_H_

#include "autograd/ops.h"
#include "nn/module.h"
#include "tensor/random.h"

namespace dar {
namespace nn {

/// Affine map from `in_features` to `out_features`.
///
/// Weights use Xavier-uniform initialization; biases start at zero.
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Pcg32& rng);

  /// x: [..., in_features] -> [..., out_features]; a rank >= 2 input is
  /// read as rows (tensor/tensor_ops.h), so [B, T, in] needs no reshape.
  ag::Variable Forward(const ag::Variable& x) const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

  const ag::Variable& weight() const { return weight_; }
  const ag::Variable& bias() const { return bias_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  ag::Variable weight_;  // [in, out]
  ag::Variable bias_;    // [out]
};

}  // namespace nn
}  // namespace dar

#endif  // DAR_NN_LINEAR_H_

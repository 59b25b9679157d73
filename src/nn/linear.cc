#include "nn/linear.h"

#include <cmath>

#include "tensor/check.h"

namespace dar {
namespace nn {

Linear::Linear(int64_t in_features, int64_t out_features, Pcg32& rng)
    : in_features_(in_features), out_features_(out_features) {
  DAR_CHECK_GT(in_features, 0);
  DAR_CHECK_GT(out_features, 0);
  float bound = std::sqrt(6.0f / static_cast<float>(in_features + out_features));
  weight_ = RegisterParameter(
      "w", Tensor::Rand(Shape{in_features, out_features}, rng, -bound, bound));
  bias_ = RegisterParameter("b", Tensor::Zeros(Shape{out_features}));
}

ag::Variable Linear::Forward(const ag::Variable& x) const {
  DAR_CHECK_GE(x.value().dim(), 2);
  DAR_CHECK_EQ(x.value().size(-1), in_features_);
  return ag::Affine(x, weight_, bias_);
}

}  // namespace nn
}  // namespace dar

#include "nn/embedding.h"

#include <utility>

#include "tensor/check.h"

namespace dar {
namespace nn {

Embedding::Embedding(int64_t vocab_size, int64_t dim, Pcg32& rng) {
  DAR_CHECK_GT(vocab_size, 0);
  DAR_CHECK_GT(dim, 0);
  table_ = RegisterParameter(
      "table", Tensor::Randn(Shape{vocab_size, dim}, rng, 0.1f));
}

Embedding::Embedding(Tensor pretrained, bool trainable) {
  DAR_CHECK_EQ(pretrained.dim(), 2);
  table_ = RegisterParameter("table", std::move(pretrained), trainable);
}

ag::Variable Embedding::Forward(
    const std::vector<std::vector<int64_t>>& ids) const {
  return ag::EmbeddingLookup(table_, ids);
}

}  // namespace nn
}  // namespace dar

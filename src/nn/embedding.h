// Token embedding layer.
#ifndef DAR_NN_EMBEDDING_H_
#define DAR_NN_EMBEDDING_H_

#include <vector>

#include "autograd/ops.h"
#include "nn/module.h"
#include "tensor/random.h"

namespace dar {
namespace nn {

/// Maps token-id sequences to dense vectors via a [vocab, dim] table.
///
/// The table can be loaded from pretrained vectors (SyntheticGlove in this
/// repository) and optionally frozen, matching the paper's use of fixed
/// GloVe embeddings.
class Embedding : public Module {
 public:
  /// Randomly initialized table (N(0, 0.1)).
  Embedding(int64_t vocab_size, int64_t dim, Pcg32& rng);

  /// Table initialized from pretrained vectors [vocab, dim].
  Embedding(Tensor pretrained, bool trainable);

  /// ids: [B][T] -> [B, T, dim].
  ag::Variable Forward(const std::vector<std::vector<int64_t>>& ids) const;

  int64_t vocab_size() const { return table_.value().size(0); }
  int64_t dim() const { return table_.value().size(1); }
  const ag::Variable& table() const { return table_; }

 private:
  ag::Variable table_;  // [vocab, dim]
};

}  // namespace nn
}  // namespace dar

#endif  // DAR_NN_EMBEDDING_H_

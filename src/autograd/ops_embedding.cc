#include <memory>
#include <utility>

#include "autograd/ops.h"
#include "tensor/check.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace ag {

Variable EmbeddingLookup(const Variable& table,
                         const std::vector<std::vector<int64_t>>& ids) {
  const Tensor& tv = table.value();
  DAR_CHECK_EQ(tv.dim(), 2);
  int64_t vocab = tv.size(0), e = tv.size(1);
  int64_t b = static_cast<int64_t>(ids.size());
  DAR_CHECK_GT(b, 0);
  int64_t t = static_cast<int64_t>(ids[0].size());
  Tensor out(Shape{b, t, e});
  {
    const float* pt = tv.data();
    float* po = out.data();
    for (int64_t i = 0; i < b; ++i) {
      DAR_CHECK_EQ(static_cast<int64_t>(ids[static_cast<size_t>(i)].size()), t);
      for (int64_t tt = 0; tt < t; ++tt) {
        int64_t id = ids[static_cast<size_t>(i)][static_cast<size_t>(tt)];
        DAR_CHECK(id >= 0 && id < vocab);
        const float* src = pt + id * e;
        float* dst = po + (i * t + tt) * e;
        for (int64_t j = 0; j < e; ++j) dst[j] = src[j];
      }
    }
  }
  auto pn = table.node();
  auto saved_ids = std::make_shared<std::vector<std::vector<int64_t>>>(ids);
  return MakeOpResult("embedding_lookup", std::move(out), {pn}, [pn, saved_ids, b, t, e](Node& n) {
    Tensor g(pn->value.shape());
    const float* pg = n.grad.data();
    float* pgo = g.data();
    for (int64_t i = 0; i < b; ++i) {
      for (int64_t tt = 0; tt < t; ++tt) {
        int64_t id = (*saved_ids)[static_cast<size_t>(i)][static_cast<size_t>(tt)];
        const float* src = pg + (i * t + tt) * e;
        float* dst = pgo + id * e;
        for (int64_t j = 0; j < e; ++j) dst[j] += src[j];
      }
    }
    pn->AccumulateGrad(std::move(g));
  });
}

}  // namespace ag
}  // namespace dar

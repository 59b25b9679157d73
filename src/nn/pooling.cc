#include "nn/pooling.h"

#include <limits>
#include <memory>
#include <utility>

#include "tensor/check.h"

namespace dar {
namespace nn {

ag::Variable MaskedMaxPool(const ag::Variable& h, const Tensor& valid) {
  const Tensor& hv = h.value();
  DAR_CHECK_EQ(hv.dim(), 3);
  int64_t b = hv.size(0), t = hv.size(1), d = hv.size(2);
  DAR_CHECK_EQ(valid.dim(), 2);
  DAR_CHECK_EQ(valid.size(0), b);
  DAR_CHECK_EQ(valid.size(1), t);

  Tensor out(Shape{b, d});
  auto argmax = std::make_shared<std::vector<int64_t>>(
      static_cast<size_t>(b * d), int64_t{-1});
  {
    const float* ph = hv.data();
    float* po = out.data();
    for (int64_t i = 0; i < b; ++i) {
      bool any = false;
      for (int64_t j = 0; j < d; ++j) po[i * d + j] = -std::numeric_limits<float>::infinity();
      for (int64_t tt = 0; tt < t; ++tt) {
        if (valid.at(i, tt) == 0.0f) continue;
        any = true;
        const float* row = ph + (i * t + tt) * d;
        for (int64_t j = 0; j < d; ++j) {
          if (row[j] > po[i * d + j]) {
            po[i * d + j] = row[j];
            (*argmax)[static_cast<size_t>(i * d + j)] = tt;
          }
        }
      }
      DAR_CHECK_MSG(any, "MaskedMaxPool: example with no valid positions");
    }
  }
  auto pn = h.node();
  return ag::MakeOpResult("masked_max_pool", std::move(out), {pn},
                          [pn, argmax, b, t, d](ag::Node& n) {
    Tensor g(pn->value.shape());
    const float* pg = n.grad.data();
    float* pgo = g.data();
    for (int64_t i = 0; i < b; ++i) {
      for (int64_t j = 0; j < d; ++j) {
        int64_t tt = (*argmax)[static_cast<size_t>(i * d + j)];
        if (tt >= 0) pgo[(i * t + tt) * d + j] += pg[i * d + j];
      }
    }
    pn->AccumulateGrad(std::move(g));
  });
}

ag::Variable MaskedMeanPool(const ag::Variable& h, const Tensor& valid) {
  const Tensor& hv = h.value();
  DAR_CHECK_EQ(hv.dim(), 3);
  int64_t b = hv.size(0), t = hv.size(1);
  DAR_CHECK_EQ(valid.size(0), b);
  DAR_CHECK_EQ(valid.size(1), t);
  // Scale each valid position by 1/len(b), then sum over time.
  Tensor weights(Shape{b, t});
  for (int64_t i = 0; i < b; ++i) {
    float len = 0.0f;
    for (int64_t tt = 0; tt < t; ++tt) len += valid.at(i, tt);
    DAR_CHECK_MSG(len > 0.0f, "MaskedMeanPool: example with no valid positions");
    for (int64_t tt = 0; tt < t; ++tt) weights.at(i, tt) = valid.at(i, tt) / len;
  }
  return ag::SumTime(ag::ScaleLastDim(h, ag::Variable::Constant(weights)));
}

}  // namespace nn
}  // namespace dar

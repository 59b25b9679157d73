#include <utility>

#include "autograd/ops.h"
#include "tensor/check.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace ag {

Variable Sum(const Variable& a) {
  Tensor out = Tensor::Scalar(SumAll(a.value()));
  auto pa = a.node();
  return MakeOpResult("sum", std::move(out), {pa}, [pa](Node& n) {
    float g = n.grad.item();
    pa->AccumulateGrad(Tensor(pa->value.shape(), g));
  });
}

Variable Mean(const Variable& a) {
  int64_t count = a.value().numel();
  DAR_CHECK_GT(count, 0);
  Tensor out = Tensor::Scalar(MeanAll(a.value()));
  auto pa = a.node();
  return MakeOpResult("mean", std::move(out), {pa}, [pa, count](Node& n) {
    float g = n.grad.item() / static_cast<float>(count);
    pa->AccumulateGrad(Tensor(pa->value.shape(), g));
  });
}

Variable SumTime(const Variable& x) {
  const Tensor& xv = x.value();
  DAR_CHECK_EQ(xv.dim(), 3);
  int64_t b = xv.size(0), t = xv.size(1), e = xv.size(2);
  Tensor out(Shape{b, e});
  {
    const float* px = xv.data();
    float* po = out.data();
    for (int64_t i = 0; i < b; ++i) {
      for (int64_t tt = 0; tt < t; ++tt) {
        const float* src = px + (i * t + tt) * e;
        float* dst = po + i * e;
        for (int64_t j = 0; j < e; ++j) dst[j] += src[j];
      }
    }
  }
  auto pn = x.node();
  return MakeOpResult("sum_time", std::move(out), {pn}, [pn, b, t, e](Node& n) {
    Tensor g(pn->value.shape());
    const float* pg = n.grad.data();
    float* pgo = g.data();
    for (int64_t i = 0; i < b; ++i) {
      const float* src = pg + i * e;
      for (int64_t tt = 0; tt < t; ++tt) {
        float* dst = pgo + (i * t + tt) * e;
        for (int64_t j = 0; j < e; ++j) dst[j] = src[j];
      }
    }
    pn->AccumulateGrad(std::move(g));
  });
}

Variable RowSum(const Variable& x) {
  const Tensor& xv = x.value();
  DAR_CHECK_EQ(xv.dim(), 2);
  int64_t m = xv.size(0), c = xv.size(1);
  Tensor out(Shape{m});
  {
    const float* px = xv.data();
    float* po = out.data();
    for (int64_t i = 0; i < m; ++i) {
      float acc = 0.0f;
      for (int64_t j = 0; j < c; ++j) acc += px[i * c + j];
      po[i] = acc;
    }
  }
  auto pn = x.node();
  return MakeOpResult("row_sum", std::move(out), {pn}, [pn, m, c](Node& n) {
    Tensor g(pn->value.shape());
    const float* pg = n.grad.data();
    float* pgo = g.data();
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < c; ++j) pgo[i * c + j] = pg[i];
    }
    pn->AccumulateGrad(std::move(g));
  });
}

}  // namespace ag
}  // namespace dar

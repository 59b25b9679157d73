#include <cmath>
#include <memory>
#include <utility>

#include "autograd/ops.h"
#include "tensor/check.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace ag {

Variable SoftmaxRowsOp(const Variable& logits) {
  Tensor out = SoftmaxRows(logits.value());
  auto pn = logits.node();
  auto saved = std::make_shared<Tensor>(out);
  return MakeOpResult("softmax_rows", std::move(out), {pn}, [pn, saved](Node& n) {
    // dL/dx_j = y_j * (g_j - sum_k g_k y_k) per row.
    int64_t m = saved->size(0), c = saved->size(1);
    Tensor g(saved->shape());
    const float* py = saved->data();
    const float* pg = n.grad.data();
    float* pgo = g.data();
    for (int64_t i = 0; i < m; ++i) {
      const float* yrow = py + i * c;
      const float* grow = pg + i * c;
      float dot = 0.0f;
      for (int64_t j = 0; j < c; ++j) dot += grow[j] * yrow[j];
      float* orow = pgo + i * c;
      for (int64_t j = 0; j < c; ++j) orow[j] = yrow[j] * (grow[j] - dot);
    }
    pn->AccumulateGrad(std::move(g));
  });
}

Variable LogSoftmaxRowsOp(const Variable& logits) {
  Tensor out = LogSoftmaxRows(logits.value());
  auto pn = logits.node();
  auto saved = std::make_shared<Tensor>(out);
  return MakeOpResult("log_softmax_rows", std::move(out), {pn}, [pn, saved](Node& n) {
    // dL/dx_j = g_j - softmax_j * sum_k g_k per row.
    int64_t m = saved->size(0), c = saved->size(1);
    Tensor g(saved->shape());
    const float* plog = saved->data();
    const float* pg = n.grad.data();
    float* pgo = g.data();
    for (int64_t i = 0; i < m; ++i) {
      const float* lrow = plog + i * c;
      const float* grow = pg + i * c;
      float gsum = 0.0f;
      for (int64_t j = 0; j < c; ++j) gsum += grow[j];
      float* orow = pgo + i * c;
      for (int64_t j = 0; j < c; ++j) orow[j] = grow[j] - std::exp(lrow[j]) * gsum;
    }
    pn->AccumulateGrad(std::move(g));
  });
}

Variable PickColumns(const Variable& x, const std::vector<int64_t>& index) {
  const Tensor& xv = x.value();
  DAR_CHECK_EQ(xv.dim(), 2);
  int64_t m = xv.size(0), c = xv.size(1);
  DAR_CHECK_EQ(static_cast<int64_t>(index.size()), m);
  Tensor out(Shape{m});
  for (int64_t i = 0; i < m; ++i) {
    int64_t j = index[static_cast<size_t>(i)];
    DAR_CHECK(j >= 0 && j < c);
    out.at(i) = xv.at(i, j);
  }
  auto pn = x.node();
  auto idx = std::make_shared<std::vector<int64_t>>(index);
  return MakeOpResult("pick_columns", std::move(out), {pn}, [pn, idx, m, c](Node& n) {
    Tensor g(pn->value.shape());
    const float* pg = n.grad.data();
    float* pgo = g.data();
    for (int64_t i = 0; i < m; ++i) {
      pgo[i * c + (*idx)[static_cast<size_t>(i)]] = pg[i];
    }
    pn->AccumulateGrad(std::move(g));
  });
}

}  // namespace ag
}  // namespace dar

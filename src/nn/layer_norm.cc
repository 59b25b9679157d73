#include "nn/layer_norm.h"

#include <cmath>
#include <memory>
#include <utility>

#include "tensor/check.h"

namespace dar {
namespace nn {

LayerNorm::LayerNorm(int64_t dim, float eps) : dim_(dim), eps_(eps) {
  DAR_CHECK_GT(dim, 0);
  gain_ = RegisterParameter("gain", Tensor::Ones(Shape{dim}));
  bias_ = RegisterParameter("bias", Tensor::Zeros(Shape{dim}));
}

ag::Variable LayerNorm::Forward(const ag::Variable& x) const {
  const Tensor& xv = x.value();
  DAR_CHECK_EQ(xv.dim(), 2);
  DAR_CHECK_EQ(xv.size(1), dim_);
  int64_t m = xv.size(0), n = dim_;
  float eps = eps_;

  // Fused op: saving xhat and 1/sigma makes the backward exact and cheap.
  Tensor out(xv.shape());
  auto xhat = std::make_shared<Tensor>(xv.shape());
  auto inv_sigma = std::make_shared<Tensor>(Shape{m});
  {
    const float* px = xv.data();
    const float* pg = gain_.value().data();
    const float* pb = bias_.value().data();
    float* po = out.data();
    float* ph = xhat->data();
    for (int64_t i = 0; i < m; ++i) {
      const float* row = px + i * n;
      double mu = 0.0;
      for (int64_t j = 0; j < n; ++j) mu += row[j];
      mu /= static_cast<double>(n);
      double var = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        double d = row[j] - mu;
        var += d * d;
      }
      var /= static_cast<double>(n);
      float is = 1.0f / std::sqrt(static_cast<float>(var) + eps);
      inv_sigma->at(i) = is;
      for (int64_t j = 0; j < n; ++j) {
        float h = (row[j] - static_cast<float>(mu)) * is;
        ph[i * n + j] = h;
        po[i * n + j] = h * pg[j] + pb[j];
      }
    }
  }

  auto px_node = x.node();
  auto pg_node = gain_.node();
  auto pb_node = bias_.node();
  return ag::MakeOpResult(
      "layer_norm", std::move(out), {px_node, pg_node, pb_node},
      [px_node, pg_node, pb_node, xhat, inv_sigma, m, n](ag::Node& node) {
        const float* pdy = node.grad.data();
        const float* ph = xhat->data();
        const float* pg = pg_node->value.data();
        if (pg_node->requires_grad) {
          Tensor ggain(Shape{n});
          float* p = ggain.data();
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = 0; j < n; ++j) p[j] += pdy[i * n + j] * ph[i * n + j];
          }
          pg_node->AccumulateGrad(std::move(ggain));
        }
        if (pb_node->requires_grad) {
          Tensor gbias(Shape{n});
          float* p = gbias.data();
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = 0; j < n; ++j) p[j] += pdy[i * n + j];
          }
          pb_node->AccumulateGrad(std::move(gbias));
        }
        if (px_node->requires_grad) {
          // dx = inv_sigma * (dxhat - mean(dxhat) - xhat * mean(dxhat*xhat)),
          // with dxhat = dy * gain.
          Tensor gx(px_node->value.shape());
          float* p = gx.data();
          for (int64_t i = 0; i < m; ++i) {
            float mean_d = 0.0f, mean_dh = 0.0f;
            for (int64_t j = 0; j < n; ++j) {
              float d = pdy[i * n + j] * pg[j];
              mean_d += d;
              mean_dh += d * ph[i * n + j];
            }
            mean_d /= static_cast<float>(n);
            mean_dh /= static_cast<float>(n);
            float is = inv_sigma->at(i);
            for (int64_t j = 0; j < n; ++j) {
              float d = pdy[i * n + j] * pg[j];
              p[i * n + j] = is * (d - mean_d - ph[i * n + j] * mean_dh);
            }
          }
          px_node->AccumulateGrad(std::move(gx));
        }
      });
}

}  // namespace nn
}  // namespace dar

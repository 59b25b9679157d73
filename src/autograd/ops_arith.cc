#include <utility>

#include "autograd/ops.h"
#include "tensor/check.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace ag {

Variable Add(const Variable& a, const Variable& b) {
  Tensor out = dar::Add(a.value(), b.value());
  auto pa = a.node();
  auto pb = b.node();
  return MakeOpResult("add", std::move(out), {pa, pb}, [pa, pb](Node& n) {
    if (pa->requires_grad) pa->AccumulateGrad(n.grad);
    if (pb->requires_grad) pb->AccumulateGrad(n.grad);
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  Tensor out = dar::Sub(a.value(), b.value());
  auto pa = a.node();
  auto pb = b.node();
  return MakeOpResult("sub", std::move(out), {pa, pb}, [pa, pb](Node& n) {
    if (pa->requires_grad) pa->AccumulateGrad(n.grad);
    if (pb->requires_grad) pb->AccumulateGrad(dar::Neg(n.grad));
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  Tensor out = dar::Mul(a.value(), b.value());
  auto pa = a.node();
  auto pb = b.node();
  return MakeOpResult("mul", std::move(out), {pa, pb}, [pa, pb](Node& n) {
    if (pa->requires_grad) pa->AccumulateGrad(dar::Mul(n.grad, pb->value));
    if (pb->requires_grad) pb->AccumulateGrad(dar::Mul(n.grad, pa->value));
  });
}

Variable Div(const Variable& a, const Variable& b) {
  Tensor out = dar::Div(a.value(), b.value());
  auto pa = a.node();
  auto pb = b.node();
  return MakeOpResult("div", std::move(out), {pa, pb}, [pa, pb](Node& n) {
    if (pa->requires_grad) pa->AccumulateGrad(dar::Div(n.grad, pb->value));
    if (pb->requires_grad) {
      // d(a/b)/db = -a / b^2
      Tensor g = dar::Div(dar::Mul(n.grad, pa->value),
                          dar::Mul(pb->value, pb->value));
      pb->AccumulateGrad(dar::Neg(g));
    }
  });
}

Variable Neg(const Variable& a) {
  Tensor out = dar::Neg(a.value());
  auto pa = a.node();
  return MakeOpResult("neg", std::move(out), {pa}, [pa](Node& n) {
    pa->AccumulateGrad(dar::Neg(n.grad));
  });
}

Variable AddScalar(const Variable& a, float s) {
  Tensor out = dar::AddScalar(a.value(), s);
  auto pa = a.node();
  return MakeOpResult("add_scalar", std::move(out), {pa},
                      [pa](Node& n) { pa->AccumulateGrad(n.grad); });
}

Variable MulScalar(const Variable& a, float s) {
  Tensor out = dar::MulScalar(a.value(), s);
  auto pa = a.node();
  return MakeOpResult("mul_scalar", std::move(out), {pa}, [pa, s](Node& n) {
    pa->AccumulateGrad(dar::MulScalar(n.grad, s));
  });
}

Variable ScaleLastDim(const Variable& x, const Variable& s) {
  const Tensor& xv = x.value();
  const Tensor& sv = s.value();
  DAR_CHECK_EQ(xv.dim(), 3);
  DAR_CHECK_EQ(sv.dim(), 2);
  int64_t b = xv.size(0), t = xv.size(1), e = xv.size(2);
  DAR_CHECK_EQ(sv.size(0), b);
  DAR_CHECK_EQ(sv.size(1), t);
  Tensor out(xv.shape());
  {
    const float* px = xv.data();
    const float* ps = sv.data();
    float* po = out.data();
    for (int64_t i = 0; i < b * t; ++i) {
      float sc = ps[i];
      for (int64_t j = 0; j < e; ++j) po[i * e + j] = sc * px[i * e + j];
    }
  }
  auto px_node = x.node();
  auto ps_node = s.node();
  return MakeOpResult("scale_last_dim", 
      std::move(out), {px_node, ps_node}, [px_node, ps_node, b, t, e](Node& n) {
        const float* pg = n.grad.data();
        if (px_node->requires_grad) {
          Tensor gx(px_node->value.shape());
          const float* ps = ps_node->value.data();
          float* pgx = gx.data();
          for (int64_t i = 0; i < b * t; ++i) {
            float sc = ps[i];
            for (int64_t j = 0; j < e; ++j) pgx[i * e + j] = sc * pg[i * e + j];
          }
          px_node->AccumulateGrad(std::move(gx));
        }
        if (ps_node->requires_grad) {
          Tensor gs(ps_node->value.shape());
          const float* px = px_node->value.data();
          float* pgs = gs.data();
          for (int64_t i = 0; i < b * t; ++i) {
            float acc = 0.0f;
            for (int64_t j = 0; j < e; ++j) acc += pg[i * e + j] * px[i * e + j];
            pgs[i] = acc;
          }
          ps_node->AccumulateGrad(std::move(gs));
        }
      });
}

}  // namespace ag
}  // namespace dar

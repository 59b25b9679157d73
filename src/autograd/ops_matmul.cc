// Matrix-product ops. Forward and backward all route through the three
// tensor_ops wrappers, and those share one blocked GEMM kernel
// (tensor/gemm.h) for every transpose orientation — the backward's
// dC*B^T / A^T*dC products ride the same packed fast path as the forward,
// with no transpose ever materialized.
#include <utility>

#include "autograd/ops.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace ag {

Variable MatMul(const Variable& a, const Variable& b) {
  Tensor out = dar::MatMul(a.value(), b.value());
  auto pa = a.node();
  auto pb = b.node();
  return MakeOpResult("matmul", std::move(out), {pa, pb}, [pa, pb](Node& n) {
    // dA = dC * B^T ; dB = A^T * dC
    if (pa->requires_grad) pa->AccumulateGrad(dar::MatMulTB(n.grad, pb->value));
    if (pb->requires_grad) pb->AccumulateGrad(dar::MatMulTA(pa->value, n.grad));
  });
}

Variable Affine(const Variable& x, const Variable& w, const Variable& b) {
  Tensor out = dar::MatMul(x.value(), w.value());
  dar::AddRowBroadcastInPlace(out, b.value());
  auto px = x.node();
  auto pw = w.node();
  auto pb = b.node();
  return MakeOpResult("affine", std::move(out), {px, pw, pb},
                      [px, pw, pb](Node& n) {
    if (px->requires_grad) px->AccumulateGrad(dar::MatMulTB(n.grad, pw->value));
    if (pw->requires_grad) pw->AccumulateGrad(dar::MatMulTA(px->value, n.grad));
    if (pb->requires_grad) pb->AccumulateGrad(dar::SumRows(n.grad));
  });
}

Variable MatMulNT(const Variable& a, const Variable& b) {
  Tensor out = dar::MatMulTB(a.value(), b.value());
  auto pa = a.node();
  auto pb = b.node();
  return MakeOpResult("matmul_nt", std::move(out), {pa, pb}, [pa, pb](Node& n) {
    // C = A B^T: dA = dC * B ; dB = dC^T * A.
    if (pa->requires_grad) pa->AccumulateGrad(dar::MatMul(n.grad, pb->value));
    if (pb->requires_grad) pb->AccumulateGrad(dar::MatMulTA(n.grad, pa->value));
  });
}

}  // namespace ag
}  // namespace dar

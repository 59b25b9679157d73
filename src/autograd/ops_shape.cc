#include <utility>

#include "autograd/ops.h"
#include "tensor/check.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace ag {

Variable Reshape(const Variable& a, Shape shape) {
  Tensor out = a.value().Reshape(shape);
  auto pa = a.node();
  Shape original = a.value().shape();
  return MakeOpResult("reshape", std::move(out), {pa}, [pa, original](Node& n) {
    pa->AccumulateGrad(n.grad.Reshape(original));
  });
}

Variable ConcatCols(const Variable& a, const Variable& b) {
  Tensor out = dar::ConcatCols(a.value(), b.value());
  int64_t m = 1;  // rows over the leading dims
  for (int64_t i = 0; i + 1 < out.dim(); ++i) m *= out.size(i);
  const int64_t na = a.value().size(-1);
  const int64_t nb = b.value().size(-1);
  auto pa = a.node();
  auto pb = b.node();
  return MakeOpResult("concat_cols", std::move(out), {pa, pb},
                      [pa, pb, m, na, nb](Node& n) {
    const float* pg = n.grad.data();
    if (pa->requires_grad) {
      Tensor ga(pa->value.shape());
      float* p = ga.data();
      for (int64_t i = 0; i < m; ++i) {
        const float* src = pg + i * (na + nb);
        for (int64_t j = 0; j < na; ++j) p[i * na + j] = src[j];
      }
      pa->AccumulateGrad(std::move(ga));
    }
    if (pb->requires_grad) {
      Tensor gb(pb->value.shape());
      float* p = gb.data();
      for (int64_t i = 0; i < m; ++i) {
        const float* src = pg + i * (na + nb) + na;
        for (int64_t j = 0; j < nb; ++j) p[i * nb + j] = src[j];
      }
      pb->AccumulateGrad(std::move(gb));
    }
  });
}

Variable SliceCols(const Variable& a, int64_t start, int64_t len) {
  const Tensor& av = a.value();
  DAR_CHECK_EQ(av.dim(), 2);
  int64_t m = av.size(0), n_cols = av.size(1);
  DAR_CHECK(start >= 0 && len > 0 && start + len <= n_cols);
  Tensor out(Shape{m, len});
  {
    const float* pa = av.data();
    float* po = out.data();
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < len; ++j) po[i * len + j] = pa[i * n_cols + start + j];
    }
  }
  auto pn = a.node();
  return MakeOpResult("slice_cols", std::move(out), {pn}, [pn, m, n_cols, start, len](Node& n) {
    Tensor g(pn->value.shape());
    const float* pg = n.grad.data();
    float* pgo = g.data();
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < len; ++j) pgo[i * n_cols + start + j] = pg[i * len + j];
    }
    pn->AccumulateGrad(std::move(g));
  });
}

Variable TimeDiff(const Variable& x) {
  const Tensor& xv = x.value();
  DAR_CHECK_EQ(xv.dim(), 2);
  int64_t b = xv.size(0), t = xv.size(1);
  DAR_CHECK_GT(t, 1);
  Tensor out(Shape{b, t - 1});
  {
    const float* px = xv.data();
    float* po = out.data();
    for (int64_t i = 0; i < b; ++i) {
      for (int64_t j = 0; j < t - 1; ++j) {
        po[i * (t - 1) + j] = px[i * t + j + 1] - px[i * t + j];
      }
    }
  }
  auto pn = x.node();
  return MakeOpResult("time_diff", std::move(out), {pn}, [pn, b, t](Node& n) {
    Tensor g(pn->value.shape());
    const float* pg = n.grad.data();
    float* pgo = g.data();
    for (int64_t i = 0; i < b; ++i) {
      for (int64_t j = 0; j < t - 1; ++j) {
        float gv = pg[i * (t - 1) + j];
        pgo[i * t + j + 1] += gv;
        pgo[i * t + j] -= gv;
      }
    }
    pn->AccumulateGrad(std::move(g));
  });
}

Variable SliceRows(const Variable& a, int64_t start, int64_t len) {
  const Tensor& av = a.value();
  DAR_CHECK_EQ(av.dim(), 2);
  int64_t m = av.size(0), n_cols = av.size(1);
  DAR_CHECK(start >= 0 && len > 0 && start + len <= m);
  Tensor out(Shape{len, n_cols});
  std::copy(av.data() + start * n_cols, av.data() + (start + len) * n_cols,
            out.data());
  auto pn = a.node();
  return MakeOpResult("slice_rows", std::move(out), {pn}, [pn, start, len, n_cols](Node& n) {
    Tensor g(pn->value.shape());
    std::copy(n.grad.data(), n.grad.data() + len * n_cols,
              g.data() + start * n_cols);
    pn->AccumulateGrad(std::move(g));
  });
}

Variable ConcatRows(const std::vector<Variable>& parts) {
  DAR_CHECK(!parts.empty());
  int64_t n_cols = parts[0].value().size(1);
  int64_t total_rows = 0;
  std::vector<std::shared_ptr<Node>> parents;
  parents.reserve(parts.size());
  for (const Variable& p : parts) {
    DAR_CHECK_EQ(p.value().dim(), 2);
    DAR_CHECK_EQ(p.value().size(1), n_cols);
    total_rows += p.value().size(0);
    parents.push_back(p.node());
  }
  Tensor out(Shape{total_rows, n_cols});
  int64_t row = 0;
  for (const Variable& p : parts) {
    const Tensor& pv = p.value();
    std::copy(pv.data(), pv.data() + pv.numel(), out.data() + row * n_cols);
    row += pv.size(0);
  }
  auto parents_copy = parents;
  return MakeOpResult("concat_rows", std::move(out), std::move(parents),
                      [parents_copy, n_cols](Node& n) {
                        int64_t r = 0;
                        for (const auto& p : parents_copy) {
                          int64_t rows = p->value.size(0);
                          if (p->requires_grad) {
                            Tensor g(Shape{rows, n_cols});
                            std::copy(n.grad.data() + r * n_cols,
                                      n.grad.data() + (r + rows) * n_cols,
                                      g.data());
                            p->AccumulateGrad(std::move(g));
                          }
                          r += rows;
                        }
                      });
}

}  // namespace ag
}  // namespace dar

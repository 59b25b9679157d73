#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "obs/trace.h"
#include "tensor/check.h"
#include "tensor/fastmath.h"
#include "tensor/gemm.h"

namespace dar {

namespace {

void CheckSameShape(const Tensor& a, const Tensor& b) {
  DAR_CHECK_MSG(a.shape() == b.shape(), "elementwise op requires equal shapes");
}

template <typename Fn>
Tensor Binary(const Tensor& a, const Tensor& b, Fn fn) {
  CheckSameShape(a, b);
  // Every element is written below; Scratch poisons under the sentinel.
  Tensor out = Tensor::Scratch(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = fn(pa[i], pb[i]);
  return out;
}

// The rows rule (tensor_ops.h): the product of every dim but the last.
int64_t RowCount(const Tensor& t) {
  DAR_CHECK_GE(t.dim(), 2);
  const Shape& s = t.shape();
  int64_t rows = 1;
  for (size_t i = 0; i + 1 < s.size(); ++i) rows *= s[i];
  return rows;
}

// `t`'s shape with its last dim replaced by `n`.
Shape WithLastDim(const Tensor& t, int64_t n) {
  Shape s = t.shape();
  s.back() = n;
  return s;
}

// Call after RowCount(a), which checks a's rank.
bool SameLeadingDims(const Tensor& a, const Tensor& b) {
  return a.dim() == b.dim() &&
         std::equal(a.shape().begin(), a.shape().end() - 1, b.shape().begin());
}

template <typename Fn>
Tensor Unary(const Tensor& a, Fn fn) {
  Tensor out = Tensor::Scratch(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = fn(pa[i]);
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return Binary(a, b, [](float x, float y) { return x + y; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return Binary(a, b, [](float x, float y) { return x - y; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return Binary(a, b, [](float x, float y) { return x * y; });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return Binary(a, b, [](float x, float y) { return x / y; });
}

void AddInPlace(Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  float* pa = a.data();
  const float* pb = b.data();
  int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) pa[i] += pb[i];
}

void AxpyInPlace(Tensor& a, const Tensor& b, float scale) {
  CheckSameShape(a, b);
  float* pa = a.data();
  const float* pb = b.data();
  int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) pa[i] += scale * pb[i];
}

void ScaleInPlace(Tensor& a, float s) {
  float* pa = a.data();
  int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) pa[i] *= s;
}

Tensor AddScalar(const Tensor& a, float s) {
  return Unary(a, [s](float x) { return x + s; });
}

Tensor MulScalar(const Tensor& a, float s) {
  return Unary(a, [s](float x) { return x * s; });
}

Tensor Map(const Tensor& a, const std::function<float(float)>& fn) {
  return Unary(a, fn);
}

Tensor Neg(const Tensor& a) {
  return Unary(a, [](float x) { return -x; });
}

Tensor Exp(const Tensor& a) {
  return Unary(a, [](float x) { return std::exp(x); });
}

Tensor Log(const Tensor& a, float eps) {
  return Unary(a, [eps](float x) { return std::log(std::max(x, eps)); });
}

Tensor Tanh(const Tensor& a) {
  Tensor out = Tensor::Scratch(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) {
    po[i] = fastmath::FastTanh(pa[i]);
  }
  return out;
}

Tensor Sigmoid(const Tensor& a) {
  Tensor out = Tensor::Scratch(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) {
    po[i] = fastmath::FastSigmoid(pa[i]);
  }
  return out;
}

Tensor Relu(const Tensor& a) {
  return Unary(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}

Tensor Sqrt(const Tensor& a) {
  return Unary(a, [](float x) { return std::sqrt(x); });
}

Tensor Abs(const Tensor& a) {
  return Unary(a, [](float x) { return std::fabs(x); });
}

namespace {

// All three transpose variants funnel here: shared packed kernel
// (tensor/gemm.h), one FLOP accounting point, one span-gating rule.
//
// Span gating: a DAR forward issues 400k+ sub-microsecond matmuls per
// bench run; minting a kDetailed span for each one both distorts
// span.matmul.us (the tiny ops drown the real encoder GEMMs) and costs
// two clock reads per op under kDetailed. Only ops of >= 1 MFLOP emit the
// detailed span; the matmul_flops_total counter keeps every op visible on
// /metrics regardless of size.
Tensor MatMulDispatch(gemm::Trans trans, Shape out_shape, int64_t m,
                      int64_t n, int64_t k, const float* a, const float* b) {
  const int64_t flops = 2 * m * n * k;
  CountMatMulFlops(flops);
  // Zero-initialized: Gemm accumulates into it.
  Tensor c(std::move(out_shape));
  if (flops >= gemm::kSpanFlopThreshold) {
    obs::Span span("matmul", obs::TraceLevel::kDetailed);
    gemm::Gemm(trans, m, n, k, a, b, c.data());
  } else {
    gemm::Gemm(trans, m, n, k, a, b, c.data());
  }
  return c;
}

}  // namespace

void CountMatMulFlops(int64_t flops) {
  static obs::Counter* flops_total =
      &obs::MetricsRegistry::Global().GetCounter("matmul_flops_total");
  flops_total->Increment(flops);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  DAR_CHECK_EQ(b.dim(), 2);
  const int64_t m = RowCount(a), k = a.size(-1), n = b.size(1);
  DAR_CHECK_EQ(b.size(0), k);
  return MatMulDispatch(gemm::Trans::kNN, WithLastDim(a, n), m, n, k,
                        a.data(), b.data());
}

Tensor MatMulTA(const Tensor& a, const Tensor& b) {
  const int64_t k = RowCount(a), m = a.size(-1), n = b.size(-1);
  DAR_CHECK_MSG(SameLeadingDims(a, b), "MatMulTA requires equal leading dims");
  return MatMulDispatch(gemm::Trans::kTA, Shape{m, n}, m, n, k, a.data(),
                        b.data());
}

Tensor MatMulTB(const Tensor& a, const Tensor& b) {
  DAR_CHECK_EQ(b.dim(), 2);
  const int64_t m = RowCount(a), k = a.size(-1), n = b.size(0);
  DAR_CHECK_EQ(b.size(1), k);
  return MatMulDispatch(gemm::Trans::kTB, WithLastDim(a, n), m, n, k,
                        a.data(), b.data());
}

void AddRowBroadcastInPlace(Tensor& rows, const Tensor& row) {
  DAR_CHECK_EQ(row.dim(), 1);
  const int64_t m = RowCount(rows), n = rows.size(-1);
  DAR_CHECK_EQ(row.size(0), n);
  float* po = rows.data();
  const float* pr = row.data();
  for (int64_t i = 0; i < m; ++i) {
    float* orow = po + i * n;
    for (int64_t j = 0; j < n; ++j) orow[j] += pr[j];
  }
}

Tensor SumRows(const Tensor& rows) {
  const int64_t m = RowCount(rows), n = rows.size(-1);
  Tensor out(Shape{n});
  const float* pm = rows.data();
  float* po = out.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* row = pm + i * n;
    for (int64_t j = 0; j < n; ++j) po[j] += row[j];
  }
  return out;
}

float SumAll(const Tensor& a) {
  double acc = 0.0;
  const float* pa = a.data();
  for (int64_t i = 0; i < a.numel(); ++i) acc += pa[i];
  return static_cast<float>(acc);
}

float MeanAll(const Tensor& a) {
  DAR_CHECK_GT(a.numel(), 0);
  return SumAll(a) / static_cast<float>(a.numel());
}

float MaxAll(const Tensor& a) {
  DAR_CHECK_GT(a.numel(), 0);
  const float* pa = a.data();
  float best = pa[0];
  for (int64_t i = 1; i < a.numel(); ++i) best = std::max(best, pa[i]);
  return best;
}

float MinAll(const Tensor& a) {
  DAR_CHECK_GT(a.numel(), 0);
  const float* pa = a.data();
  float best = pa[0];
  for (int64_t i = 1; i < a.numel(); ++i) best = std::min(best, pa[i]);
  return best;
}

std::vector<int64_t> ArgMaxRows(const Tensor& matrix) {
  DAR_CHECK_EQ(matrix.dim(), 2);
  int64_t m = matrix.size(0), n = matrix.size(1);
  DAR_CHECK_GT(n, 0);
  std::vector<int64_t> out(static_cast<size_t>(m));
  const float* pm = matrix.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* row = pm + i * n;
    int64_t best = 0;
    for (int64_t j = 1; j < n; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[static_cast<size_t>(i)] = best;
  }
  return out;
}

Tensor SoftmaxRows(const Tensor& logits) {
  DAR_CHECK_EQ(logits.dim(), 2);
  int64_t m = logits.size(0), n = logits.size(1);
  Tensor out(logits.shape());
  const float* pl = logits.data();
  float* po = out.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* row = pl + i * n;
    float* orow = po + i * n;
    float mx = row[0];
    for (int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    float denom = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      orow[j] = std::exp(row[j] - mx);
      denom += orow[j];
    }
    for (int64_t j = 0; j < n; ++j) orow[j] /= denom;
  }
  return out;
}

Tensor LogSoftmaxRows(const Tensor& logits) {
  DAR_CHECK_EQ(logits.dim(), 2);
  int64_t m = logits.size(0), n = logits.size(1);
  Tensor out(logits.shape());
  const float* pl = logits.data();
  float* po = out.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* row = pl + i * n;
    float* orow = po + i * n;
    float mx = row[0];
    for (int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    float denom = 0.0f;
    for (int64_t j = 0; j < n; ++j) denom += std::exp(row[j] - mx);
    float log_denom = std::log(denom) + mx;
    for (int64_t j = 0; j < n; ++j) orow[j] = row[j] - log_denom;
  }
  return out;
}

Tensor Transpose(const Tensor& a) {
  DAR_CHECK_EQ(a.dim(), 2);
  int64_t m = a.size(0), n = a.size(1);
  Tensor out = Tensor::Scratch(Shape{n, m});
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) po[j * m + i] = pa[i * n + j];
  }
  return out;
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  const int64_t m = RowCount(a), na = a.size(-1), nb = b.size(-1);
  DAR_CHECK_MSG(SameLeadingDims(a, b), "ConcatCols requires equal leading dims");
  Tensor out = Tensor::Scratch(WithLastDim(a, na + nb));
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t i = 0; i < m; ++i) {
    std::copy(pa + i * na, pa + (i + 1) * na, po + i * (na + nb));
    std::copy(pb + i * nb, pb + (i + 1) * nb, po + i * (na + nb) + na);
  }
  return out;
}

Tensor SliceTime(const Tensor& x, int64_t t) {
  DAR_CHECK_EQ(x.dim(), 3);
  int64_t b = x.size(0), time = x.size(1), d = x.size(2);
  DAR_CHECK(t >= 0 && t < time);
  Tensor out(Shape{b, d});
  const float* px = x.data();
  float* po = out.data();
  for (int64_t i = 0; i < b; ++i) {
    const float* src = px + (i * time + t) * d;
    std::copy(src, src + d, po + i * d);
  }
  return out;
}

void SetTime(Tensor& x, int64_t t, const Tensor& step) {
  DAR_CHECK_EQ(x.dim(), 3);
  DAR_CHECK_EQ(step.dim(), 2);
  int64_t b = x.size(0), time = x.size(1), d = x.size(2);
  DAR_CHECK(t >= 0 && t < time);
  DAR_CHECK_EQ(step.size(0), b);
  DAR_CHECK_EQ(step.size(1), d);
  float* px = x.data();
  const float* ps = step.data();
  for (int64_t i = 0; i < b; ++i) {
    std::copy(ps + i * d, ps + (i + 1) * d, px + (i * time + t) * d);
  }
}

float Norm2(const Tensor& a) {
  double acc = 0.0;
  const float* pa = a.data();
  for (int64_t i = 0; i < a.numel(); ++i) acc += static_cast<double>(pa[i]) * pa[i];
  return static_cast<float>(std::sqrt(acc));
}

}  // namespace dar

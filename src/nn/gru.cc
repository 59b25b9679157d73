#include "nn/gru.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "check/sentinel.h"
#include "obs/trace.h"
#include "tensor/check.h"
#include "tensor/fastmath.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace nn {

namespace {

// The cell's row kernels: one batch row i of one step, j = 0 .. H-1. The
// loop-invariant `keep` (store the BPTT state) and `masked` are template
// parameters, since a branch in the loop body keeps GCC from vectorizing
// it, and every pointer is __restrict: each addresses its own buffer.

template <bool kKeep, bool kMasked>
void ForwardRow(const float* __restrict prow, const float* __restrict qrow,
                const float* __restrict hrow, float mi, int64_t hd,
                float* __restrict orow, float* __restrict zrow,
                float* __restrict rrow, float* __restrict nrow,
                float* __restrict q2row) {
  const float inv_mi = 1.0f - mi;
  for (int64_t j = 0; j < hd; ++j) {
    const float zv = fastmath::FastSigmoid(prow[j] + qrow[j]);
    const float rv = fastmath::FastSigmoid(prow[hd + j] + qrow[hd + j]);
    const float nv =
        fastmath::FastTanh(prow[2 * hd + j] + rv * qrow[2 * hd + j]);
    const float hprime = (1.0f - zv) * nv + zv * hrow[j];
    if constexpr (kKeep) {
      zrow[j] = zv;
      rrow[j] = rv;
      nrow[j] = nv;
      q2row[j] = qrow[2 * hd + j];
    }
    orow[j] = kMasked ? mi * hprime + inv_mi * hrow[j] : hprime;
  }
}

void BackwardRow(const float* __restrict grow, const float* __restrict zrow,
                 const float* __restrict rrow, const float* __restrict nrow,
                 const float* __restrict q2row, const float* __restrict hrow,
                 float mi, int64_t hd, float* __restrict dprow,
                 float* __restrict dqrow, float* __restrict dhrow) {
  for (int64_t j = 0; j < hd; ++j) {
    const float g = grow[j];
    const float gm = g * mi;
    const float zv = zrow[j], rv = rrow[j], nv = nrow[j];
    const float dt = gm * (1.0f - zv) * (1.0f - nv * nv);
    const float ds_r = dt * q2row[j] * rv * (1.0f - rv);
    const float ds_z = gm * (hrow[j] - nv) * zv * (1.0f - zv);
    dprow[j] = ds_z;
    dprow[hd + j] = ds_r;
    dprow[2 * hd + j] = dt;
    dqrow[j] = ds_z;
    dqrow[hd + j] = ds_r;
    dqrow[2 * hd + j] = dt * rv;
    dhrow[j] = gm * zv + g * (1.0f - mi);
  }
}

}  // namespace

/// Forward, for gate layout [z | r | n] in the 3H projections, with
/// p = proj[:, t] and q = h · W_h:
///   z = sigmoid(p[:, 0H:1H] + q[:, 0H:1H])
///   r = sigmoid(p[:, 1H:2H] + q[:, 1H:2H])
///   n = tanh  (p[:, 2H:3H] + r  * q[:, 2H:3H])
///   h' = (1 - z) * n + z * h
///   out = mask * h' + (1 - mask) * h        (no mask: out = h')
///
/// Backward of one step (g = the step's state gradient): with
/// gm = g * mask (or g when unmasked),
///   dh  = gm * z + g * (1 - mask)
///   dn  = gm * (1 - z);        dt   = dn * (1 - n^2)
///   dp2 = dt;                  dq2  = dt * r;   dr = dt * q2
///   dp1 = dq1 = dr * r * (1 - r)
///   dz  = gm * (h - n);        dp0  = dq0 = dz * z * (1 - z)
///
/// Keep the cell expressions as written (FastSigmoid/FastTanh from
/// tensor/fastmath.h included; FP contraction acts per expression): the
/// row kernels above run them unchanged as vector loops, and every
/// consumer — training, serving, cached and uncached paths, all replica
/// counts — sees the same bits because this is the one implementation, and
/// tests/nn_gru_test.cc holds it bit for bit to a plain-loop per-step
/// reference. Gradchecked in tests/autograd_gradcheck_test.cc.
ag::Variable GruSequence(const ag::Variable& proj, const ag::Variable& w_h,
                         const Tensor* valid, bool reverse) {
  const Tensor& pv = proj.value();
  const Tensor& wv = w_h.value();
  DAR_CHECK_EQ(pv.dim(), 3);
  DAR_CHECK_EQ(wv.dim(), 2);
  const int64_t b = pv.size(0), t_len = pv.size(1), hd = wv.size(0);
  DAR_CHECK_GT(t_len, 0);
  DAR_CHECK_EQ(wv.size(1), 3 * hd);
  DAR_CHECK_EQ(pv.size(2), 3 * hd);
  if (valid != nullptr) {
    DAR_CHECK_EQ(valid->dim(), 2);
    DAR_CHECK_EQ(valid->size(0), b);
    DAR_CHECK_EQ(valid->size(1), t_len);
  }

  // BPTT state, kept only when the node will be recorded: serving
  // allocates none of it.
  const bool keep = proj.requires_grad() || w_h.requires_grad();
  const Shape kept = keep ? Shape{b, t_len, hd} : Shape{0};
  Tensor z(kept), r(kept), n(kept), q2(kept);
  Tensor out = Tensor::Scratch(Shape{b, t_len, hd});
  Tensor h(Shape{b, hd});  // the state entering the current step
  const float* pp = pv.data();
  const float* pm = valid != nullptr ? valid->data() : nullptr;
  float* pz = z.data();
  float* pr = r.data();
  float* pn = n.data();
  float* pq2 = q2.data();
  float* po = out.data();
  const auto forward_row =
      keep ? (pm != nullptr ? ForwardRow<true, true> : ForwardRow<true, false>)
           : (pm != nullptr ? ForwardRow<false, true>
                            : ForwardRow<false, false>);
  for (int64_t s = 0; s < t_len; ++s) {
    const int64_t t = reverse ? t_len - 1 - s : s;
    const Tensor q = dar::MatMul(h, wv);
    const float* pq = q.data();
    const float* ph = h.data();
    for (int64_t i = 0; i < b; ++i) {
      const int64_t row = i * t_len + t;  // (i, t) in the [B, T, *] buffers
      const int64_t kept_row = keep ? row * hd : 0;  // z, r, n, q2 are empty
      forward_row(pp + row * 3 * hd, pq + i * 3 * hd, ph + i * hd,
                  pm != nullptr ? pm[row] : 1.0f, hd, po + row * hd,
                  pz + kept_row, pr + kept_row, pn + kept_row,
                  pq2 + kept_row);
    }
    for (int64_t i = 0; i < b; ++i) {
      const float* orow = po + (i * t_len + t) * hd;
      std::copy(orow, orow + hd, h.data() + i * hd);
    }
  }

  auto np = proj.node();
  auto nw = w_h.node();
  Tensor mask = keep && valid != nullptr ? *valid : Tensor();
  const bool masked = valid != nullptr;
  auto backward = [np, nw, z = std::move(z), r = std::move(r),
                   n = std::move(n), q2 = std::move(q2),
                   mask = std::move(mask), masked, reverse, b, t_len,
                   hd](ag::Node& node) {
    const bool scan = check::SentinelEnabled();
    const float* pog = node.grad.data();
    const float* pout = node.value.data();
    const float* pz = z.data();
    const float* pr = r.data();
    const float* pn = n.data();
    const float* pq2 = q2.data();
    const float* pm = masked ? mask.data() : nullptr;
    Tensor dproj(Shape{b, t_len, 3 * hd});
    Tensor g(Shape{b, hd});       // state gradient of the current step
    Tensor dh(Shape{b, hd});      // its cell term for the previous step
    Tensor dq(Shape{b, 3 * hd});  // d (h · W_h) of the current step
    Tensor h_prev(Shape{b, hd});  // the state entering the current step
    float* pdp = dproj.data();
    float* pg = g.data();
    float* pdh = dh.data();
    float* pdq = dq.data();
    float* ph = h_prev.data();
    const auto time_of = [&](int64_t s) { return reverse ? t_len - 1 - s : s; };
    // g = 0 + d out[:, t]: the tape's first accumulation into a state.
    const auto load_out_grad = [&](int64_t t) {
      for (int64_t i = 0; i < b; ++i) {
        const float* ogrow = pog + (i * t_len + t) * hd;
        for (int64_t j = 0; j < hd; ++j) pg[i * hd + j] = 0.0f + ogrow[j];
      }
    };
    load_out_grad(time_of(t_len - 1));
    for (int64_t s = t_len - 1; s >= 0; --s) {
      const int64_t t = time_of(s);
      if (s > 0) {
        const int64_t tp = time_of(s - 1);
        for (int64_t i = 0; i < b; ++i) {
          const float* orow = pout + (i * t_len + tp) * hd;
          std::copy(orow, orow + hd, ph + i * hd);
        }
      } else {
        h_prev.Zero();
      }
      if (scan) check::ScanForNonFinite("gru_sequence", "grad", pg, b * hd);
      for (int64_t i = 0; i < b; ++i) {
        const int64_t row = i * t_len + t;
        BackwardRow(pg + i * hd, pz + row * hd, pr + row * hd, pn + row * hd,
                    pq2 + row * hd, ph + i * hd,
                    pm != nullptr ? pm[row] : 1.0f, hd, pdp + row * 3 * hd,
                    pdq + i * 3 * hd, pdh + i * hd);
      }
      if (scan) check::ScanForNonFinite("gru_sequence", "grad", pdq, b * 3 * hd);
      if (s > 0) {
        // The previous step's state gradient, in the tape's order:
        // ((0 + d out) + cell term) + MatMulTB term.
        const Tensor da = dar::MatMulTB(dq, nw->value);
        const float* pda = da.data();
        load_out_grad(time_of(s - 1));
        for (int64_t k = 0; k < b * hd; ++k) pg[k] = (pg[k] + pdh[k]) + pda[k];
      }
      if (nw->requires_grad) {
        const Tensor dw = dar::MatMulTA(h_prev, dq);
        if (s == t_len - 1) {
          nw->AccumulateGrad(dw);
        } else {
          AddInPlace(nw->grad, dw);
        }
      }
    }
    if (scan) {
      check::ScanForNonFinite("gru_sequence", "grad", pdp, dproj.numel());
    }
    if (np->requires_grad) np->AccumulateGrad(dproj);
  };
  return ag::MakeOpResult("gru_sequence", std::move(out), {np, nw},
                          std::move(backward));
}

Gru::Gru(int64_t input_dim, int64_t hidden_dim, Pcg32& rng, bool reverse)
    : input_dim_(input_dim), hidden_dim_(hidden_dim), reverse_(reverse) {
  DAR_CHECK_GT(input_dim, 0);
  DAR_CHECK_GT(hidden_dim, 0);
  float bx = std::sqrt(6.0f / static_cast<float>(input_dim + hidden_dim));
  float bh = std::sqrt(6.0f / static_cast<float>(2 * hidden_dim));
  w_x_ = RegisterParameter(
      "w_x", Tensor::Rand(Shape{input_dim, 3 * hidden_dim}, rng, -bx, bx));
  w_h_ = RegisterParameter(
      "w_h", Tensor::Rand(Shape{hidden_dim, 3 * hidden_dim}, rng, -bh, bh));
  b_ = RegisterParameter("b", Tensor::Zeros(Shape{3 * hidden_dim}));
}

ag::Variable Gru::Forward(const ag::Variable& x, const Tensor* valid) const {
  obs::Span span("gru.forward", obs::TraceLevel::kDetailed);
  const Tensor& xv = x.value();
  DAR_CHECK_EQ(xv.dim(), 3);
  int64_t b = xv.size(0), t_len = xv.size(1);
  DAR_CHECK_EQ(xv.size(2), input_dim_);

  // Project all timesteps at once: [B*T, E] x [E, 3H] — one large GEMM
  // instead of T small ones; the packed kernel's best case.
  ag::Variable x_flat = ag::Reshape(x, Shape{b * t_len, input_dim_});
  ag::Variable proj_flat = ag::AddBias(ag::MatMul(x_flat, w_x_), b_);
  ag::Variable proj = ag::Reshape(proj_flat, Shape{b, t_len, 3 * hidden_dim_});

  return GruSequence(proj, w_h_, valid, reverse_);
}

BiGru::BiGru(int64_t input_dim, int64_t hidden_dim, Pcg32& rng)
    : forward_(input_dim, hidden_dim, rng, /*reverse=*/false),
      backward_(input_dim, hidden_dim, rng, /*reverse=*/true) {
  RegisterChild("fw", &forward_);
  RegisterChild("bw", &backward_);
}

ag::Variable BiGru::Forward(const ag::Variable& x, const Tensor* valid) const {
  ag::Variable fw = forward_.Forward(x, valid);
  ag::Variable bw = backward_.Forward(x, valid);
  const Tensor& xv = x.value();
  int64_t b = xv.size(0), t_len = xv.size(1);
  int64_t hd = forward_.hidden_dim();
  // Concatenate along the feature dim: reshape both to [B*T, H] and concat.
  ag::Variable fw2 = ag::Reshape(fw, Shape{b * t_len, hd});
  ag::Variable bw2 = ag::Reshape(bw, Shape{b * t_len, hd});
  return ag::Reshape(ag::ConcatCols(fw2, bw2), Shape{b, t_len, 2 * hd});
}

}  // namespace nn
}  // namespace dar

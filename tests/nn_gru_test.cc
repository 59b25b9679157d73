// Tests for the GRU / BiGRU encoders.
#include "nn/gru.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autograd/gradcheck.h"
#include "check/sentinel.h"
#include "obs/metrics.h"
#include "tensor/fastmath.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace nn {
namespace {

ag::Variable Embed(const Tensor& t) { return ag::Variable::Constant(t); }

// ---- Per-step reference -----------------------------------------------------
//
// The recurrence as the per-step tape ran it — one MatMul(h, W_h) and one
// fused cell per timestep — and its BPTT in that tape's summation order,
// written as plain loops over std::vector with every product through
// gemm::GemmReference. It is the oracle the fused GruSequence op is held
// to bit for bit, kept here the way GemmReference is kept for the GEMM.

using Floats = std::vector<float>;

Floats Values(const Tensor& t) { return {t.vec().begin(), t.vec().end()}; }

Floats RefGemm(gemm::Trans trans, int64_t m, int64_t n, int64_t k,
               const Floats& a, const Floats& b) {
  Floats c(static_cast<size_t>(m * n), 0.0f);
  gemm::GemmReference(trans, m, n, k, a.data(), b.data(), c.data());
  return c;
}

Floats ParamValue(const Gru& gru, const std::string& name) {
  for (const NamedParameter& p : gru.Parameters()) {
    if (p.name == name) return Values(p.variable.value());
  }
  ADD_FAILURE() << "no parameter " << name;
  return {};
}

/// One direction's forward, with what its backward reads. Rows of the
/// [B, T, *] buffers are indexed i * T + t.
struct RefRun {
  int64_t b = 0, t_len = 0;
  Floats x, mask, proj, out, z, r, n, q2;
};

/// Gradient accumulators, zero-initialized like a fresh Node::grad.
struct RefGrads {
  Floats x, w_x, w_h, b;
};

RefRun RefForward(const Gru& gru, const Tensor& x, const Tensor* valid) {
  const int64_t e = gru.input_dim(), hd = gru.hidden_dim();
  const Floats& w_x = ParamValue(gru, "w_x");
  const Floats& w_h = ParamValue(gru, "w_h");
  const Floats& bias = ParamValue(gru, "b");
  RefRun run;
  run.b = x.size(0);
  run.t_len = x.size(1);
  const int64_t rows = run.b * run.t_len;
  run.x = Values(x);
  if (valid != nullptr) run.mask = Values(*valid);
  run.proj = RefGemm(gemm::Trans::kNN, rows, 3 * hd, e, run.x, w_x);
  for (int64_t row = 0; row < rows; ++row) {
    for (int64_t j = 0; j < 3 * hd; ++j) run.proj[row * 3 * hd + j] += bias[j];
  }
  for (Floats* v : {&run.out, &run.z, &run.r, &run.n, &run.q2}) {
    v->assign(static_cast<size_t>(rows * hd), 0.0f);
  }
  Floats h(static_cast<size_t>(run.b * hd), 0.0f);
  for (int64_t s = 0; s < run.t_len; ++s) {
    const int64_t t = gru.reverse() ? run.t_len - 1 - s : s;
    const Floats q = RefGemm(gemm::Trans::kNN, run.b, 3 * hd, hd, h, w_h);
    for (int64_t i = 0; i < run.b; ++i) {
      const int64_t row = i * run.t_len + t;
      const float* p = &run.proj[row * 3 * hd];
      const float* qi = &q[i * 3 * hd];
      const bool masked = !run.mask.empty();
      const float mi = masked ? run.mask[row] : 1.0f;
      const float inv_mi = 1.0f - mi;
      for (int64_t j = 0; j < hd; ++j) {
        const float hv = h[i * hd + j];
        const float zv = fastmath::FastSigmoid(p[j] + qi[j]);
        const float rv = fastmath::FastSigmoid(p[hd + j] + qi[hd + j]);
        const float nv = fastmath::FastTanh(p[2 * hd + j] + rv * qi[2 * hd + j]);
        const float hprime = (1.0f - zv) * nv + zv * hv;
        run.z[row * hd + j] = zv;
        run.r[row * hd + j] = rv;
        run.n[row * hd + j] = nv;
        run.q2[row * hd + j] = qi[2 * hd + j];
        run.out[row * hd + j] = masked ? mi * hprime + inv_mi * hv : hprime;
      }
    }
    for (int64_t i = 0; i < run.b; ++i) {
      for (int64_t j = 0; j < hd; ++j) {
        h[i * hd + j] = run.out[(i * run.t_len + t) * hd + j];
      }
    }
  }
  return run;
}

void AddInto(Floats& acc, const Floats& g) {
  if (acc.empty()) acc.assign(g.size(), 0.0f);
  for (size_t i = 0; i < g.size(); ++i) acc[i] += g[i];
}

/// BPTT of `run` given d out (`out_grad`, [B, T, H]), accumulating into
/// `grads` the gradients of the inputs that require them.
void RefBackward(const Gru& gru, const RefRun& run, const Floats& out_grad,
                 bool x_grad, bool weight_grad, RefGrads& grads) {
  const int64_t e = gru.input_dim(), hd = gru.hidden_dim();
  const int64_t b = run.b, t_len = run.t_len, rows = b * t_len;
  const Floats& w_x = ParamValue(gru, "w_x");
  const Floats& w_h = ParamValue(gru, "w_h");
  auto time_of = [&](int64_t s) { return gru.reverse() ? t_len - 1 - s : s; };
  Floats dproj(static_cast<size_t>(rows * 3 * hd), 0.0f);
  Floats g(static_cast<size_t>(b * hd)), dh(static_cast<size_t>(b * hd));
  Floats h_prev(static_cast<size_t>(b * hd)), dq(static_cast<size_t>(b * 3 * hd));
  // A state's first accumulation adds d out to a zeroed gradient.
  auto load_out_grad = [&](int64_t t) {
    for (int64_t i = 0; i < b; ++i) {
      for (int64_t j = 0; j < hd; ++j) {
        g[i * hd + j] = 0.0f + out_grad[(i * t_len + t) * hd + j];
      }
    }
  };
  load_out_grad(time_of(t_len - 1));
  for (int64_t s = t_len - 1; s >= 0; --s) {
    const int64_t t = time_of(s);
    for (int64_t i = 0; i < b; ++i) {
      for (int64_t j = 0; j < hd; ++j) {
        h_prev[i * hd + j] =
            s > 0 ? run.out[(i * t_len + time_of(s - 1)) * hd + j] : 0.0f;
      }
    }
    for (int64_t i = 0; i < b; ++i) {
      const int64_t row = i * t_len + t;
      const float mi = run.mask.empty() ? 1.0f : run.mask[row];
      for (int64_t j = 0; j < hd; ++j) {
        const float gv = g[i * hd + j];
        const float gm = gv * mi;
        const float zv = run.z[row * hd + j], rv = run.r[row * hd + j],
                    nv = run.n[row * hd + j];
        const float dt = gm * (1.0f - zv) * (1.0f - nv * nv);
        const float ds_r = dt * run.q2[row * hd + j] * rv * (1.0f - rv);
        const float ds_z = gm * (h_prev[i * hd + j] - nv) * zv * (1.0f - zv);
        dproj[row * 3 * hd + j] = ds_z;
        dproj[row * 3 * hd + hd + j] = ds_r;
        dproj[row * 3 * hd + 2 * hd + j] = dt;
        dq[i * 3 * hd + j] = ds_z;
        dq[i * 3 * hd + hd + j] = ds_r;
        dq[i * 3 * hd + 2 * hd + j] = dt * rv;
        dh[i * hd + j] = gm * zv + gv * (1.0f - mi);
      }
    }
    if (s > 0) {
      // Into the previous state: its d out, then this step's cell term,
      // then the recurrent MatMul's dA.
      const Floats da = RefGemm(gemm::Trans::kTB, b, hd, 3 * hd, dq, w_h);
      load_out_grad(time_of(s - 1));
      for (size_t k = 0; k < g.size(); ++k) g[k] = (g[k] + dh[k]) + da[k];
    }
    if (weight_grad) {
      AddInto(grads.w_h, RefGemm(gemm::Trans::kTA, hd, 3 * hd, b, h_prev, dq));
    }
  }
  // The input projection's backward: the affine node's db, dW_x and dx.
  if (weight_grad) {
    Floats db(static_cast<size_t>(3 * hd), 0.0f);
    for (int64_t row = 0; row < rows; ++row) {
      for (int64_t j = 0; j < 3 * hd; ++j) db[j] += dproj[row * 3 * hd + j];
    }
    AddInto(grads.b, db);
    AddInto(grads.w_x, RefGemm(gemm::Trans::kTA, e, 3 * hd, rows, run.x, dproj));
  }
  if (x_grad) {
    AddInto(grads.x, RefGemm(gemm::Trans::kTB, rows, e, 3 * hd, dproj, w_x));
  }
}

bool SameBits(const Tensor& got, const Floats& want) {
  return got.vec().size() == want.size() &&
         std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) == 0;
}

/// [B, T] mask with per-row lengths in [1, T]; row 0 spans all of T.
Tensor RaggedMask(int64_t b, int64_t t_len, Pcg32& rng) {
  Tensor valid(Shape{b, t_len});
  for (int64_t i = 0; i < b; ++i) {
    const int64_t len =
        i == 0 ? t_len : 1 + static_cast<int64_t>(rng.NextU32() % t_len);
    for (int64_t t = 0; t < len; ++t) valid.at(i, t) = 1.0f;
  }
  return valid;
}

enum class Frozen { kNothing, kInput, kWeights };

TEST(GruSequenceTest, MatchesPerStepReferenceBitForBit) {
  constexpr int64_t kE = 32, kH = 24;
  // B = 5 and 6 straddle the NN and TA small loops' crossovers, 8 and 16
  // are tail batches, and 32 is the served model's batch, where BPTT's
  // dq · W_h^T used to take the deleted TB loop.
  const std::vector<std::pair<int64_t, int64_t>> shapes = {
      {1, 1}, {3, 7}, {5, 38}, {6, 5}, {8, 11}, {16, 9}, {32, 13}, {64, 40}};
  for (const auto& [b, t_len] : shapes) {
    for (bool reverse : {false, true}) {
      for (bool masked : {false, true}) {
        for (Frozen frozen : {Frozen::kNothing, Frozen::kInput,
                              Frozen::kWeights}) {
          SCOPED_TRACE(::testing::Message()
                       << "B=" << b << " T=" << t_len << " reverse=" << reverse
                       << " masked=" << masked
                       << " frozen=" << static_cast<int>(frozen));
          Pcg32 rng(static_cast<uint64_t>(100 * b + t_len));
          Gru gru(kE, kH, rng, reverse);
          // The generator's input is a constant embedding; DAR's
          // discriminator is a frozen module fed a differentiable input.
          const bool x_grad = frozen != Frozen::kInput;
          const bool weight_grad = frozen != Frozen::kWeights;
          if (!weight_grad) {
            for (NamedParameter& p : gru.Parameters()) {
              p.variable.set_requires_grad(false);
            }
          }
          Tensor x = Tensor::Randn({b, t_len, kE}, rng, 0.8f);
          Tensor valid = RaggedMask(b, t_len, rng);
          Tensor seed = Tensor::Randn({b, t_len, kH}, rng);
          const Tensor* mask = masked ? &valid : nullptr;

          ag::Variable xv(x, x_grad);
          ag::Variable y = gru.Forward(xv, mask);
          y.Backward(seed);

          RefRun run = RefForward(gru, x, mask);
          RefGrads want;
          RefBackward(gru, run, Values(seed), x_grad, weight_grad, want);
          EXPECT_TRUE(SameBits(y.value(), run.out));
          if (x_grad) {
            EXPECT_TRUE(SameBits(xv.grad(), want.x));
          }
          if (weight_grad) {
            for (const NamedParameter& p : gru.Parameters()) {
              const Floats& w = p.name == "w_x"   ? want.w_x
                                : p.name == "w_h" ? want.w_h
                                                  : want.b;
              EXPECT_TRUE(SameBits(p.variable.grad(), w)) << p.name;
            }
          }
        }
      }
    }
  }
}

TEST(GruSequenceTest, SameGruTwiceInOneLossMatchesReference) {
  // One loss, two runs of the same Gru (as a predictor reading both the
  // rationale and the full text): W_h, w_x and b collect both runs'
  // gradients in the tape's order — the later run's node backpropagates
  // first.
  constexpr int64_t kE = 32, kH = 24;
  for (const auto& [b, t_len] : std::vector<std::pair<int64_t, int64_t>>{
           {1, 1}, {3, 7}, {5, 38}, {64, 40}}) {
    for (bool reverse : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "B=" << b << " T=" << t_len
                                        << " reverse=" << reverse);
      Pcg32 rng(static_cast<uint64_t>(7 * b + t_len));
      Gru gru(kE, kH, rng, reverse);
      Tensor x1 = Tensor::Randn({b, t_len, kE}, rng, 0.8f);
      Tensor x2 = Tensor::Randn({b, t_len, kE}, rng, 0.8f);
      Tensor valid = RaggedMask(b, t_len, rng);
      Tensor seed = Tensor::Randn({b, t_len, kH}, rng);

      ag::Variable v1 = ag::Variable::Param(x1);
      ag::Variable v2 = ag::Variable::Param(x2);
      ag::Variable y1 = gru.Forward(v1, &valid);
      ag::Variable y2 = gru.Forward(v2);
      ag::Add(y1, y2).Backward(seed);

      RefRun run1 = RefForward(gru, x1, &valid);
      RefRun run2 = RefForward(gru, x2, nullptr);
      RefGrads want2, want;
      RefBackward(gru, run2, Values(seed), true, true, want2);
      want.w_x = want2.w_x;
      want.w_h = want2.w_h;
      want.b = want2.b;
      RefBackward(gru, run1, Values(seed), true, true, want);
      EXPECT_TRUE(SameBits(y1.value(), run1.out));
      EXPECT_TRUE(SameBits(y2.value(), run2.out));
      EXPECT_TRUE(SameBits(v1.grad(), want.x));
      EXPECT_TRUE(SameBits(v2.grad(), want2.x));
      for (const NamedParameter& p : gru.Parameters()) {
        const Floats& w = p.name == "w_x"   ? want.w_x
                          : p.name == "w_h" ? want.w_h
                                            : want.b;
        EXPECT_TRUE(SameBits(p.variable.grad(), w)) << p.name;
      }
    }
  }
}

TEST(GruSequenceTest, CountsEveryRecurrentProduct) {
  // matmul_flops_total, which tensor.matmul_mflop_per_step reads, sees
  // every recurrent product: T forward h · W_h, T - 1 BPTT dq · W_h^T and
  // T dW_h = h^T · dq. A leaf projection runs no other product.
  constexpr int64_t kB = 32, kT = 9, kH = 24;
  Pcg32 rng(31);
  ag::Variable proj =
      ag::Variable::Param(Tensor::Randn({kB, kT, 3 * kH}, rng, 0.5f));
  ag::Variable w_h = ag::Variable::Param(Tensor::Randn({kH, 3 * kH}, rng, 0.3f));
  const obs::Counter& flops =
      obs::MetricsRegistry::Global().GetCounter("matmul_flops_total");
  const int64_t before = flops.value();
  ag::Variable y = GruSequence(proj, w_h, nullptr, /*reverse=*/false);
  const int64_t forward = 2 * kB * 3 * kH * kH * kT;
  EXPECT_EQ(flops.value() - before, forward);
  y.Backward(Tensor::Randn({kB, kT, kH}, rng));
  const int64_t tb = 2 * kB * kH * 3 * kH * (kT - 1);
  const int64_t ta = 2 * kH * 3 * kH * kB * kT;
  EXPECT_EQ(flops.value() - before, forward + tb + ta);
}

// ---- The bigru node against the three-node tape -----------------------------
//
// BiGru::Forward used to record per direction an affine projection and a
// gru_sequence node, joined by concat_cols. Composed here from two Gru
// modules with the BiGru's weights, that tape is the oracle the one-node
// layer is held to bit for bit, on both schedules.

/// The weights of `bigru`'s child "fw" or "bw", as shared handles.
GruWeights ChildWeights(BiGru& bigru, const std::string& child) {
  GruWeights w;
  for (const NamedParameter& p : bigru.Parameters()) {
    if (p.name == child + "/w_x") w.w_x = p.variable;
    if (p.name == child + "/w_h") w.w_h = p.variable;
    if (p.name == child + "/b") w.b = p.variable;
  }
  EXPECT_TRUE(w.w_x.defined() && w.w_h.defined() && w.b.defined()) << child;
  return w;
}

/// The bits of a BiGRU's output and the gradients of x and its six
/// parameters after one backward.
struct BiGruRun {
  Tensor out, dx;
  std::vector<Tensor> grads;  // fw w_x, w_h, b, then bw's; empty if frozen
};

/// Two Grus holding `bigru`'s weights: its "fw" and "bw" children.
void CopyWeights(BiGru& bigru, Gru& fw, Gru& bw) {
  std::vector<NamedParameter> src = bigru.Parameters();
  std::vector<NamedParameter> dst = fw.Parameters();
  for (const NamedParameter& p : bw.Parameters()) dst.push_back(p);
  ASSERT_EQ(src.size(), dst.size());
  for (size_t i = 0; i < src.size(); ++i) {
    dst[i].variable.mutable_value() = src[i].variable.value();
    dst[i].variable.set_requires_grad(src[i].variable.requires_grad());
  }
}

BiGruRun RunModule(Module& module, const Tensor& x, bool x_grad,
                   const Tensor& seed,
                   const std::function<ag::Variable(const ag::Variable&)>& f) {
  for (NamedParameter& p : module.Parameters()) {
    if (p.variable.requires_grad()) p.variable.ZeroGrad();
  }
  ag::Variable xv(x, x_grad);
  BiGruRun run;
  ag::Variable y = f(xv);
  run.out = y.value();
  y.Backward(seed);
  if (x_grad) run.dx = xv.grad();
  for (const NamedParameter& p : module.Parameters()) {
    if (p.variable.requires_grad()) run.grads.push_back(p.variable.grad());
  }
  return run;
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         (a.numel() == 0 ||
          std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0);
}

void ExpectSameRun(const BiGruRun& got, const BiGruRun& want) {
  EXPECT_TRUE(SameBits(got.out, want.out));
  EXPECT_TRUE(SameBits(got.dx, want.dx));
  ASSERT_EQ(got.grads.size(), want.grads.size());
  for (size_t i = 0; i < got.grads.size(); ++i) {
    EXPECT_TRUE(SameBits(got.grads[i], want.grads[i])) << "parameter " << i;
  }
}

/// A module whose parameters are a BiGru's, for RunModule's gradients.
struct TwoGrus : Module {
  TwoGrus(int64_t e, int64_t h, Pcg32& rng)
      : fw(e, h, rng, false), bw(e, h, rng, true) {
    RegisterChild("fw", &fw);
    RegisterChild("bw", &bw);
  }
  Gru fw, bw;
};

TEST(BiGruSequenceTest, MatchesThreeNodeTapeBitForBit) {
  constexpr int64_t kE = 32, kH = 24;
  // 38 rows sit below kBiGruPairedRows, 608 at it and 2816 (64 x 44,
  // train_dar's batch) above; every shape also runs each schedule.
  const std::vector<std::pair<int64_t, int64_t>> shapes = {
      {1, 1}, {1, 38}, {3, 7}, {16, 38}, {32, 40}, {64, 44}};
  for (const auto& [b, t_len] : shapes) {
    for (bool masked : {false, true}) {
      for (Frozen frozen :
           {Frozen::kNothing, Frozen::kInput, Frozen::kWeights}) {
        SCOPED_TRACE(::testing::Message()
                     << "B=" << b << " T=" << t_len << " masked=" << masked
                     << " frozen=" << static_cast<int>(frozen));
        Pcg32 rng(static_cast<uint64_t>(31 * b + t_len));
        BiGru bigru(kE, kH, rng);
        TwoGrus composed(kE, kH, rng);
        const bool x_grad = frozen != Frozen::kInput;
        if (frozen == Frozen::kWeights) bigru.SetRequiresGrad(false);
        CopyWeights(bigru, composed.fw, composed.bw);
        Tensor x = Tensor::Randn({b, t_len, kE}, rng, 0.8f);
        Tensor valid = RaggedMask(b, t_len, rng);
        Tensor seed = Tensor::Randn({b, t_len, 2 * kH}, rng);
        const Tensor* mask = masked ? &valid : nullptr;

        const BiGruRun want = RunModule(
            composed, x, x_grad, seed, [&](const ag::Variable& xv) {
              return ag::ConcatCols(composed.fw.Forward(xv, mask),
                                    composed.bw.Forward(xv, mask));
            });
        const BiGruRun layer = RunModule(
            bigru, x, x_grad, seed,
            [&](const ag::Variable& xv) { return bigru.Forward(xv, mask); });
        ExpectSameRun(layer, want);
        for (bool paired : {false, true}) {
          const BiGruRun run = RunModule(
              bigru, x, x_grad, seed, [&](const ag::Variable& xv) {
                const ag::Variable y = BiGruSequence(
                    xv, ChildWeights(bigru, "fw"), ChildWeights(bigru, "bw"),
                    mask, paired);
                EXPECT_EQ(y.node()->op, std::string("bigru"));
                return y;
              });
          ExpectSameRun(run, want);
        }
      }
    }
  }
}

/// Count of BiGRU forwards the given number of threads ran so far.
int64_t BiGruForwards(const char* threads) {
  return obs::MetricsRegistry::Global()
      .GetCounter(obs::LabeledName("nn_bigru_forwards_total",
                                   {{"threads", threads}}))
      .value();
}

TEST(BiGruSequenceTest, TrainingSizeForwardPairsWithFreeHelper) {
  constexpr int64_t kB = 64, kT = 44;
  static_assert(kB * kT >= kBiGruPairedRows);
  Pcg32 rng(5);
  BiGru bigru(32, 24, rng);
  const Tensor x = Tensor::Randn({kB, kT, 32}, rng);
  const int64_t one = BiGruForwards("1"), two = BiGruForwards("2");
  bigru.Forward(ag::Variable::Constant(x));
  EXPECT_EQ(BiGruForwards("1") - one, 0);
  EXPECT_EQ(BiGruForwards("2") - two, 1);
  const Tensor small = Tensor::Randn({1, 38, 32}, rng);
  bigru.Forward(ag::Variable::Constant(small));
  EXPECT_EQ(BiGruForwards("1") - one, 1);
  EXPECT_EQ(BiGruForwards("2") - two, 1);
}

TEST(BiGruSequenceTest, ConcurrentLayersStayBitIdentical) {
  // Two threads train-step their own BiGRUs at train_dar's size at once:
  // whichever claims the helper pairs, the other runs in turn, and both
  // keep the bits of a lone in-turn run.
  constexpr int64_t kB = 64, kT = 44, kE = 32, kH = 24, kIterations = 12;
  std::vector<BiGruRun> want(2);
  std::vector<std::unique_ptr<BiGru>> layers;
  std::vector<Tensor> xs, seeds;
  for (uint64_t i = 0; i < 2; ++i) {
    Pcg32 rng(40 + i);
    layers.push_back(std::make_unique<BiGru>(kE, kH, rng));
    xs.push_back(Tensor::Randn({kB, kT, kE}, rng, 0.8f));
    seeds.push_back(Tensor::Randn({kB, kT, 2 * kH}, rng));
    BiGru& layer = *layers.back();
    want[i] = RunModule(
        layer, xs[i], true, seeds[i], [&](const ag::Variable& xv) {
          return BiGruSequence(xv, ChildWeights(layer, "fw"),
                               ChildWeights(layer, "bw"), nullptr, false);
        });
  }
  const int64_t one_before = BiGruForwards("1");
  const int64_t two_before = BiGruForwards("2");
  std::vector<int> mismatches(2, 0);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      BiGru& layer = *layers[i];
      for (int64_t it = 0; it < kIterations; ++it) {
        const BiGruRun run = RunModule(
            layer, xs[i], true, seeds[i],
            [&](const ag::Variable& xv) { return layer.Forward(xv); });
        bool same = SameBits(run.out, want[i].out) &&
                    SameBits(run.dx, want[i].dx) &&
                    run.grads.size() == want[i].grads.size();
        for (size_t p = 0; same && p < run.grads.size(); ++p) {
          same = SameBits(run.grads[p], want[i].grads[p]);
        }
        if (!same) ++mismatches[i];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches[0], 0);
  EXPECT_EQ(mismatches[1], 0);
  // 24 training-size forwards: the helper paired some, and some found it
  // held by the other thread.
  EXPECT_GT(BiGruForwards("2") - two_before, 0);
  EXPECT_GT(BiGruForwards("1") - one_before, 0);
  EXPECT_EQ(BiGruForwards("1") - one_before + BiGruForwards("2") - two_before,
            2 * kIterations);
}

TEST(BiGruSequenceTest, PoisonedScratchReadsNoUnwrittenElement) {
  // The zoo audit (check::AuditMethodByName) runs with Scratch poisoned,
  // but its tiny config never pairs a BiGRU's directions. One train_dar
  // size layer, masked, paired and in turn: under poison the sentinel
  // finds no NaN, and the bits equal an unpoisoned run's.
  constexpr int64_t kB = 64, kT = 44, kE = 32, kH = 24;
  static_assert(kB * kT >= kBiGruPairedRows);
  Pcg32 rng(61);
  BiGru layer(kE, kH, rng);
  const Tensor x = Tensor::Randn({kB, kT, kE}, rng, 0.8f);
  const Tensor valid = RaggedMask(kB, kT, rng);
  const Tensor seed = Tensor::Randn({kB, kT, 2 * kH}, rng);
  for (bool paired : {true, false}) {
    SCOPED_TRACE(paired ? "paired" : "in turn");
    const auto forward = [&](const ag::Variable& xv) {
      return BiGruSequence(xv, ChildWeights(layer, "fw"),
                           ChildWeights(layer, "bw"), &valid, paired);
    };
    const BiGruRun want = RunModule(layer, x, true, seed, forward);
    check::DrainSentinelFindings();
    check::SetSentinelMode(check::SentinelMode::kRecord);
    check::SetPoisonScratch(true);
    const BiGruRun got = RunModule(layer, x, true, seed, forward);
    check::SetPoisonScratch(false);
    check::SetSentinelMode(check::SentinelMode::kOff);
    const std::vector<check::SentinelFinding> findings =
        check::DrainSentinelFindings();
    EXPECT_TRUE(findings.empty()) << findings.front().ToString();
    ExpectSameRun(got, want);
  }
}

TEST(GruTest, OutputShape) {
  Pcg32 rng(1);
  Gru gru(3, 5, rng);
  Tensor x(Shape{2, 4, 3}, 0.1f);
  ag::Variable out = gru.Forward(Embed(x));
  EXPECT_EQ(out.value().shape(), (Shape{2, 4, 5}));
}

TEST(GruTest, ParameterCount) {
  Pcg32 rng(2);
  Gru gru(3, 5, rng);
  // w_x [3,15] + w_h [5,15] + b [15].
  EXPECT_EQ(gru.NumParameters(), 3 * 15 + 5 * 15 + 15);
}

TEST(GruTest, ZeroInputZeroStateStaysSmall) {
  Pcg32 rng(3);
  Gru gru(2, 3, rng);
  Tensor x(Shape{1, 5, 2});  // zeros
  Tensor out = gru.Forward(Embed(x)).value();
  // With zero input and zero initial state, tanh/sigmoid keep values
  // bounded well inside (-1, 1).
  EXPECT_LT(MaxAll(Abs(out)), 1.0f);
}

TEST(GruTest, StatePropagatesThroughTime) {
  Pcg32 rng(4);
  Gru gru(1, 4, rng);
  Tensor x(Shape{1, 3, 1});
  x.at(0, 0, 0) = 5.0f;  // impulse at t=0, zero afterwards
  Tensor out = gru.Forward(Embed(x)).value();
  // The impulse response must persist: later steps differ from what an
  // all-zero input would give (memory).
  Tensor zero_x(Shape{1, 3, 1});
  Tensor zero_out = gru.Forward(Embed(zero_x)).value();
  EXPECT_FALSE(SliceTime(out, 2).AllClose(SliceTime(zero_out, 2), 1e-4f));
}

TEST(GruTest, MaskFreezesStateAtPadding) {
  Pcg32 rng(5);
  Gru gru(2, 3, rng);
  Pcg32 data_rng(6);
  Tensor x = Tensor::Randn({1, 4, 2}, data_rng);
  Tensor valid(Shape{1, 4}, {1, 1, 0, 0});
  Tensor out = gru.Forward(Embed(x), &valid).value();
  // After the sequence ends, the hidden state must stay frozen.
  EXPECT_TRUE(SliceTime(out, 2).AllClose(SliceTime(out, 1)));
  EXPECT_TRUE(SliceTime(out, 3).AllClose(SliceTime(out, 1)));
}

TEST(GruTest, PaddingContentDoesNotAffectValidStates) {
  Pcg32 rng(7);
  Gru gru(2, 3, rng);
  Pcg32 data_rng(8);
  Tensor x1 = Tensor::Randn({1, 4, 2}, data_rng);
  Tensor x2 = x1;
  // Corrupt padded positions only.
  x2.at(0, 3, 0) = 100.0f;
  Tensor valid(Shape{1, 4}, {1, 1, 1, 0});
  Tensor out1 = gru.Forward(Embed(x1), &valid).value();
  Tensor out2 = gru.Forward(Embed(x2), &valid).value();
  for (int64_t t = 0; t < 3; ++t) {
    EXPECT_TRUE(SliceTime(out1, t).AllClose(SliceTime(out2, t)));
  }
}

TEST(GruTest, ReverseDirectionMirrorsForward) {
  Pcg32 rng(9);
  // Same weights: construct forward, copy into reverse.
  Gru forward(2, 3, rng, /*reverse=*/false);
  Pcg32 rng2(9);
  Gru reverse(2, 3, rng2, /*reverse=*/true);  // identical init (same seed)
  Pcg32 data_rng(10);
  Tensor x = Tensor::Randn({1, 4, 2}, data_rng);
  // Time-reversed copy of x.
  Tensor xr(Shape{1, 4, 2});
  for (int64_t t = 0; t < 4; ++t) SetTime(xr, t, SliceTime(x, 3 - t));
  Tensor out_fwd = forward.Forward(Embed(xr)).value();
  Tensor out_rev = reverse.Forward(Embed(x)).value();
  // reverse(x) at time t == forward(reversed x) at time 3-t.
  for (int64_t t = 0; t < 4; ++t) {
    EXPECT_TRUE(SliceTime(out_rev, t).AllClose(SliceTime(out_fwd, 3 - t), 1e-5f));
  }
}

TEST(BiGruTest, OutputConcatenatesDirections) {
  Pcg32 rng(11);
  BiGru bigru(3, 4, rng);
  EXPECT_EQ(bigru.output_dim(), 8);
  Tensor x(Shape{2, 5, 3}, 0.2f);
  ag::Variable out = bigru.Forward(Embed(x));
  EXPECT_EQ(out.value().shape(), (Shape{2, 5, 8}));
}

TEST(BiGruTest, BackwardHalfSeesFuture) {
  Pcg32 rng(12);
  BiGru bigru(1, 2, rng);
  Tensor x1(Shape{1, 3, 1});
  Tensor x2(Shape{1, 3, 1});
  x2.at(0, 2, 0) = 3.0f;  // differ only at the last step
  Tensor out1 = bigru.Forward(Embed(x1)).value();
  Tensor out2 = bigru.Forward(Embed(x2)).value();
  // At t=0 the forward half agrees but the backward half must differ.
  bool fw_same = true, bw_differ = false;
  for (int64_t j = 0; j < 2; ++j) {
    if (std::abs(out1.at(0, 0, j) - out2.at(0, 0, j)) > 1e-6f) fw_same = false;
    if (std::abs(out1.at(0, 0, 2 + j) - out2.at(0, 0, 2 + j)) > 1e-6f) {
      bw_differ = true;
    }
  }
  EXPECT_TRUE(fw_same);
  EXPECT_TRUE(bw_differ);
}

TEST(GruTest, GradCheckThroughTime) {
  Pcg32 rng(13);
  Gru gru(2, 2, rng);
  Pcg32 data_rng(14);
  ag::GradCheckResult r = ag::CheckGradients(
      [&gru](const std::vector<ag::Variable>& v) {
        ag::Variable y = gru.Forward(v[0]);
        return ag::Sum(ag::Mul(y, y));
      },
      {Tensor::Randn({1, 3, 2}, data_rng, 0.5f)});
  EXPECT_TRUE(r.ok) << "max error " << r.max_abs_error << " at "
                    << r.worst_location;
}

TEST(GruTest, GradientsReachAllWeights) {
  Pcg32 rng(15);
  Gru gru(2, 3, rng);
  Pcg32 data_rng(16);
  Tensor x = Tensor::Randn({2, 3, 2}, data_rng);
  ag::Sum(gru.Forward(Embed(x))).Backward();
  for (const NamedParameter& p : gru.Parameters()) {
    EXPECT_TRUE(p.variable.has_grad()) << p.name;
    EXPECT_GT(Norm2(p.variable.grad()), 0.0f) << p.name;
  }
}

}  // namespace
}  // namespace nn
}  // namespace dar

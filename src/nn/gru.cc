#include "nn/gru.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "check/sentinel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sync/mutex.h"
#include "tensor/check.h"
#include "tensor/fastmath.h"
#include "tensor/gemm.h"
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

/// One forward step over all b rows. Row i reads its projection at (i, t)
/// of the [B, T, 3H] `proj` and writes its output at (i, t) of the
/// [B, T, *] output, whose rows are `stride` floats apart (`proj`, `out`
/// and `mask` point at time t); keeps its state in row i of step t's
/// [B, H] block of the time-major buffers (`z` .. `q2`), and leaves its
/// new state in row i of `h` for the next step's product.
template <bool kKeep, bool kMasked>
void ForwardStep(const float* proj, const float* q, const float* mask,
                 int64_t b, int64_t t_len, int64_t hd, int64_t stride,
                 float* h, float* out, float* z, float* r, float* n,
                 float* q2) {
  for (int64_t i = 0; i < b; ++i) {
    const int64_t kept = kKeep ? i * hd : 0;  // z, r, n, q2 are empty
    float* orow = out + i * t_len * stride;
    ForwardRow<kKeep, kMasked>(proj + i * t_len * 3 * hd, q + i * 3 * hd,
                               h + i * hd, kMasked ? mask[i * t_len] : 1.0f,
                               hd, orow, z + kept, r + kept, n + kept,
                               q2 + kept);
    std::copy(orow, orow + hd, h + i * hd);
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

// ---- One direction's recurrence ---------------------------------------------
//
// Forward, for gate layout [z | r | n] in the 3H projections, with
// p = proj[:, t] and q = h · W_h:
//   z = sigmoid(p[:, 0H:1H] + q[:, 0H:1H])
//   r = sigmoid(p[:, 1H:2H] + q[:, 1H:2H])
//   n = tanh  (p[:, 2H:3H] + r  * q[:, 2H:3H])
//   h' = (1 - z) * n + z * h
//   out = mask * h' + (1 - mask) * h        (no mask: out = h')
//
// Backward of one step (g = the step's state gradient): with
// gm = g * mask (or g when unmasked),
//   dh  = gm * z + g * (1 - mask)
//   dn  = gm * (1 - z);        dt   = dn * (1 - n^2)
//   dp2 = dt;                  dq2  = dt * r;   dr = dt * q2
//   dp1 = dq1 = dr * r * (1 - r)
//   dz  = gm * (h - n);        dp0  = dq0 = dz * z * (1 - z)
//
// Keep the cell expressions as written (FastSigmoid/FastTanh from
// tensor/fastmath.h included; FP contraction acts per expression): the
// row kernels above run them unchanged as vector loops, and every
// consumer — training, serving, cached and uncached paths, all replica
// counts, one or two threads — sees the same bits because RecurForward and
// RecurBackward are the one implementation, and tests/nn_gru_test.cc
// holds them bit for bit to a plain-loop per-step reference.

/// Where one direction's states live: row i's state at time t starts
/// (i * t_len + t) * stride floats into the [B, T, *] output (stride H for
/// a lone direction, 2H inside a BiGRU, whose reverse direction starts H
/// floats in).
struct Direction {
  int64_t b, t_len, hd;
  bool reverse;
  const float* mask;  // [B, T] 0/1, or nullptr = all valid
  int64_t stride;
  int64_t TimeOf(int64_t s) const { return reverse ? t_len - 1 - s : s; }
};

/// What a direction's forward keeps for BPTT: z, r, n and the candidate
/// third of each step's h · W_h, time-major [T, B, H] (a step's B rows are
/// contiguous in both passes). Empty when the node is not recorded.
struct KeptState {
  KeptState(const Direction& d, bool keep)
      : z(Shape{keep ? d.t_len * d.b * d.hd : 0}), r(z.shape()),
        n(z.shape()), q2(z.shape()) {}
  bool kept() const { return z.numel() > 0; }
  Tensor z, r, n, q2;
};

/// The forward recurrence of `d` over its projection `proj` [B, T, 3H],
/// writing every state into `out` (the direction's first column) and, when
/// kept, its BPTT state. `h` [B, H] enters zeroed and `q` [B, 3H] is
/// scratch. Every buffer belongs to the caller; this only computes.
void RecurForward(const Direction& d, const float* proj,
                  const gemm::PackedB& w_h, float* out, Tensor& h, Tensor& q,
                  KeptState& state) {
  const int64_t b = d.b, t_len = d.t_len, hd = d.hd;
  CountMatMulFlops(2 * b * 3 * hd * hd * t_len);
  const bool keep = state.kept();
  const auto forward_step =
      keep ? (d.mask != nullptr ? ForwardStep<true, true>
                                : ForwardStep<true, false>)
           : (d.mask != nullptr ? ForwardStep<false, true>
                                : ForwardStep<false, false>);
  for (int64_t s = 0; s < t_len; ++s) {
    const int64_t t = d.TimeOf(s);
    q.Zero();
    w_h.Multiply(h.data(), q.data());
    const int64_t kept_step = keep ? t * b * hd : 0;
    forward_step(proj + t * 3 * hd, q.data(),
                 d.mask != nullptr ? d.mask + t : nullptr, b, t_len, hd,
                 d.stride, h.data(), out + t * d.stride,
                 state.z.data() + kept_step, state.r.data() + kept_step,
                 state.n.data() + kept_step, state.q2.data() + kept_step);
  }
}

/// One BPTT's buffers, allocated once per call by the thread that runs
/// the backward: no step allocates.
struct BpttBuffers {
  BpttBuffers(const Direction& d, bool weight_grad)
      : dproj(Shape{d.b, d.t_len, 3 * d.hd}), g(Shape{d.b, d.hd}),
        dh(g.shape()), dq(Shape{d.b, 3 * d.hd}), h_prev(g.shape()),
        da(g.shape()),
        dw(weight_grad ? Tensor(Shape{d.hd, 3 * d.hd}) : Tensor()) {}
  Tensor dproj;   // the projection's gradient [B, T, 3H]
  Tensor g;       // state gradient of the current step
  Tensor dh;      // its cell term for the previous step
  Tensor dq;      // d (h · W_h) of the current step
  Tensor h_prev;  // the state entering the current step
  Tensor da;      // dq · W_h^T, into the previous state
  Tensor dw;      // h_prev^T · dq, into W_h's gradient
};

/// BPTT of `d` from the last step to the first, in the order gru.h's
/// contract states. Reads d out from `out_grad` and the states from `out`
/// (both at the direction's first column), writes the projection's
/// gradient into `buf.dproj`, and adds each step's h_prev^T · dq into
/// `w_h_grad` (nullptr: W_h is frozen), whose first step the caller counted
/// through Node::AccumulationBuffer. `w_t` is W_h^T packed once. With the
/// sentinel on, the gradients it produces are scanned under `op`.
void RecurBackward(const char* op, const Direction& d, const float* out_grad,
                   const float* out, const KeptState& state,
                   const gemm::PackedB& w_t, Tensor* w_h_grad,
                   BpttBuffers& buf) {
  const int64_t b = d.b, t_len = d.t_len, hd = d.hd, stride = d.stride;
  const bool scan = check::SentinelEnabled();
  CountMatMulFlops(2 * b * hd * 3 * hd * (t_len - 1) +
                   (w_h_grad != nullptr ? 2 * hd * 3 * hd * b * t_len : 0));
  const float* pz = state.z.data();
  const float* pr = state.r.data();
  const float* pn = state.n.data();
  const float* pq2 = state.q2.data();
  float* pdp = buf.dproj.data();
  float* pg = buf.g.data();
  float* pdh = buf.dh.data();
  float* pdq = buf.dq.data();
  float* ph = buf.h_prev.data();
  float* pda = buf.da.data();
  // g = 0 + d out[:, t]: the tape's first accumulation into a state.
  const auto load_out_grad = [&](int64_t t) {
    for (int64_t i = 0; i < b; ++i) {
      const float* ogrow = out_grad + (i * t_len + t) * stride;
      for (int64_t j = 0; j < hd; ++j) pg[i * hd + j] = 0.0f + ogrow[j];
    }
  };
  load_out_grad(d.TimeOf(t_len - 1));
  for (int64_t s = t_len - 1; s >= 0; --s) {
    const int64_t t = d.TimeOf(s);
    if (s > 0) {
      const int64_t tp = d.TimeOf(s - 1);
      for (int64_t i = 0; i < b; ++i) {
        const float* orow = out + (i * t_len + tp) * stride;
        std::copy(orow, orow + hd, ph + i * hd);
      }
    } else {
      buf.h_prev.Zero();
    }
    if (scan) check::ScanForNonFinite(op, "grad", pg, b * hd);
    const int64_t step = t * b * hd;  // step t's block of z, r, n, q2
    for (int64_t i = 0; i < b; ++i) {
      const int64_t row = i * t_len + t;
      const int64_t kept = step + i * hd;
      BackwardRow(pg + i * hd, pz + kept, pr + kept, pn + kept, pq2 + kept,
                  ph + i * hd, d.mask != nullptr ? d.mask[row] : 1.0f, hd,
                  pdp + row * 3 * hd, pdq + i * 3 * hd, pdh + i * hd);
    }
    if (scan) check::ScanForNonFinite(op, "grad", pdq, b * 3 * hd);
    if (s > 0) {
      // The previous step's state gradient, in the tape's order:
      // ((0 + d out) + cell term) + dq · W_h^T.
      buf.da.Zero();
      w_t.Multiply(pdq, pda);
      load_out_grad(d.TimeOf(s - 1));
      for (int64_t k = 0; k < b * hd; ++k) pg[k] = (pg[k] + pdh[k]) + pda[k];
    }
    if (w_h_grad != nullptr) {
      // W_h's gradient gains h_prev^T · dq, step by step in place.
      buf.dw.Zero();
      gemm::Gemm(gemm::Trans::kTA, hd, 3 * hd, b, ph, pdq, buf.dw.data());
      AddInPlace(*w_h_grad, buf.dw);
    }
  }
  if (scan) check::ScanForNonFinite(op, "grad", pdp, buf.dproj.numel());
}

// ---- The direction helper ---------------------------------------------------

/// One poll of a spin: a pause instruction, and on every 64th poll a
/// yield, so a spinner that the scheduler put on one CPU with the thread
/// it waits for hands that CPU over instead of burning its time slice.
void Pause(uint32_t poll) {
  if (poll % 64 == 0) {
    std::this_thread::yield();
    return;
  }
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// One process-wide thread that runs a BiGRU's reverse direction while
/// its caller runs the forward one. Started on first use and never
/// stopped (like the GEMM kernel pool, it does not survive fork()). After
/// each job it spins for the next one for kBiGruSpinUs, then parks on a
/// condition variable. One caller at a time holds it: TryClaim() fails
/// while another caller (a data-parallel replica, a second serving
/// worker) holds it.
class DirectionHelper {
 public:
  /// The helper, claimed for the calling thread; nullptr when another
  /// caller holds it.
  static DirectionHelper* TryClaim() {
    static DirectionHelper* const helper = [] {
      auto* h = new DirectionHelper();  // never destroyed: the thread runs on
      std::thread([h] { h->Loop(); }).detach();
      return h;
    }();
    if (helper->claimed_.exchange(true, std::memory_order_acquire)) {
      return nullptr;
    }
    return helper;
  }

  /// Runs `fn(arg)` on the helper thread. The caller holds the claim.
  void Post(void (*fn)(void*), void* arg) DAR_EXCLUDES(mu_) {
    fn_ = fn;
    arg_ = arg;
    sync::MutexLock lock(mu_);
    posted_.fetch_add(1, std::memory_order_release);
    if (helper_parked_) posted_cv_.NotifyOne();
  }

  /// Waits for the posted job and releases the claim. The caller never
  /// parks: a sleeping caller is woken onto the helper's CPU, and the two
  /// then share it until the load balancer parts them. Yielding while it
  /// waits hands a shared CPU to the helper.
  void Join() {
    const uint64_t job = posted_.load(std::memory_order_relaxed);
    for (uint32_t poll = 1; done_.load(std::memory_order_acquire) != job;
         ++poll) {
      Pause(poll);
    }
    claimed_.store(false, std::memory_order_release);
  }

 private:
  DirectionHelper() = default;

  void Loop() DAR_EXCLUDES(mu_) {
    uint64_t seen = 0;
    const auto posted = [&] {
      return posted_.load(std::memory_order_acquire) != seen;
    };
    for (;;) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(kBiGruSpinUs);
      for (uint32_t poll = 1; !posted(); ++poll) {
        if (poll % 64 == 0 && std::chrono::steady_clock::now() >= deadline) {
          sync::MutexLock lock(mu_);
          helper_parked_ = true;
          while (!posted()) posted_cv_.Wait(mu_);
          helper_parked_ = false;
          break;
        }
        Pause(poll);
      }
      seen = posted_.load(std::memory_order_acquire);
      fn_(arg_);
      done_.store(seen, std::memory_order_release);
    }
  }

  std::atomic<bool> claimed_{false};
  std::atomic<uint64_t> posted_{0};  // jobs posted so far
  std::atomic<uint64_t> done_{0};    // jobs finished so far
  // The posted job: written by the claiming caller before posted_'s
  // release, read by the helper after its acquire.
  void (*fn_)(void*) = nullptr;
  void* arg_ = nullptr;
  sync::Mutex mu_{sync::Rank::kHelper, "nn.bigru_helper"};
  sync::CondVar posted_cv_;  // the parked helper waits here
  bool helper_parked_ DAR_GUARDED_BY(mu_) = false;
};

/// Runs `forward_half` here and `reverse_half` on the helper when `paired`
/// and the helper is free, else both here in turn. Returns the number of
/// threads that ran them.
template <typename F, typename R>
int RunHalves(bool paired, F& forward_half, R& reverse_half) {
  DirectionHelper* helper = paired ? DirectionHelper::TryClaim() : nullptr;
  if (helper == nullptr) {
    forward_half();
    reverse_half();
    return 1;
  }
  helper->Post([](void* half) { (*static_cast<R*>(half))(); }, &reverse_half);
  forward_half();
  helper->Join();
  return 2;
}

/// One direction of a BiGRU layer: its parameters' nodes and everything
/// its forward writes or keeps, allocated on construction on the thread
/// that records the node.
struct BiGruHalf {
  BiGruHalf(const GruWeights& w, const Direction& dir, int64_t e, bool keep)
      : w_x(w.w_x.node()), w_h(w.w_h.node()), bias(w.b.node()), d(dir),
        proj(Shape{dir.b, dir.t_len, 3 * dir.hd}), state(dir, keep) {
    DAR_CHECK(w_x->value.shape() == (Shape{e, 3 * d.hd}));
    DAR_CHECK(w_h->value.shape() == (Shape{d.hd, 3 * d.hd}));
    DAR_CHECK(bias->value.shape() == (Shape{3 * d.hd}));
  }
  bool ProjGrad(const ag::Node& x) const {
    return x.requires_grad || w_x->requires_grad || bias->requires_grad;
  }
  bool Recorded(const ag::Node& x) const {
    return ProjGrad(x) || w_h->requires_grad;
  }
  std::shared_ptr<ag::Node> w_x, w_h, bias;
  Direction d;
  Tensor proj;  // x · w_x + b, [B, T, 3H]
  KeptState state;
};

/// C = op(A) · op(B) into the zeroed `c`, counted as tensor_ops' MatMul
/// counts it.
void Product(gemm::Trans trans, int64_t m, int64_t n, int64_t k,
             const float* a, const float* b, float* c) {
  CountMatMulFlops(2 * m * n * k);
  gemm::Gemm(trans, m, n, k, a, b, c);
}

obs::Counter& BiGruForwards(int threads) {
  static obs::Counter* const counters[2] = {
      &obs::MetricsRegistry::Global().GetCounter(
          obs::LabeledName("nn_bigru_forwards_total", {{"threads", "1"}})),
      &obs::MetricsRegistry::Global().GetCounter(
          obs::LabeledName("nn_bigru_forwards_total", {{"threads", "2"}}))};
  return *counters[threads - 1];
}

}  // namespace

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
  const Direction d{b, t_len, hd, reverse,
                    valid != nullptr ? valid->data() : nullptr, hd};
  // BPTT state, kept only when the node will be recorded: serving
  // allocates none of it.
  const bool keep = proj.requires_grad() || w_h.requires_grad();
  KeptState state(d, keep);
  Tensor out = Tensor::Scratch(Shape{b, t_len, hd});
  {
    Tensor h(Shape{b, hd});  // the state entering the current step
    Tensor q(Shape{b, 3 * hd});
    // W_h packed once for the whole sequence (or kept for the small loop).
    const gemm::PackedB w_packed(gemm::Trans::kNN, b, 3 * hd, hd, wv.data());
    RecurForward(d, pv.data(), w_packed, out.data(), h, q, state);
  }

  auto np = proj.node();
  auto nw = w_h.node();
  Tensor mask = keep && valid != nullptr ? *valid : Tensor();
  auto backward = [np, nw, state = std::move(state), mask = std::move(mask),
                   d](ag::Node& node) {
    Direction dir = d;
    dir.mask = mask.numel() > 0 ? mask.data() : nullptr;
    BpttBuffers buf(dir, nw->requires_grad);
    // W_h^T packed once for the whole BPTT.
    const gemm::PackedB w_t(gemm::Trans::kTB, dir.b, dir.hd, 3 * dir.hd,
                            nw->value.data());
    Tensor* w_h_grad = nw->requires_grad ? &nw->AccumulationBuffer() : nullptr;
    RecurBackward("gru_sequence", dir, node.grad.data(), node.value.data(),
                  state, w_t, w_h_grad, buf);
    if (np->requires_grad) np->AccumulateGrad(std::move(buf.dproj));
  };
  return ag::MakeOpResult("gru_sequence", std::move(out), {np, nw},
                          std::move(backward));
}

ag::Variable BiGruSequence(const ag::Variable& x, const GruWeights& forward,
                           const GruWeights& reverse, const Tensor* valid,
                           bool paired) {
  const Tensor& xv = x.value();
  DAR_CHECK_EQ(xv.dim(), 3);
  const int64_t b = xv.size(0), t_len = xv.size(1), e = xv.size(2);
  const int64_t hd = forward.w_h.value().size(0);
  DAR_CHECK_GT(t_len, 0);
  if (valid != nullptr) {
    DAR_CHECK_EQ(valid->dim(), 2);
    DAR_CHECK_EQ(valid->size(0), b);
    DAR_CHECK_EQ(valid->size(1), t_len);
  }
  // The halves add into their own parameters' gradients concurrently.
  DAR_CHECK(forward.w_x.node() != reverse.w_x.node() &&
            forward.w_h.node() != reverse.w_h.node() &&
            forward.b.node() != reverse.b.node());
  const auto px = x.node();
  bool keep = x.requires_grad();
  for (const GruWeights* w : {&forward, &reverse}) {
    keep = keep || w->w_x.requires_grad() || w->w_h.requires_grad() ||
           w->b.requires_grad();
  }
  const float* mask = valid != nullptr ? valid->data() : nullptr;
  // Forward states in columns [0, H) of each output row, reverse in
  // [H, 2H).
  BiGruHalf fw(forward, {b, t_len, hd, false, mask, 2 * hd}, e, keep);
  BiGruHalf bw(reverse, {b, t_len, hd, true, mask, 2 * hd}, e, keep);
  Tensor out = Tensor::Scratch(Shape{b, t_len, 2 * hd});
  {
    Tensor h_fw(Shape{b, hd}), q_fw(Shape{b, 3 * hd});
    Tensor h_bw(Shape{b, hd}), q_bw(Shape{b, 3 * hd});
    const gemm::PackedB w_fw(gemm::Trans::kNN, b, 3 * hd, hd,
                             fw.w_h->value.data());
    const gemm::PackedB w_bw(gemm::Trans::kNN, b, 3 * hd, hd,
                             bw.w_h->value.data());
    // x [B, T, E] read as B·T rows times [E, 3H], one GEMM per direction,
    // with the bias added in place: ag::Affine's bits.
    const auto run = [&](BiGruHalf& half, Tensor& h, Tensor& q,
                         const gemm::PackedB& w_h, float* columns) {
      Product(gemm::Trans::kNN, b * t_len, 3 * hd, e, xv.data(),
              half.w_x->value.data(), half.proj.data());
      AddRowBroadcastInPlace(half.proj, half.bias->value);
      RecurForward(half.d, half.proj.data(), w_h, columns, h, q, half.state);
    };
    auto forward_half = [&] { run(fw, h_fw, q_fw, w_fw, out.data()); };
    auto reverse_half = [&] { run(bw, h_bw, q_bw, w_bw, out.data() + hd); };
    BiGruForwards(RunHalves(paired, forward_half, reverse_half)).Increment();
  }
  // The backward reads x, not the projections.
  fw.proj = Tensor();
  bw.proj = Tensor();

  Tensor kept_mask = keep && valid != nullptr ? *valid : Tensor();
  auto backward = [px, fw = std::move(fw), bw = std::move(bw),
                   kept_mask = std::move(kept_mask), paired,
                   e](ag::Node& node) {
    const ag::Node& xn = *px;
    const int64_t rows = fw.d.b * fw.d.t_len, hd = fw.d.hd;
    // Every buffer of both halves, allocated here: the helper only
    // computes.
    struct Grads {
      Grads(const BiGruHalf& half, const ag::Node& x, int64_t e)
          : bptt(half.d, half.w_h->requires_grad),
            w_t(gemm::Trans::kTB, half.d.b, half.d.hd, 3 * half.d.hd,
                half.w_h->value.data()),
            w_h(half.w_h->requires_grad ? &half.w_h->AccumulationBuffer()
                                        : nullptr),
            dx(x.requires_grad ? Tensor(x.value.shape()) : Tensor()),
            dw_x(half.w_x->requires_grad ? Tensor(Shape{e, 3 * half.d.hd})
                                         : Tensor()),
            db(half.bias->requires_grad ? Tensor(Shape{3 * half.d.hd})
                                        : Tensor()) {}
      BpttBuffers bptt;
      gemm::PackedB w_t;
      Tensor* w_h;
      Tensor dx, dw_x, db;
    };
    const bool fw_live = fw.Recorded(xn), bw_live = bw.Recorded(xn);
    std::optional<Grads> gf, gb;
    if (fw_live) gf.emplace(fw, xn, e);
    if (bw_live) gb.emplace(bw, xn, e);
    const auto run = [&](const BiGruHalf& half, Grads& g, int64_t column) {
      Direction d = half.d;
      d.mask = kept_mask.numel() > 0 ? kept_mask.data() : nullptr;
      RecurBackward("bigru", d, node.grad.data() + column,
                    node.value.data() + column, half.state, g.w_t, g.w_h,
                    g.bptt);
      if (!half.ProjGrad(xn)) return;
      // The projection node's gradient was 0 + dproj (its one, moved,
      // accumulation); then its affine backward.
      float* dp = g.bptt.dproj.data();
      for (int64_t i = 0; i < g.bptt.dproj.numel(); ++i) dp[i] = 0.0f + dp[i];
      if (xn.requires_grad) {
        Product(gemm::Trans::kTB, rows, half.w_x->value.size(0), 3 * hd, dp,
                half.w_x->value.data(), g.dx.data());
      }
      if (half.w_x->requires_grad) {
        Product(gemm::Trans::kTA, half.w_x->value.size(0), 3 * hd, rows,
                xn.value.data(), dp, g.dw_x.data());
      }
      if (half.bias->requires_grad) {
        float* db = g.db.data();
        for (int64_t i = 0; i < rows; ++i) {
          const float* row = dp + i * 3 * hd;
          for (int64_t j = 0; j < 3 * hd; ++j) db[j] += row[j];
        }
      }
    };
    auto forward_half = [&] {
      if (fw_live) run(fw, *gf, 0);
    };
    auto reverse_half = [&] {
      if (bw_live) run(bw, *gb, hd);
    };
    RunHalves(paired && fw_live && bw_live, forward_half, reverse_half);
    // Into the parents in the old tape's order: the reverse direction's
    // affine closure ran before the forward one's.
    for (auto* half : {&gb, &gf}) {
      if (!half->has_value()) continue;
      Grads& g = **half;
      const BiGruHalf& h = half == &gb ? bw : fw;
      if (xn.requires_grad) px->AccumulateGrad(std::move(g.dx));
      if (h.w_x->requires_grad) h.w_x->AccumulateGrad(std::move(g.dw_x));
      if (h.bias->requires_grad) h.bias->AccumulateGrad(std::move(g.db));
    }
  };
  std::vector<std::shared_ptr<ag::Node>> parents = {
      px, forward.w_x.node(), forward.b.node(), forward.w_h.node(),
      px, reverse.w_x.node(), reverse.b.node(), reverse.w_h.node()};
  return ag::MakeOpResult("bigru", std::move(out), std::move(parents),
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
  DAR_CHECK_EQ(xv.size(2), input_dim_);
  // Project all timesteps at once: x [B, T, E] read as B·T rows times
  // [E, 3H], one large GEMM instead of T small ones (the packed kernel's
  // best case), with the bias added in place.
  return GruSequence(ag::Affine(x, w_x_, b_), w_h_, valid, reverse_);
}

BiGru::BiGru(int64_t input_dim, int64_t hidden_dim, Pcg32& rng)
    : forward_(input_dim, hidden_dim, rng, /*reverse=*/false),
      backward_(input_dim, hidden_dim, rng, /*reverse=*/true) {
  RegisterChild("fw", &forward_);
  RegisterChild("bw", &backward_);
}

ag::Variable BiGru::Forward(const ag::Variable& x, const Tensor* valid) const {
  obs::Span span("gru.forward", obs::TraceLevel::kDetailed);
  const Tensor& xv = x.value();
  DAR_CHECK_EQ(xv.dim(), 3);
  DAR_CHECK_EQ(xv.size(2), forward_.input_dim());
  return BiGruSequence(x, forward_.weights(), backward_.weights(), valid,
                       xv.size(0) * xv.size(1) >= kBiGruPairedRows);
}

}  // namespace nn
}  // namespace dar

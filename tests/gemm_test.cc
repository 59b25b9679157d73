// Certification of the blocked GEMM kernel layer (tensor/gemm.h).
//
// The contract under test is BIT-exactness, not closeness: every path
// through Gemm() — small-shape loops, packed single-threaded, packed
// multi-threaded at any worker count, AVX2 and scalar builds — must equal
// the scalar std::fma witness GemmReference() float-for-float. The serving
// cache differential harness and the parallel-trainer equivalence test both
// lean on this, so the comparisons here use exact equality throughout.
#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "nn/gru.h"
#include "tensor/random.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace gemm {
namespace {

struct Dims {
  int64_t m, n, k;
};

/// Fills a buffer with a deterministic, sign-mixed, non-uniform pattern
/// (exercises rounding in every fma step; bit-compares would pass trivially
/// on zeros or powers of two).
std::vector<float> Fill(int64_t count, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<float> v(static_cast<size_t>(count));
  for (float& x : v) x = (rng.NextFloat() * 3.0f - 1.5f) * 1.1f + 1e-3f;
  return v;
}

/// Runs one (trans, m, n, k) case through Gemm and GemmReference and
/// bit-compares. A/B buffer sizes depend on the variant: op(A) is m x k and
/// op(B) is k x n, but storage is the pre-transpose shape.
void ExpectBitExact(Trans trans, int64_t m, int64_t n, int64_t k) {
  std::vector<float> a = Fill(m * k, 1000 + m * 7 + k);
  std::vector<float> b = Fill(k * n, 2000 + k * 7 + n);
  std::vector<float> c_fast(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> c_ref(static_cast<size_t>(m * n), 0.0f);
  Gemm(trans, m, n, k, a.data(), b.data(), c_fast.data());
  GemmReference(trans, m, n, k, a.data(), b.data(), c_ref.data());
  ASSERT_EQ(std::memcmp(c_fast.data(), c_ref.data(),
                        static_cast<size_t>(m * n) * sizeof(float)),
            0)
      << "trans=" << static_cast<int>(trans) << " m=" << m << " n=" << n
      << " k=" << k;
}

const Trans kAllTrans[] = {Trans::kNN, Trans::kTA, Trans::kTB};

// ---- Shape sweep -----------------------------------------------------------

TEST(GemmTest, SmallOddEdgeSweep) {
  // Odd primes and near-tile sizes around the MR=6 / NR=16 register tile so
  // every edge-tail combination (mr < MR, nr < NR, both) gets hit.
  const int64_t dims[] = {1, 2, 3, 5, 6, 7, 8, 13, 15, 16, 17};
  for (Trans t : kAllTrans) {
    for (int64_t m : dims) {
      for (int64_t n : dims) {
        for (int64_t k : dims) {
          ExpectBitExact(t, m, n, k);
        }
      }
    }
  }
}

TEST(GemmTest, PackedShapesAllVariants) {
  // All past the packed threshold; chosen to cover clean tiles, edge tails
  // in every dimension, k crossing the KC=256 panel boundary, and multiple
  // row chunks (m > 96).
  const Dims shapes[] = {
      {48, 48, 48},     // single chunk, edge tails in m (48 = 8 * MR) and n
      {96, 64, 32},     // exactly one row chunk, clean n tiles
      {97, 65, 33},     // +1 on everything: full edge-tail path
      {128, 128, 128},  // two row chunks
      {200, 112, 300},  // k > KC: partial C stored and resumed across panels
      {61, 77, 259},    // odd everything with a k panel tail
  };
  for (Trans t : kAllTrans) {
    for (const Dims& d : shapes) ExpectBitExact(t, d.m, d.n, d.k);
  }
}

TEST(GemmTest, TallSkinnyAndWideShapes) {
  // The encoder's real shapes: tall activations against skinny weights
  // (forward), and their transposed counterparts (backward).
  const Dims shapes[] = {
      {640, 9, 32},   // B*T x E projection, tiny n
      {9, 640, 32},   // its TA mirror
      {512, 72, 24},  // flat GRU input projection shape class
      {3, 500, 400},  // wide-n with almost no m
  };
  for (Trans t : kAllTrans) {
    for (const Dims& d : shapes) ExpectBitExact(t, d.m, d.n, d.k);
  }
}

TEST(GemmTest, PackedThresholdBoundary) {
  // Certify both sides of the small/packed dispatch boundary with the same
  // harness, so a future threshold retune cannot silently change results.
  int64_t m = 64, n = 64;
  int64_t k_below = 20, k_above = 32;  // 64*64*24 = 98304 is the boundary
  ASSERT_FALSE(UsesPackedPath(m, n, k_below));
  ASSERT_TRUE(UsesPackedPath(m, n, k_above));
  for (Trans t : kAllTrans) {
    ExpectBitExact(t, m, n, k_below);
    ExpectBitExact(t, m, n, k_above);
  }
}

TEST(GemmTest, DegenerateDimsLeaveCZero) {
  std::vector<float> a(8, 1.0f), b(8, 1.0f), c(4, 0.0f);
  Gemm(Trans::kNN, 2, 2, 0, a.data(), b.data(), c.data());
  Gemm(Trans::kNN, 0, 2, 2, a.data(), b.data(), c.data());
  for (float x : c) EXPECT_EQ(x, 0.0f);
}

// ---- Worker-count invariance ----------------------------------------------

/// RAII guard: restores the inline kernel path however the test exits.
struct KernelThreadsGuard {
  ~KernelThreadsGuard() { SetKernelThreads(1); }
};

TEST(GemmTest, WorkerCountInvariance) {
  KernelThreadsGuard guard;
  // Big enough that the threaded path actually engages: multiple row chunks
  // (m / 96 = 4) and 2*m*n*k well past the 1 MFLOP fan-out floor.
  const int64_t m = 384, n = 96, k = 80;
  std::vector<float> a = Fill(m * k, 42);
  std::vector<float> b = Fill(k * n, 43);

  SetKernelThreads(1);
  ASSERT_EQ(KernelThreads(), 1);
  std::vector<float> c1(static_cast<size_t>(m * n), 0.0f);
  Gemm(Trans::kNN, m, n, k, a.data(), b.data(), c1.data());

  // Also pin the single-threaded result to the scalar witness, so the
  // invariance below is anchored to the reference, not just to itself.
  std::vector<float> c_ref(static_cast<size_t>(m * n), 0.0f);
  GemmReference(Trans::kNN, m, n, k, a.data(), b.data(), c_ref.data());
  ASSERT_EQ(std::memcmp(c1.data(), c_ref.data(), c1.size() * sizeof(float)), 0);

  for (int workers : {2, 4, 8}) {
    SetKernelThreads(workers);
    ASSERT_EQ(KernelThreads(), workers);
    for (Trans t : kAllTrans) {
      std::vector<float> cn(static_cast<size_t>(m * n), 0.0f);
      std::vector<float> cs(static_cast<size_t>(m * n), 0.0f);
      Gemm(t, m, n, k, a.data(), b.data(), cn.data());
      SetKernelThreads(1);
      Gemm(t, m, n, k, a.data(), b.data(), cs.data());
      SetKernelThreads(workers);
      ASSERT_EQ(std::memcmp(cn.data(), cs.data(), cn.size() * sizeof(float)),
                0)
          << "threads=" << workers << " trans=" << static_cast<int>(t);
    }
  }
}

TEST(GemmTest, RepeatedThreadedCallsAreStable) {
  KernelThreadsGuard guard;
  SetKernelThreads(4);
  const int64_t m = 200, n = 64, k = 64;
  std::vector<float> a = Fill(m * k, 7), b = Fill(k * n, 8);
  std::vector<float> first(static_cast<size_t>(m * n), 0.0f);
  Gemm(Trans::kNN, m, n, k, a.data(), b.data(), first.data());
  // Re-running must reproduce the same bits every time: no dependence on
  // scheduling, pool state, or thread-local buffer history.
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
    Gemm(Trans::kNN, m, n, k, a.data(), b.data(), c.data());
    ASSERT_EQ(std::memcmp(first.data(), c.data(), c.size() * sizeof(float)),
              0)
        << "rep=" << rep;
  }
}

TEST(GemmTest, GruTrainingShapesAtOneAndFourThreads) {
  // The GRU's packed products at training size (B = 64, H = 24, 3H = 72,
  // E = 32, B*T = 2816), in the orientations training runs them. Each has
  // a column tail (n % 16 != 0); dW_x's k crosses 11 KC panels.
  KernelThreadsGuard guard;
  struct Case {
    Trans trans;
    Dims d;
  };
  const Case cases[] = {
      {Trans::kNN, {64, 72, 24}},    // recurrent step h · W_h
      {Trans::kTB, {64, 24, 72}},    // BPTT dh = dq · W_h^T
      {Trans::kTA, {24, 72, 64}},    // dW_h = h^T · dq
      {Trans::kNN, {2816, 72, 32}},  // input projection x · W_x
      {Trans::kTA, {32, 72, 2816}},  // dW_x = x^T · dproj
  };
  for (int threads : {1, 4}) {
    SetKernelThreads(threads);
    for (const Case& cs : cases) {
      SCOPED_TRACE(threads);
      ASSERT_TRUE(UsesPackedPath(cs.d.m, cs.d.n, cs.d.k));
      ExpectBitExact(cs.trans, cs.d.m, cs.d.n, cs.d.k);
    }
  }
}

TEST(GemmTest, EveryColumnTailWidth) {
  // n = 17 .. 31 leaves a column tail of every width 1 .. 15 after one full
  // 16-wide panel.
  KernelThreadsGuard guard;
  for (int threads : {1, 4}) {
    SetKernelThreads(threads);
    for (int64_t n = 17; n <= 31; ++n) {
      SCOPED_TRACE(threads);
      ASSERT_TRUE(UsesPackedPath(64, n, 96));
      for (Trans t : kAllTrans) ExpectBitExact(t, 64, n, 96);
    }
  }
}

/// The thread ids of this process, as listed under /proc/self/task.
std::set<std::string> ThreadIds() {
  std::set<std::string> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.insert(entry.path().filename().string());
  }
  return ids;
}

TEST(GemmTest, LoweringTheBudgetKeepsThePool) {
  KernelThreadsGuard guard;
  // Four row chunks and well past the fan-out floor: the threaded path.
  const int64_t m = 384, n = 72, k = 80;
  std::vector<float> a = Fill(m * k, 51), b = Fill(k * n, 52);
  std::vector<float> c_ref(static_cast<size_t>(m * n), 0.0f);
  GemmReference(Trans::kNN, m, n, k, a.data(), b.data(), c_ref.data());

  SetKernelThreads(4);
  const std::set<std::string> threads_at_four = ThreadIds();
  for (int threads : {2, 4}) {
    SetKernelThreads(threads);
    ASSERT_EQ(KernelThreads(), threads);
    std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
    Gemm(Trans::kNN, m, n, k, a.data(), b.data(), c.data());
    ASSERT_EQ(std::memcmp(c.data(), c_ref.data(), c.size() * sizeof(float)),
              0)
        << "threads=" << threads;
  }
  EXPECT_EQ(KernelThreads(), 4);
  // Neither the drop to 2 nor the return to 4 spawned or joined a thread.
  EXPECT_EQ(ThreadIds(), threads_at_four);
}

TEST(GemmTest, SetKernelThreadsClampsAndReports) {
  KernelThreadsGuard guard;
  SetKernelThreads(0);
  EXPECT_EQ(KernelThreads(), 1);
  SetKernelThreads(-3);
  EXPECT_EQ(KernelThreads(), 1);
  SetKernelThreads(3);
  EXPECT_EQ(KernelThreads(), 3);
}

// ---- Tensor-level wrappers -------------------------------------------------

TEST(GemmTest, TensorMatMulVariantsMatchReference) {
  // The tensor_ops wrappers must route through the same kernel: compare
  // MatMul / MatMulTA / MatMulTB against GemmReference on a packed-size
  // shape (this also certifies the autograd backward inputs, which are
  // nothing but TA/TB products of forward-sized operands).
  Pcg32 rng(77);
  const int64_t m = 112, n = 48, k = 64;
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  Tensor at = Tensor::Randn({k, m}, rng);
  Tensor bt = Tensor::Randn({n, k}, rng);

  Tensor c_nn = MatMul(a, b);
  Tensor c_ta = MatMulTA(at, b);
  Tensor c_tb = MatMulTB(a, bt);

  Tensor r_nn(Shape{m, n}), r_ta(Shape{m, n}), r_tb(Shape{m, n});
  GemmReference(Trans::kNN, m, n, k, a.data(), b.data(), r_nn.data());
  GemmReference(Trans::kTA, m, n, k, at.data(), b.data(), r_ta.data());
  GemmReference(Trans::kTB, m, n, k, a.data(), bt.data(), r_tb.data());

  const size_t bytes = static_cast<size_t>(m * n) * sizeof(float);
  EXPECT_EQ(std::memcmp(c_nn.data(), r_nn.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(c_ta.data(), r_ta.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(c_tb.data(), r_tb.data(), bytes), 0);
}

// ---- Gradchecks through the kernel -----------------------------------------

TEST(GemmTest, MatMulGradCheckSmallPath) {
  Pcg32 rng(5);
  ag::GradCheckResult r = ag::CheckGradients(
      [](const std::vector<ag::Variable>& v) {
        return ag::Sum(ag::MatMul(v[0], v[1]));
      },
      {Tensor::Randn({3, 5}, rng, 0.5f), Tensor::Randn({5, 4}, rng, 0.5f)});
  EXPECT_TRUE(r.ok) << "max error " << r.max_abs_error << " at "
                    << r.worst_location;
}

TEST(GemmTest, MatMulGradCheckPackedPath) {
  // 48^3 routes to the packed kernel (48*48*48 > 96*1024): the backward's
  // TA/TB products then exercise the packed path too.
  ASSERT_TRUE(UsesPackedPath(48, 48, 48));
  Pcg32 rng(6);
  ag::GradCheckResult r = ag::CheckGradients(
      [](const std::vector<ag::Variable>& v) {
        return ag::Sum(ag::MatMul(v[0], v[1]));
      },
      {Tensor::Randn({48, 48}, rng, 0.1f), Tensor::Randn({48, 48}, rng, 0.1f)});
  EXPECT_TRUE(r.ok) << "max error " << r.max_abs_error << " at "
                    << r.worst_location;
}

TEST(GemmTest, GruForwardGradCheckThroughKernel) {
  // End-to-end: the restructured GRU (flat projection + fused cell, both
  // feeding the kernel layer) must stay gradcheck-clean, masked included.
  Pcg32 rng(9);
  nn::Gru gru(3, 4, rng);
  Pcg32 data_rng(10);
  Tensor valid(Shape{2, 3}, {1, 1, 0, 1, 1, 1});
  ag::GradCheckResult r = ag::CheckGradients(
      [&gru, &valid](const std::vector<ag::Variable>& v) {
        ag::Variable y = gru.Forward(v[0], &valid);
        return ag::Sum(ag::Mul(y, y));
      },
      {Tensor::Randn({2, 3, 3}, data_rng, 0.5f)});
  EXPECT_TRUE(r.ok) << "max error " << r.max_abs_error << " at "
                    << r.worst_location;
}

TEST(GemmTest, GruForwardGradCheckThreaded) {
  // Same graph with the kernel pool active: gradients must not change by a
  // single bit relative to gradcheck's tolerance (the forward values are
  // worker-count-invariant, so this certifies backward wiring under
  // threading rather than numerics).
  KernelThreadsGuard guard;
  SetKernelThreads(4);
  Pcg32 rng(11);
  nn::Gru gru(2, 3, rng);
  Pcg32 data_rng(12);
  ag::GradCheckResult r = ag::CheckGradients(
      [&gru](const std::vector<ag::Variable>& v) {
        ag::Variable y = gru.Forward(v[0]);
        return ag::Sum(ag::Mul(y, y));
      },
      {Tensor::Randn({1, 4, 2}, data_rng, 0.5f)});
  EXPECT_TRUE(r.ok) << "max error " << r.max_abs_error << " at "
                    << r.worst_location;
}

}  // namespace
}  // namespace gemm
}  // namespace dar

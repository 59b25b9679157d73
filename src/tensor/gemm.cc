#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/thread_pool.h"
#include "sync/mutex.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define DAR_GEMM_AVX2 1
#endif

namespace dar {
namespace gemm {

namespace {

// Register micro-tile. MR x NR = 6 x 16 keeps 12 AVX2 accumulators plus two
// B vectors and one A broadcast inside the 16 ymm registers.
constexpr int64_t kMr = 6;
constexpr int64_t kNr = 16;
// K panel: one packed A micro-panel (kMr * kKc floats) plus the B panels it
// touches stay L1/L2-resident across the j sweep.
constexpr int64_t kKc = 256;
// Fixed M partition for both the ic loop and the threaded path. A multiple
// of kMr so chunk boundaries never split a micro-panel; independent of the
// worker count by construction (the determinism argument, gemm.h).
constexpr int64_t kRowChunk = 96;
// The small loops' crossovers (UsesPackedPath, gemm.h), measured by
// bench/gemm.cc's `crossover` rows: NN packs from this many rows of A, TA
// from this reduction length.
constexpr int64_t kNnPackedMinRows = 6;
constexpr int64_t kTaPackedMinDepth = 6;
// Fan out to the kernel pool only when there is enough arithmetic to
// amortize the submit/latch round trip and at least two row chunks exist.
constexpr int64_t kThreadFlopThreshold = kSpanFlopThreshold;

inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// ---- Operand views ---------------------------------------------------------
// op(A) is m x k and op(B) is k x n regardless of Trans; the packing loops
// read through these so the transpose never materializes.

struct OpView {
  const float* p;
  int64_t row_stride;
  int64_t col_stride;
  inline float at(int64_t r, int64_t c) const {
    return p[r * row_stride + c * col_stride];
  }
};

inline OpView ViewOpA(Trans t, const float* a, int64_t m, int64_t k) {
  if (t == Trans::kTA) return {a, 1, m};  // A is [k, m]
  return {a, k, 1};                       // A is [m, k]
}

inline OpView ViewOpB(Trans t, const float* b, int64_t n, int64_t k) {
  if (t == Trans::kTB) return {b, 1, k};  // B is [n, k]
  return {b, n, 1};                       // B is [k, n]
}

// ---- Packing ---------------------------------------------------------------

/// Packs ALL of op(B) into kc-major panels: for each kc panel (ascending),
/// for each NR column panel, a [kc x kNr] block, row padded with zeros past
/// n. Offset of (pc, jp) = pc * num_jp * kNr + jp * kc * kNr.
void PackB(const OpView& opb, int64_t k, int64_t n, std::vector<float>& out) {
  int64_t num_jp = CeilDiv(n, kNr);
  out.resize(static_cast<size_t>(k * num_jp * kNr));
  float* dst = out.data();
  // col_stride == 1 (the NN / TA orientations): each packed row is a
  // contiguous 16-float segment, which the compiler turns into two vector
  // copies — packing cost matters at the small end of the packed range.
  const bool contiguous = opb.col_stride == 1;
  for (int64_t pc = 0; pc < k; pc += kKc) {
    int64_t kc = std::min(kKc, k - pc);
    for (int64_t jp = 0; jp < num_jp; ++jp) {
      int64_t j0 = jp * kNr;
      int64_t nr = std::min(kNr, n - j0);
      for (int64_t kk = 0; kk < kc; ++kk) {
        const int64_t kg = pc + kk;
        if (contiguous) {
          const float* src = opb.p + kg * opb.row_stride + j0;
          for (int64_t jj = 0; jj < nr; ++jj) dst[jj] = src[jj];
        } else {
          for (int64_t jj = 0; jj < nr; ++jj) dst[jj] = opb.at(kg, j0 + jj);
        }
        for (int64_t jj = nr; jj < kNr; ++jj) dst[jj] = 0.0f;
        dst += kNr;
      }
    }
  }
}

/// Packs rows [i0, i0+mc) of a column-major op(A) (the TA orientation,
/// row_stride == 1), k panel [pc, pc+kc), into MR row panels: panel ir
/// holds kc columns of MR contiguous values (zero padded past m). A
/// row-major op(A) is not packed: the micro-kernel reads its rows in place.
void PackA(const OpView& opa, int64_t i0, int64_t mc, int64_t pc, int64_t kc,
           std::vector<float>& out) {
  int64_t num_ip = CeilDiv(mc, kMr);
  out.resize(static_cast<size_t>(num_ip * kc * kMr));
  float* dst = out.data();
  for (int64_t ip = 0; ip < num_ip; ++ip) {
    int64_t r0 = i0 + ip * kMr;
    int64_t mr = std::min(kMr, i0 + mc - r0);
    for (int64_t kk = 0; kk < kc; ++kk) {
      const float* src = opa.p + r0 + (pc + kk) * opa.col_stride;
      for (int64_t rr = 0; rr < mr; ++rr) dst[rr] = src[rr];
      for (int64_t rr = mr; rr < kMr; ++rr) dst[rr] = 0.0f;
      dst += kMr;
    }
  }
}

// ---- Micro-kernels ---------------------------------------------------------
// Each accumulates kc fma steps (ascending k) into the current C values —
// resuming the per-element fma chain across kc panels losslessly. A tile's
// A value (r, kk) is read from a packed micro-panel at pa[kk * kMr + r]
// (kInPlaceA false), or in place from a row-major op(A) at
// pa[r * lda + kk] (kInPlaceA true: the NN and TB orientations, which
// therefore skip packing A). Either way it is the same value in the same
// fma, so the two instantiations give the same bits.

#ifdef DAR_GEMM_AVX2

/// Full-width tile of MR rows x 16 columns (MR = 6 for interior tiles,
/// 1..5 for the last row panel of a chunk): 2*MR ymm accumulators,
/// lanewise fma — bit-identical to the scalar chain (IEEE fma per lane,
/// lanes independent).
///
/// The accumulators are NAMED variables guarded by `if constexpr`, not an
/// array: an addressable `acc[6][2]` makes GCC maintain a stack copy and
/// emit 12 redundant vmovaps per k step, halving throughput (one store
/// port vs two FMA ports). Named ymm values stay register-resident: at
/// MR = 6 that is 12 accumulators + two B vectors + one A broadcast = 15
/// of the 16 ymm registers.
template <int MR, bool kInPlaceA>
void MicroKernelTile(const float* pa, int64_t lda, const float* pb, float* c,
                     int64_t ldc, int64_t kc) {
  static_assert(MR >= 1 && MR <= kMr);
  const int64_t a_row = kInPlaceA ? lda : 1;
  constexpr int64_t kAStep = kInPlaceA ? 1 : kMr;
  __m256 c00, c01, c10, c11, c20, c21, c30, c31, c40, c41, c50, c51;
  c00 = _mm256_loadu_ps(c + 0 * ldc);
  c01 = _mm256_loadu_ps(c + 0 * ldc + 8);
  if constexpr (MR > 1) {
    c10 = _mm256_loadu_ps(c + 1 * ldc);
    c11 = _mm256_loadu_ps(c + 1 * ldc + 8);
  }
  if constexpr (MR > 2) {
    c20 = _mm256_loadu_ps(c + 2 * ldc);
    c21 = _mm256_loadu_ps(c + 2 * ldc + 8);
  }
  if constexpr (MR > 3) {
    c30 = _mm256_loadu_ps(c + 3 * ldc);
    c31 = _mm256_loadu_ps(c + 3 * ldc + 8);
  }
  if constexpr (MR > 4) {
    c40 = _mm256_loadu_ps(c + 4 * ldc);
    c41 = _mm256_loadu_ps(c + 4 * ldc + 8);
  }
  if constexpr (MR > 5) {
    c50 = _mm256_loadu_ps(c + 5 * ldc);
    c51 = _mm256_loadu_ps(c + 5 * ldc + 8);
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(pb);
    const __m256 b1 = _mm256_loadu_ps(pb + 8);
    pb += kNr;
    __m256 av;
    av = _mm256_broadcast_ss(pa);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    if constexpr (MR > 1) {
      av = _mm256_broadcast_ss(pa + 1 * a_row);
      c10 = _mm256_fmadd_ps(av, b0, c10);
      c11 = _mm256_fmadd_ps(av, b1, c11);
    }
    if constexpr (MR > 2) {
      av = _mm256_broadcast_ss(pa + 2 * a_row);
      c20 = _mm256_fmadd_ps(av, b0, c20);
      c21 = _mm256_fmadd_ps(av, b1, c21);
    }
    if constexpr (MR > 3) {
      av = _mm256_broadcast_ss(pa + 3 * a_row);
      c30 = _mm256_fmadd_ps(av, b0, c30);
      c31 = _mm256_fmadd_ps(av, b1, c31);
    }
    if constexpr (MR > 4) {
      av = _mm256_broadcast_ss(pa + 4 * a_row);
      c40 = _mm256_fmadd_ps(av, b0, c40);
      c41 = _mm256_fmadd_ps(av, b1, c41);
    }
    if constexpr (MR > 5) {
      av = _mm256_broadcast_ss(pa + 5 * a_row);
      c50 = _mm256_fmadd_ps(av, b0, c50);
      c51 = _mm256_fmadd_ps(av, b1, c51);
    }
    pa += kAStep;
  }
  _mm256_storeu_ps(c + 0 * ldc, c00);
  _mm256_storeu_ps(c + 0 * ldc + 8, c01);
  if constexpr (MR > 1) {
    _mm256_storeu_ps(c + 1 * ldc, c10);
    _mm256_storeu_ps(c + 1 * ldc + 8, c11);
  }
  if constexpr (MR > 2) {
    _mm256_storeu_ps(c + 2 * ldc, c20);
    _mm256_storeu_ps(c + 2 * ldc + 8, c21);
  }
  if constexpr (MR > 3) {
    _mm256_storeu_ps(c + 3 * ldc, c30);
    _mm256_storeu_ps(c + 3 * ldc + 8, c31);
  }
  if constexpr (MR > 4) {
    _mm256_storeu_ps(c + 4 * ldc, c40);
    _mm256_storeu_ps(c + 4 * ldc + 8, c41);
  }
  if constexpr (MR > 5) {
    _mm256_storeu_ps(c + 5 * ldc, c50);
    _mm256_storeu_ps(c + 5 * ldc + 8, c51);
  }
}

#else  // scalar fallback (sanitizer lanes build without -mavx2 -mfma)

template <int MR, bool kInPlaceA>
void MicroKernelTile(const float* pa, int64_t lda, const float* pb, float* c,
                     int64_t ldc, int64_t kc) {
  static_assert(MR >= 1 && MR <= kMr);
  const int64_t a_row = kInPlaceA ? lda : 1;
  constexpr int64_t kAStep = kInPlaceA ? 1 : kMr;
  // j-inner layout so the accumulator block stays in registers; std::fma
  // keeps the chain exactly rounded, matching the AVX2 build bit-for-bit.
  float acc[MR][kNr];
  for (int64_t r = 0; r < MR; ++r) {
    for (int64_t j = 0; j < kNr; ++j) acc[r][j] = c[r * ldc + j];
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* brow = pb + kk * kNr;
    for (int64_t r = 0; r < MR; ++r) {
      const float av = pa[kk * kAStep + r * a_row];
      for (int64_t j = 0; j < kNr; ++j) {
        acc[r][j] = std::fma(av, brow[j], acc[r][j]);
      }
    }
  }
  for (int64_t r = 0; r < MR; ++r) {
    for (int64_t j = 0; j < kNr; ++j) c[r * ldc + j] = acc[r][j];
  }
}

#endif  // DAR_GEMM_AVX2

/// Full-width (nr == kNr) tile with a runtime row count: dispatches to the
/// register-blocked kernel so chunk row tails (mr < 6) stay vectorized.
template <bool kInPlaceA>
void MicroKernelFullWidth(const float* pa, int64_t lda, const float* pb,
                          float* c, int64_t ldc, int64_t kc, int64_t mr) {
  switch (mr) {
    case 6: MicroKernelTile<6, kInPlaceA>(pa, lda, pb, c, ldc, kc); break;
    case 5: MicroKernelTile<5, kInPlaceA>(pa, lda, pb, c, ldc, kc); break;
    case 4: MicroKernelTile<4, kInPlaceA>(pa, lda, pb, c, ldc, kc); break;
    case 3: MicroKernelTile<3, kInPlaceA>(pa, lda, pb, c, ldc, kc); break;
    case 2: MicroKernelTile<2, kInPlaceA>(pa, lda, pb, c, ldc, kc); break;
    default: MicroKernelTile<1, kInPlaceA>(pa, lda, pb, c, ldc, kc); break;
  }
}

/// Edge tile (nr < kNr, the last column panel when n % 16 != 0): runs the
/// full-width kernel on a zeroed 16-wide stack copy of the tile and writes
/// its nr real columns back. Packed B is zero past n, so the pad columns
/// never reach C, and each real element resumes its ascending-k fma chain
/// from its stored C value — the same bits as a scalar loop, at vector
/// speed (the GRU's 3H = 72 and H = 24 widths land here).
template <bool kInPlaceA>
void MicroKernelEdge(const float* pa, int64_t lda, const float* pb, float* c,
                     int64_t ldc, int64_t kc, int64_t mr, int64_t nr) {
  alignas(32) float tile[kMr * kNr] = {};
  for (int64_t r = 0; r < mr; ++r) {
    std::copy(c + r * ldc, c + r * ldc + nr, tile + r * kNr);
  }
  MicroKernelFullWidth<kInPlaceA>(pa, lda, pb, tile, kNr, kc, mr);
  for (int64_t r = 0; r < mr; ++r) {
    std::copy(tile + r * kNr, tile + r * kNr + nr, c + r * ldc);
  }
}

// ---- Blocked kernel --------------------------------------------------------

/// Per-thread packing buffer for TA's A blocks. Reused across calls;
/// workers are pool threads, so the buffers amortize to one allocation per
/// thread per high-water mark.
thread_local std::vector<float> t_pack_a;

/// C rows [i0, i0+mc) gain one kc-deep k panel of op(A) times the matching
/// panel of packed B. `a` is that panel of op(A): packed micro-panels
/// (row panel ip at a + ip * kc * kMr), or, with kInPlaceA, the row-major
/// rows themselves (row i0 + r at a + r * lda).
template <bool kInPlaceA>
void ComputePanel(const float* a, int64_t lda, const float* pb_panel,
                  float* c, int64_t i0, int64_t mc, int64_t n, int64_t kc) {
  const int64_t num_jp = CeilDiv(n, kNr);
  const int64_t num_ip = CeilDiv(mc, kMr);
  for (int64_t jp = 0; jp < num_jp; ++jp) {
    const int64_t j0 = jp * kNr;
    const int64_t nr = std::min(kNr, n - j0);
    const float* pb = pb_panel + jp * kc * kNr;
    for (int64_t ip = 0; ip < num_ip; ++ip) {
      const int64_t r0 = i0 + ip * kMr;
      const int64_t mr = std::min(kMr, i0 + mc - r0);
      const float* pa = kInPlaceA ? a + ip * kMr * lda : a + ip * kc * kMr;
      float* ctile = c + r0 * n + j0;
      if (nr == kNr) {
        MicroKernelFullWidth<kInPlaceA>(pa, lda, pb, ctile, n, kc, mr);
      } else {
        MicroKernelEdge<kInPlaceA>(pa, lda, pb, ctile, n, kc, mr, nr);
      }
    }
  }
}

/// Computes C rows [i0, i0+mc) from packed B. Runs identically on the
/// calling thread and on pool workers; all writes land in the caller-owned
/// C rows of this chunk only.
void ComputeRowChunk(const OpView& opa, const float* packed_b, float* c,
                     int64_t i0, int64_t mc, int64_t n, int64_t k) {
  const int64_t num_jp = CeilDiv(n, kNr);
  for (int64_t pc = 0; pc < k; pc += kKc) {
    const int64_t kc = std::min(kKc, k - pc);
    const float* pb_panel = packed_b + pc * num_jp * kNr;
    if (opa.col_stride == 1) {  // row-major op(A): NN, TB
      ComputePanel<true>(opa.p + i0 * opa.row_stride + pc, opa.row_stride,
                         pb_panel, c, i0, mc, n, kc);
    } else {  // TA
      PackA(opa, i0, mc, pc, kc, t_pack_a);
      ComputePanel<false>(t_pack_a.data(), 0, pb_panel, c, i0, mc, n, kc);
    }
  }
}

// ---- Kernel thread pool ----------------------------------------------------

struct PoolState {
  std::atomic<int> threads{1};
  std::unique_ptr<serve::ThreadPool> pool;
  std::atomic<serve::ThreadPool*> pool_ptr{nullptr};
};

PoolState& State() {
  static PoolState* state = new PoolState();  // never destroyed: workers
  return *state;  // may outlive main()'s statics (exit-time safety)
}

/// Completion latch for one threaded Gemm call. kLeaf rank: holders never
/// acquire another lock, and pool workers hold nothing when they signal.
struct Latch {
  explicit Latch(int n) : remaining(n) {}
  sync::Mutex mu{sync::Rank::kLeaf, "tensor.gemm_latch"};
  sync::CondVar cv;
  int remaining DAR_GUARDED_BY(mu);

  void Done() {
    sync::MutexLock lock(mu);
    if (--remaining == 0) cv.NotifyAll();
  }
  void Wait() {
    sync::MutexLock lock(mu);
    while (remaining > 0) cv.Wait(mu);
  }
};

/// Computes C (m x n) from op(A) and op(B) packed by PackB: inline row
/// chunks, or fanned out to the kernel pool when the product is large.
void RunPacked(const OpView& opa, const float* packed_b, float* c, int64_t m,
               int64_t n, int64_t k) {
  const int64_t num_chunks = CeilDiv(m, kRowChunk);
  const int threads = State().threads.load(std::memory_order_relaxed);
  serve::ThreadPool* pool = State().pool_ptr.load(std::memory_order_acquire);
  const bool threaded = threads > 1 && pool != nullptr && num_chunks > 1 &&
                        2 * m * n * k >= kThreadFlopThreshold;

  if (!threaded) {
    for (int64_t i0 = 0; i0 < m; i0 += kRowChunk) {
      ComputeRowChunk(opa, packed_b, c, i0, std::min(kRowChunk, m - i0), n, k);
    }
    return;
  }

  // Work-claiming over the FIXED chunk grid: which thread computes a chunk
  // is scheduling-dependent, but every chunk runs the identical code over
  // disjoint C rows, so the output bits are worker-count-invariant.
  auto next = std::make_shared<std::atomic<int64_t>>(0);
  auto drain = [opa, packed_b, c, m, n, k, next]() {
    for (;;) {
      int64_t chunk = next->fetch_add(1, std::memory_order_relaxed);
      int64_t i0 = chunk * kRowChunk;
      if (i0 >= m) return;
      ComputeRowChunk(opa, packed_b, c, i0, std::min(kRowChunk, m - i0), n, k);
    }
  };

  // The pool may hold more workers than the current budget (it only
  // grows); the budget caps how many of them one call enlists.
  const int helpers =
      static_cast<int>(std::min<int64_t>(threads - 1, num_chunks - 1));
  Latch latch(helpers);
  Latch* latch_ptr = &latch;
  for (int h = 0; h < helpers; ++h) {
    pool->Submit([drain, latch_ptr]() {
      drain();
      latch_ptr->Done();
    });
  }
  drain();        // the calling thread takes its share
  latch.Wait();   // helpers read packed_b and write C; block until done
}

void GemmPacked(Trans trans, int64_t m, int64_t n, int64_t k, const float* a,
                const float* b, float* c) {
  // B is packed once on the calling thread and shared read-only; packing
  // order is shape-only, so the bytes are independent of threading.
  thread_local std::vector<float> t_pack_b;
  PackB(ViewOpB(trans, b, n, k), k, n, t_pack_b);
  RunPacked(ViewOpA(trans, a, m, k), t_pack_b.data(), c, m, n, k);
}

// ---- Small-shape kernels ---------------------------------------------------
// Same fma chain as the packed path, minus packing. No zero-skip branch:
// dense activations make the branch a pure pessimization (it was the seed
// kernel's main flaw), and skipping would also break the fma-chain
// equivalence for signed zeros.

void GemmSmallNN(int64_t m, int64_t n, int64_t k, const float* a,
                 const float* b, float* c) {
  // i-k-j: the j loop streams B's row and C's row (independent elements,
  // vectorizes without re-association).
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      const float* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) crow[j] = std::fma(av, brow[j], crow[j]);
    }
  }
}

void GemmSmallTA(int64_t m, int64_t n, int64_t k, const float* a,
                 const float* b, float* c) {
  // kk outermost (ascending): A and B rows stream contiguously.
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* arow = a + kk * m;
    const float* brow = b + kk * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] = std::fma(av, brow[j], crow[j]);
    }
  }
}

/// The orientation's small loop. kTB has none: its row-dot-row loop ran
/// one serial fma chain per element, and the packed kernel is as fast at
/// m = 1 and over 10x faster at m = 32, so TB always packs.
void GemmSmall(Trans trans, int64_t m, int64_t n, int64_t k, const float* a,
               const float* b, float* c) {
  if (trans == Trans::kTA) {
    GemmSmallTA(m, n, k, a, b, c);
  } else {
    GemmSmallNN(m, n, k, a, b, c);
  }
}

}  // namespace

bool UsesPackedPath(Trans trans, int64_t m, int64_t /*n*/, int64_t k) {
  switch (trans) {
    case Trans::kNN: return m >= kNnPackedMinRows;
    case Trans::kTA: return k >= kTaPackedMinDepth;
    case Trans::kTB: return true;
  }
  return true;
}

void SetKernelThreads(int n) {
  if (n < 1) n = 1;
  PoolState& state = State();
  // Grow-only: the pool is replaced only when n - 1 helpers exceed its
  // workers, so alternating budgets (the bench's interleaved thread arms)
  // reuse one set of threads. Quiesced-point contract (gemm.h): no Gemm
  // is in flight, so dropping the old pool (joins its workers) and
  // publishing the new one is safe.
  const int workers = state.pool ? state.pool->num_threads() : 0;
  if (n - 1 > workers) {
    state.pool_ptr.store(nullptr, std::memory_order_release);
    state.pool = std::make_unique<serve::ThreadPool>(n - 1);
    state.pool_ptr.store(state.pool.get(), std::memory_order_release);
  }
  state.threads.store(n, std::memory_order_relaxed);
}

int KernelThreads() { return State().threads.load(std::memory_order_relaxed); }

void GemmOnPath(bool packed, Trans trans, int64_t m, int64_t n, int64_t k,
                const float* a, const float* b, float* c) {
  if (m <= 0 || n <= 0 || k <= 0) return;  // C stays zero (empty sum)
  if (packed || trans == Trans::kTB) {
    GemmPacked(trans, m, n, k, a, b, c);
  } else {
    GemmSmall(trans, m, n, k, a, b, c);
  }
}

void Gemm(Trans trans, int64_t m, int64_t n, int64_t k, const float* a,
          const float* b, float* c) {
  GemmOnPath(UsesPackedPath(trans, m, n, k), trans, m, n, k, a, b, c);
}

PackedB::PackedB(Trans trans, int64_t m, int64_t n, int64_t k, const float* b)
    : trans_(trans), m_(m), n_(n), k_(k), b_(b) {
  if (m > 0 && n > 0 && k > 0 && UsesPackedPath(trans, m, n, k)) {
    PackB(ViewOpB(trans, b, n, k), k, n, packed_);
  }
}

void PackedB::Multiply(const float* a, float* c) const {
  if (m_ <= 0 || n_ <= 0 || k_ <= 0) return;  // C stays zero (empty sum)
  if (packed_.empty()) {
    GemmSmall(trans_, m_, n_, k_, a, b_, c);
  } else {
    RunPacked(ViewOpA(trans_, a, m_, k_), packed_.data(), c, m_, n_, k_);
  }
}

void GemmReference(Trans trans, int64_t m, int64_t n, int64_t k,
                   const float* a, const float* b, float* c) {
  const OpView opa = ViewOpA(trans, a, m, k);
  const OpView opb = ViewOpB(trans, b, n, k);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = c[i * n + j];
      for (int64_t kk = 0; kk < k; ++kk) {
        acc = std::fma(opa.at(i, kk), opb.at(kk, j), acc);
      }
      c[i * n + j] = acc;
    }
  }
}

}  // namespace gemm
}  // namespace dar

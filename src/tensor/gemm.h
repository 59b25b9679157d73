// Blocked, packed, deterministically-threaded single-precision GEMM.
//
// This is the kernel layer underneath MatMul / MatMulTA / MatMulTB
// (tensor_ops.h): one shared cache-tiled implementation backs all three
// transpose variants, so the encoder forward *and* the autograd backward
// (which is nothing but TA/TB products) take the same fast path.
//
// ## Bit-exactness contract
//
// Every path through Gemm() — the small-shape loops, the packed
// single-threaded path, the packed multi-threaded path, the AVX2+FMA
// micro-kernel and its scalar fallback — computes each output element as
// the SAME fused-multiply-add chain:
//
//   c = 0;  for k ascending:  c = fma(opA[i,k], opB[k,j], c)
//
// IEEE-754 fma is exactly rounded, so the result is a pure function of the
// inputs, independent of the path taken:
//
//   * Tiling/packing only reorders which (i, j) is computed when; the
//     per-element k chain is untouched (kc panels are visited ascending
//     and the partial C value stored between panels is exactly the
//     float32 accumulator, so resuming the chain is lossless).
//   * The multi-threaded path partitions M into FIXED blocks of kRowChunk
//     rows (independent of the worker count) and every output row is
//     computed by exactly one task running the identical single-threaded
//     block code — bit-identical for any worker count, which is what the
//     parallel-trainer equivalence and serve-cache differential harnesses
//     rely on (tests/gemm_test.cc enforces it directly).
//   * The AVX2 micro-kernel applies the same fma lanewise; lanes never
//     interact, and GemmReference below is the scalar std::fma witness the
//     tests compare every path against at float-bit granularity.
//   * A column tail (n % 16 != 0) runs the same micro-kernel on a
//     zero-padded 16-wide stack copy of its C tile and copies the real
//     columns back: the pad lanes read packed B's zero padding and are
//     discarded, so no element's chain changes.
//
// The vectorized loops therefore auto-parallelize across j (independent
// elements) but never re-associate across k.
//
// ## Threading
//
// Threading is opt-in via SetKernelThreads(n): large GEMMs fan their row
// blocks out to n-1 workers of an internal serve::ThreadPool (the calling
// thread takes a share too). The pool only grows — it is rebuilt when n-1
// exceeds its size and otherwise kept, so lowering n spawns and joins
// nothing. SetKernelThreads must be called at a quiesced point (no
// concurrent Gemm in flight); TrainConfig::kernel_threads threads the knob
// through Fit(). n <= 1 restores the inline path.
#ifndef DAR_TENSOR_GEMM_H_
#define DAR_TENSOR_GEMM_H_

#include <cstdint>

namespace dar {
namespace gemm {

/// Which operands are transposed. The storage is always row-major;
/// transposition is folded into the packing reads, never materialized.
enum class Trans {
  kNN,  ///< C[m,n] = A[m,k] * B[k,n]
  kTA,  ///< C[m,n] = A[k,m]^T * B[k,n]
  kTB,  ///< C[m,n] = A[m,k] * B[n,k]^T
};

/// C = op(A) * op(B). `c` must point at m*n floats, ZERO-INITIALIZED by the
/// caller (Tensor's constructor does); the kernel accumulates into it.
/// Dispatches between a low-overhead loop for small shapes and the packed
/// blocked kernel (optionally threaded) past UsesPackedPath — every path
/// is bit-identical per the contract above.
void Gemm(Trans trans, int64_t m, int64_t n, int64_t k, const float* a,
          const float* b, float* c);

/// The retained naive witness: scalar std::fma triple loop, ascending k.
/// Slow on purpose; tests certify Gemm against it bit-for-bit, and the
/// bench reports blocked-vs-naive speedups against the seed kernel shape.
void GemmReference(Trans trans, int64_t m, int64_t n, int64_t k,
                   const float* a, const float* b, float* c);

/// True when (m, n, k) routes to the packed blocked kernel; below this the
/// packing latency exceeds the multiply cost and the small-shape loops
/// win. Exposed so tests can sweep both sides of the boundary.
bool UsesPackedPath(int64_t m, int64_t n, int64_t k);

/// Sets the kernel-thread budget (the pool serves every subsequent large
/// Gemm). `n` is the TOTAL number of threads computing a GEMM, including
/// the caller: n <= 1 means fully inline. Grows the pool when needed and
/// never shrinks it. Not safe to call with a Gemm in flight — call at
/// configuration time, as Fit() does.
void SetKernelThreads(int n);

/// Current kernel-thread budget (>= 1).
int KernelThreads();

/// Minimum per-element FLOP count (2*m*n*k) at which the threaded path is
/// considered; also the span-emission threshold used by tensor_ops.cc so
/// sub-microsecond matmuls stop flooding `span.matmul.us`.
inline constexpr int64_t kSpanFlopThreshold = 1'000'000;  // 1 MFLOP

}  // namespace gemm
}  // namespace dar

#endif  // DAR_TENSOR_GEMM_H_

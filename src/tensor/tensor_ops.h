// Raw compute kernels over Tensor.
//
// These are the non-differentiable building blocks; the autograd layer
// composes them into differentiable ops. All functions are shape-checked
// and allocate their outputs (value semantics); the few in-place variants
// are suffixed InPlace and exist for the optimizer and autograd hot paths.
//
// The rows rule: where an op below says it reads a rank >= 2 operand "as
// rows", a tensor [d0, ..., dr-1, n] is the d0·…·dr-1 contiguous rows of n
// floats it already is in memory, and a result keeps the operand's leading
// dims. A [B, T, F] operand therefore runs the same kernel over the same
// bytes as a rank-2 call on [B·T, F], with no reshape copy, and gives the
// same bits. Two operands read as rows together must have equal leading
// dims; the feature dims are checked as for rank 2.
#ifndef DAR_TENSOR_TENSOR_OPS_H_
#define DAR_TENSOR_TENSOR_OPS_H_

#include <functional>

#include "tensor/tensor.h"

namespace dar {

// ---- Elementwise binary (equal shapes) -------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

/// a += b (equal shapes). Used by gradient accumulation and optimizers.
void AddInPlace(Tensor& a, const Tensor& b);

/// a += scale * b (equal shapes).
void AxpyInPlace(Tensor& a, const Tensor& b, float scale);

/// a *= s.
void ScaleInPlace(Tensor& a, float s);

// ---- Elementwise with scalar ------------------------------------------------

Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

// ---- Elementwise unary -------------------------------------------------------

/// Applies `fn` elementwise.
Tensor Map(const Tensor& a, const std::function<float(float)>& fn);

Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
/// Natural log of max(a, eps): keeps log finite for near-zero probabilities.
Tensor Log(const Tensor& a, float eps = 1e-12f);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Abs(const Tensor& a);

// ---- Matrix multiplication ---------------------------------------------------
//
// All three variants are thin wrappers over the blocked, packed,
// deterministically-threaded kernel layer in tensor/gemm.h: large shapes
// take the cache-tiled FMA micro-kernel (optionally fanned out over the
// kernel thread pool, bit-identical for any worker count), tiny shapes a
// low-overhead loop — every path computes the identical per-element fma
// chain. Ops >= 1 MFLOP emit the kDetailed "matmul" span; every op adds
// its 2*m*n*k to the matmul_flops_total counter.

/// C = A * B for A [..., k] read as rows and 2-D B [k, n] -> [..., n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// C = A^T * B for A [..., m] and B [..., n], both read as rows over equal
/// leading dims -> [m, n]. (Backward helper: the weight gradient.)
Tensor MatMulTA(const Tensor& a, const Tensor& b);

/// C = A * B^T for A [..., k] read as rows and 2-D B [n, k] -> [..., n].
/// (Backward helper.)
Tensor MatMulTB(const Tensor& a, const Tensor& b);

/// Adds `flops` to matmul_flops_total, for products run straight on the
/// kernel layer (nn::GruSequence's recurrent products against a
/// gemm::PackedB), so the counter still covers every product.
void CountMatMulFlops(int64_t flops);

// ---- Broadcast helpers ----------------------------------------------------

/// Adds a length-n row vector to every row of `rows` [..., n], in place.
void AddRowBroadcastInPlace(Tensor& rows, const Tensor& row);

/// Sums `rows` [..., n] over its rows into a length-n vector.
Tensor SumRows(const Tensor& rows);

// ---- Reductions ----------------------------------------------------------

float SumAll(const Tensor& a);
float MeanAll(const Tensor& a);
float MaxAll(const Tensor& a);
float MinAll(const Tensor& a);

/// Index of the maximum element in each row of an [m, n] matrix.
std::vector<int64_t> ArgMaxRows(const Tensor& matrix);

// ---- Row-wise softmax ------------------------------------------------------

/// Numerically stable softmax of each row of an [m, n] matrix.
Tensor SoftmaxRows(const Tensor& logits);

/// Numerically stable log-softmax of each row of an [m, n] matrix.
Tensor LogSoftmaxRows(const Tensor& logits);

// ---- Shape utilities --------------------------------------------------------

/// Transposes a 2-D matrix.
Tensor Transpose(const Tensor& a);

/// Concatenates a [..., na] and b [..., nb], read as rows over equal
/// leading dims, along the last dim -> [..., na + nb].
Tensor ConcatCols(const Tensor& a, const Tensor& b);

/// Extracts time-step t of a [batch, time, dim] tensor as [batch, dim].
Tensor SliceTime(const Tensor& x, int64_t t);

/// Writes [batch, dim] into time-step t of [batch, time, dim].
void SetTime(Tensor& x, int64_t t, const Tensor& step);

/// Frobenius norm.
float Norm2(const Tensor& a);

}  // namespace dar

#endif  // DAR_TENSOR_TENSOR_OPS_H_

// Differentiable operations over ag::Variable.
//
// Each function runs the forward kernel (tensor/tensor_ops.h) and records a
// backward closure. Implementations are split by family across the
// autograd/ops_*.cc files. All ops are shape-checked; gradient correctness
// is validated by tests/autograd_gradcheck_test.cc against numerical
// differentiation.
#ifndef DAR_AUTOGRAD_OPS_H_
#define DAR_AUTOGRAD_OPS_H_

#include <cstdint>
#include <vector>

#include "autograd/variable.h"

namespace dar {
namespace ag {

// ---- Arithmetic (ops_arith.cc) ---------------------------------------------

/// Elementwise a + b (equal shapes).
Variable Add(const Variable& a, const Variable& b);
/// Elementwise a - b (equal shapes).
Variable Sub(const Variable& a, const Variable& b);
/// Elementwise a * b (equal shapes).
Variable Mul(const Variable& a, const Variable& b);
/// Elementwise a / b (equal shapes). b must be nonzero.
Variable Div(const Variable& a, const Variable& b);
/// Elementwise -a.
Variable Neg(const Variable& a);
/// Elementwise a + s.
Variable AddScalar(const Variable& a, float s);
/// Elementwise a * s.
Variable MulScalar(const Variable& a, float s);
/// Scales each [*, *, e] fiber of x [B, T, E] by s[b, t]. This is the
/// rationale-masking primitive: Z = M ⊙ X at the embedding level (eq. 1).
Variable ScaleLastDim(const Variable& x, const Variable& s);

// ---- Matrix multiplication (ops_matmul.cc) ----------------------------------

/// [m, k] x [k, n] -> [m, n].
Variable MatMul(const Variable& a, const Variable& b);
/// x·w + b for x [..., k] read as rows (tensor_ops.h), w [k, n] and b [n]
/// -> [..., n], as one node: the bias is added in place on the product, and
/// the backward hands the node's gradient g straight to dx = g·wᵀ,
/// dw = xᵀ·g and db = SumRows(g).
Variable Affine(const Variable& x, const Variable& w, const Variable& b);
/// a [m, k] x b^T for b [n, k] -> [m, n]. Attention-score helper.
Variable MatMulNT(const Variable& a, const Variable& b);

// ---- Activations (ops_activation.cc) ---------------------------------------

Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);
Variable Relu(const Variable& a);
Variable Exp(const Variable& a);
/// log(max(a, eps)); gradient is 1/max(a, eps).
Variable Log(const Variable& a, float eps = 1e-12f);
/// |a|; gradient is sign(a) (0 at 0).
Variable Abs(const Variable& a);
Variable Sqrt(const Variable& a);
/// Forward: round(a) to {0,1}; backward: identity (straight-through
/// estimator). Used to binarize Gumbel-softmax selection probabilities.
Variable StraightThroughRound(const Variable& a);
/// Forward: identity; backward: gradient scaled by -lambda. The adversarial
/// plumbing of the 3PLAYER and CAR baselines (the generator *maximizes*
/// what a downstream player minimizes).
Variable GradientReversal(const Variable& a, float lambda = 1.0f);

// ---- Reductions (ops_reduce.cc) ---------------------------------------------

/// Sum of all elements -> scalar.
Variable Sum(const Variable& a);
/// Mean of all elements -> scalar.
Variable Mean(const Variable& a);
/// Sums a [B, T, E] tensor over time -> [B, E].
Variable SumTime(const Variable& x);
/// Sums an [m, n] matrix over columns -> [m].
Variable RowSum(const Variable& x);

// ---- Shape (ops_shape.cc) -----------------------------------------------------

/// Same data, new shape (element counts must match).
Variable Reshape(const Variable& a, Shape shape);
/// Concatenates [..., na] and [..., nb] (equal leading dims, read as rows)
/// into [..., na + nb].
Variable ConcatCols(const Variable& a, const Variable& b);
/// Columns [start, start + len) of an [m, n] matrix.
Variable SliceCols(const Variable& a, int64_t start, int64_t len);
/// out[b, t] = x[b, t + 1] - x[b, t] for x [B, T] -> [B, T-1]. Coherence
/// term of the rationale regularizer (eq. 3).
Variable TimeDiff(const Variable& x);
/// Rows [start, start + len) of an [m, n] matrix -> [len, n].
Variable SliceRows(const Variable& a, int64_t start, int64_t len);
/// Vertically concatenates matrices with equal column counts.
Variable ConcatRows(const std::vector<Variable>& parts);

// ---- Softmax (ops_softmax.cc) -----------------------------------------------

/// Row-wise softmax of an [m, n] matrix.
Variable SoftmaxRowsOp(const Variable& logits);
/// Row-wise log-softmax of an [m, n] matrix.
Variable LogSoftmaxRowsOp(const Variable& logits);
/// out[i] = x[i, index[i]] for x [m, n] -> [m]. With LogSoftmaxRowsOp this
/// forms the cross-entropy loss.
Variable PickColumns(const Variable& x, const std::vector<int64_t>& index);

// ---- Embedding (ops_embedding.cc) --------------------------------------------

/// Gathers rows of `table` [V, E] by token ids [B][T] -> [B, T, E].
/// Backward scatter-adds into the table (dense row accumulation).
Variable EmbeddingLookup(const Variable& table,
                         const std::vector<std::vector<int64_t>>& ids);

}  // namespace ag
}  // namespace dar

#endif  // DAR_AUTOGRAD_OPS_H_

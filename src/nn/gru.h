// Gated recurrent units (Cho et al., 2014), unidirectional and
// bidirectional, with length masking for padded batches.
//
// The paper's main experiments use 200-d bidirectional GRUs for both the
// generator and the predictor; this implementation is dimension-agnostic.
#ifndef DAR_NN_GRU_H_
#define DAR_NN_GRU_H_

#include "autograd/ops.h"
#include "nn/module.h"
#include "tensor/random.h"

namespace dar {
namespace nn {

/// One GRU direction as ONE autograd node: the recurrence over a
/// precomputed input projection `proj` [B, T, 3H] with recurrent weights
/// `w_h` [H, 3H]. `valid` is the 0/1 [B, T] length mask (nullptr = all
/// valid); `reverse` runs t = T-1 down to 0. Returns the hidden states
/// [B, T, H] in original time order.
///
/// Each step runs one product h · w_h, against w_h packed once for the
/// sequence (gemm::PackedB), and the fused cell (gates, candidate, state
/// blend, padding freeze) over all B rows. No step allocates: the
/// products write into buffers allocated once per call, and every product
/// is counted in matmul_flops_total. When a parent requires grad the node
/// keeps the gates, the candidate third of each step's hidden projection
/// (time-major, [T, B, H]) and the mask, and its backward runs BPTT from
/// the last step to the first, against w_h^T packed once. Gradient-order
/// contract — the per-step recurrence's summation order, which trained
/// parameters depend on bit for bit (tests/nn_gru_test.cc holds the op to
/// a per-step reference):
///   * step s's state gradient is
///     ((0 + d out[s]) + cell term of step s+1) + dq[s+1] · w_h^T;
///   * w_h's gradient adds h[s-1]^T · dq[s] for s = T-1 .. 0, the first
///     through AccumulateGrad (one visit) and the rest in place;
///   * proj's gradient is assembled step by step and accumulated once.
ag::Variable GruSequence(const ag::Variable& proj, const ag::Variable& w_h,
                         const Tensor* valid, bool reverse);

/// One direction's parameters: input weights w_x [E, 3H], recurrent
/// weights w_h [H, 3H] and bias b [3H].
struct GruWeights {
  ag::Variable w_x;
  ag::Variable w_h;
  ag::Variable b;
};

/// B·T from which BiGru::Forward pairs its directions: the reverse one
/// runs on the helper thread while the caller runs the forward one. Set
/// from bench/train_scaling.cc's `bigru` rows with the helper parked.
inline constexpr int64_t kBiGruPairedRows = 608;

/// How long the helper spins (yielding every 64 polls) for its next
/// direction before it parks on a condition variable: longer than the
/// gaps between a training step's layers, so a training run keeps it
/// awake on its own CPU. The same rows' process CPU time prices it: a
/// parked pairing costs about this much CPU more than running in turn
/// (DESIGN.md §14).
inline constexpr int64_t kBiGruSpinUs = 5000;

/// A BiGRU layer as ONE autograd node, `bigru`: both directions'
/// projections x · w_x + b and recurrences, written straight into one
/// [B, T, 2H] output (forward states in columns [0, H), reverse in
/// [H, 2H)). `valid` is the 0/1 [B, T] length mask (nullptr = all valid).
///
/// With `paired`, the reverse direction (projection GEMM, recurrence, and
/// in the backward BPTT and the projection's gradients) runs on one
/// process-wide helper thread while the caller runs the forward one, if
/// no other caller holds the helper; otherwise, and without `paired`, the
/// caller runs both in turn. Every buffer the node keeps, returns or hands
/// to a parent is allocated on the calling thread; the helper only
/// computes. The bits do not depend on the schedule, and equal the
/// three-node tape the layer used to record (two `affine` + `gru_sequence`
/// pairs and a `concat_cols`), gradient-order contract included:
///   * each direction's BPTT runs as GruSequence's, and its projection
///     gradient first gets the `0 + dproj` pass the moved accumulation
///     applied;
///   * x receives the reverse direction's dx first, then the forward
///     one's, the order the old tape ran its two `affine` closures in;
///   * x is listed twice among the node's parents, so GraphAudit's fan-in
///     stays 2 for its two accumulations.
ag::Variable BiGruSequence(const ag::Variable& x, const GruWeights& forward,
                           const GruWeights& reverse, const Tensor* valid,
                           bool paired);

/// Single-direction GRU over a padded batch.
///
/// Gate layout inside the fused [*, 3H] projections: [update z | reset r |
/// candidate n]. State update: h' = (1 - z) ⊙ n + z ⊙ h, gated by the
/// validity mask so hidden states freeze past each sequence's end.
class Gru : public Module {
 public:
  /// If `reverse` is true the recurrence runs from t = T-1 down to 0
  /// (the backward half of a BiGRU).
  Gru(int64_t input_dim, int64_t hidden_dim, Pcg32& rng, bool reverse = false);

  /// x: [B, T, input_dim]; valid: 0/1 mask [B, T] (nullptr = all valid).
  /// Returns hidden states [B, T, hidden_dim], indexed in original time
  /// order regardless of direction.
  ag::Variable Forward(const ag::Variable& x, const Tensor* valid = nullptr) const;

  int64_t input_dim() const { return input_dim_; }
  int64_t hidden_dim() const { return hidden_dim_; }
  bool reverse() const { return reverse_; }
  GruWeights weights() const { return {w_x_, w_h_, b_}; }

 private:
  int64_t input_dim_;
  int64_t hidden_dim_;
  bool reverse_;
  ag::Variable w_x_;  // [input_dim, 3H]
  ag::Variable w_h_;  // [hidden_dim, 3H]
  ag::Variable b_;    // [3H]
};

/// Bidirectional GRU: a forward and a reverse Gru's states side by side.
class BiGru : public Module {
 public:
  BiGru(int64_t input_dim, int64_t hidden_dim, Pcg32& rng);

  /// x: [B, T, input_dim] -> [B, T, 2 * hidden_dim], as one BiGruSequence
  /// node, paired from B·T = kBiGruPairedRows on. Each forward adds one to
  /// the global registry's `nn_bigru_forwards_total{threads="1"|"2"}`,
  /// by the number of threads that ran it.
  ag::Variable Forward(const ag::Variable& x, const Tensor* valid = nullptr) const;

  int64_t output_dim() const { return 2 * forward_.hidden_dim(); }

 private:
  Gru forward_;
  Gru backward_;
};

}  // namespace nn
}  // namespace dar

#endif  // DAR_NN_GRU_H_

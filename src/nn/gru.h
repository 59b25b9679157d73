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

 private:
  int64_t input_dim_;
  int64_t hidden_dim_;
  bool reverse_;
  ag::Variable w_x_;  // [input_dim, 3H]
  ag::Variable w_h_;  // [hidden_dim, 3H]
  ag::Variable b_;    // [3H]
};

/// Bidirectional GRU: concatenation of a forward and a reverse Gru.
class BiGru : public Module {
 public:
  BiGru(int64_t input_dim, int64_t hidden_dim, Pcg32& rng);

  /// x: [B, T, input_dim] -> [B, T, 2 * hidden_dim].
  ag::Variable Forward(const ag::Variable& x, const Tensor* valid = nullptr) const;

  int64_t output_dim() const { return 2 * forward_.hidden_dim(); }

 private:
  Gru forward_;
  Gru backward_;
};

}  // namespace nn
}  // namespace dar

#endif  // DAR_NN_GRU_H_

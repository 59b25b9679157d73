// Tape-based reverse-mode automatic differentiation.
//
// A Variable is a shared handle to a node in a dynamically built computation
// graph. Operations on Variables (declared in autograd/ops.h) record a
// backward closure; Variable::Backward() runs the closures in reverse
// topological order and accumulates gradients into every reachable node
// that requires them.
//
// Graphs are built per forward pass and released when the last Variable
// handle goes out of scope, mirroring the define-by-run style of the
// training loops in the paper's reference implementation.
//
// Thread compatibility (the data-parallel training contract): the engine
// keeps NO global or thread-local state — every tape is exactly the Node
// graph reachable from the Variables a thread created, and Backward() walks
// only that graph. Concurrent forward/backward passes are therefore safe
// whenever the graphs are disjoint, i.e. the threads share no Variable
// handles. The per-thread replicas of core::DataParallelTrainer satisfy
// this by construction: each replica owns its parameters, so its tape never
// reaches another thread's nodes. What is NOT safe is two threads running
// Backward() into the *same* leaf concurrently (AccumulateGrad is not
// atomic) — reductions across threads must serialize, as the trainer's
// gradient reduce does.
//
// This contract is mechanically enforced when the numerical sentinel
// (check/sentinel.h) is enabled: Backward() claims every node it visits
// with a per-thread ownership token and a claim that finds a foreign owner
// reports a tape violation, as does a racing Variable::AccumulateGrad.
#ifndef DAR_AUTOGRAD_VARIABLE_H_
#define DAR_AUTOGRAD_VARIABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace dar {
namespace ag {

/// Internal graph node. Users interact through Variable; this struct is
/// public only so that op implementations (ops_*.cc) can build nodes.
struct Node {
  /// Forward value.
  Tensor value;

  /// Accumulated gradient w.r.t. `value`; empty until first accumulation.
  Tensor grad;

  /// Whether gradients should flow to (and through) this node.
  bool requires_grad = false;

  /// Static name of the op that produced this node ("leaf" for leaves).
  /// Drives sentinel attribution (check/sentinel.h) and GraphAudit's
  /// per-op gradient-norm breakdown. Must point at a string literal.
  const char* op = "leaf";

  /// AccumulateGrad calls into this node since construction (leaves: since
  /// the last ZeroGrad). GraphAudit compares the count against the graph's
  /// fan-in to detect a second Backward() without an intervening ZeroGrad.
  int32_t grad_visits = 0;

  /// Sentinel tape-ownership mark (0 = unclaimed). Only touched when the
  /// sentinel is enabled; enforces the thread-safety contract above.
  std::atomic<uint32_t> tape_owner{0};

  /// Parent nodes (inputs of the op that produced this node).
  std::vector<std::shared_ptr<Node>> parents;

  /// Propagates `grad` of this node into the parents' grads. Null for leaves.
  std::function<void(Node&)> backward;

  /// Accumulates `g` into this node's gradient (allocates on first use).
  void AccumulateGrad(const Tensor& g);

  /// The gradient buffer for a caller that adds into it in place: zeroed
  /// on first use, one visit counted, so AddInPlace(AccumulationBuffer(),
  /// g) is AccumulateGrad(g). nn::BiGruSequence takes it on the thread
  /// that runs the backward and lets its helper thread add W_h's steps.
  Tensor& AccumulationBuffer();

  /// As above, but a node with no gradient yet takes over `g`'s buffer and
  /// adds it to zero in place (v = 0 + v, so a -0 still becomes +0): the
  /// same bits as the copying path without its allocation. Backward
  /// closures hand their temporaries over through this.
  void AccumulateGrad(Tensor&& g);
};

/// A differentiable value: shared handle to a graph Node.
///
/// Copying a Variable copies the handle (both refer to the same node), which
/// is what training code wants: parameters are Variables held by modules and
/// by the optimizer simultaneously.
class Variable {
 public:
  /// Null handle; most APIs DAR_CHECK against using one.
  Variable() = default;

  /// Leaf node wrapping `value`.
  explicit Variable(Tensor value, bool requires_grad = false);

  /// Leaf parameter (requires_grad = true).
  static Variable Param(Tensor value);

  /// Non-differentiable constant leaf.
  static Variable Constant(Tensor value);

  /// True if this handle points at a node.
  bool defined() const { return node_ != nullptr; }

  /// Forward value (read).
  const Tensor& value() const;

  /// Forward value (mutable; used by optimizers to update parameters
  /// in place between steps — never mutate mid-graph).
  Tensor& mutable_value();

  /// Accumulated gradient. DAR_CHECKs that a gradient exists.
  const Tensor& grad() const;

  /// True once a gradient has been accumulated into this node.
  bool has_grad() const;

  /// Clears the gradient buffer (kept allocated) ahead of the next backward.
  void ZeroGrad();

  /// Accumulates `g` (same shape as the value) into this node's gradient,
  /// exactly as backpropagation would. Data-parallel training reduces
  /// per-replica gradients into the master parameters through this.
  void AccumulateGrad(const Tensor& g);

  bool requires_grad() const;

  /// Enables/disables gradient flow into this leaf. Only meaningful for
  /// leaves (parameters); used to freeze pretrained modules.
  void set_requires_grad(bool requires_grad);

  Shape shape() const { return value().shape(); }
  int64_t numel() const { return value().numel(); }

  /// Runs backpropagation from this node. If `seed` is omitted the node
  /// must be scalar and is seeded with 1.0. Gradients accumulate — call
  /// ZeroGrad on parameters (or Adam::ZeroGrad) between steps.
  void Backward() const;
  void Backward(const Tensor& seed) const;

  /// Cuts the graph: returns a constant leaf with the same value. Used to
  /// stop gradients (e.g., the frozen discriminator inputs in DAR do not
  /// backprop into the predictor through auxiliary losses).
  Variable Detach() const;

  /// Op-construction helper: wraps an existing node.
  explicit Variable(std::shared_ptr<Node> node) : node_(std::move(node)) {}

  /// Op-construction helper: underlying node.
  const std::shared_ptr<Node>& node() const { return node_; }

 private:
  std::shared_ptr<Node> node_;
};

/// Builds a result node from an op: `op` is the op's static name (string
/// literal; recorded on the node for sentinel attribution and GraphAudit),
/// `value` is the forward result, `parents` the differentiable inputs, and
/// `backward` the closure that pushes this node's gradient into the
/// parents. The result requires grad iff any parent does; otherwise the
/// closure is dropped and the graph is not retained (inference stays
/// allocation-light). When the numerical sentinel is enabled the forward
/// value is scanned for NaN/Inf here, regardless of grad retention.
Variable MakeOpResult(const char* op, Tensor value,
                      std::vector<std::shared_ptr<Node>> parents,
                      std::function<void(Node&)> backward);

}  // namespace ag
}  // namespace dar

#endif  // DAR_AUTOGRAD_VARIABLE_H_

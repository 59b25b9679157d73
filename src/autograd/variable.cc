#include "autograd/variable.h"

#include <unordered_set>
#include <utility>

#include "check/sentinel.h"
#include "tensor/check.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace ag {

namespace {

/// Claims `n` for the calling thread's tape token. Returns true when this
/// call took the claim (and must release it); a foreign owner is reported
/// as a tape violation. Only called with the sentinel enabled.
bool ClaimTapeNode(Node* n, uint32_t token, const char* what) {
  uint32_t expected = 0;
  if (n->tape_owner.compare_exchange_strong(expected, token,
                                            std::memory_order_acq_rel)) {
    return true;
  }
  if (expected != token) check::ReportTapeViolation(what);
  return false;
}

}  // namespace

void Node::AccumulateGrad(const Tensor& g) {
  DAR_CHECK_MSG(g.shape() == value.shape(), "gradient shape mismatch");
  AddInPlace(AccumulationBuffer(), g);
}

Tensor& Node::AccumulationBuffer() {
  if (grad.numel() != value.numel() || grad.shape() != value.shape()) {
    grad = Tensor(value.shape());
  }
  ++grad_visits;
  return grad;
}

void Node::AccumulateGrad(Tensor&& g) {
  if (grad.numel() == value.numel() && grad.shape() == value.shape()) {
    AccumulateGrad(static_cast<const Tensor&>(g));
    return;
  }
  DAR_CHECK_MSG(g.shape() == value.shape(), "gradient shape mismatch");
  ++grad_visits;
  grad = std::move(g);
  // The copying path's zero buffer plus g, element for element.
  float* pg = grad.data();
  for (int64_t i = 0; i < grad.numel(); ++i) pg[i] = 0.0f + pg[i];
}

Variable::Variable(Tensor value, bool requires_grad)
    : node_(std::make_shared<Node>()) {
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

Variable Variable::Param(Tensor value) { return Variable(std::move(value), true); }

Variable Variable::Constant(Tensor value) {
  return Variable(std::move(value), false);
}

const Tensor& Variable::value() const {
  DAR_CHECK_MSG(defined(), "use of null Variable");
  return node_->value;
}

Tensor& Variable::mutable_value() {
  DAR_CHECK_MSG(defined(), "use of null Variable");
  return node_->value;
}

const Tensor& Variable::grad() const {
  DAR_CHECK_MSG(defined(), "use of null Variable");
  DAR_CHECK_MSG(node_->grad.numel() == node_->value.numel(),
                "grad accessed before backward");
  return node_->grad;
}

bool Variable::has_grad() const {
  return defined() && node_->grad.numel() == node_->value.numel() &&
         node_->grad.numel() > 0;
}

void Variable::ZeroGrad() {
  DAR_CHECK(defined());
  if (node_->grad.numel() == node_->value.numel()) {
    node_->grad.Zero();
  } else {
    node_->grad = Tensor(node_->value.shape());
  }
  node_->grad_visits = 0;
}

void Variable::AccumulateGrad(const Tensor& g) {
  DAR_CHECK(defined());
  if (check::SentinelEnabled()) {
    // The cross-thread reduce primitive: assert that no other thread is
    // concurrently accumulating into (or backpropagating through) this
    // leaf, per the tape contract.
    const uint32_t token = check::TapeOwnerToken();
    const bool claimed =
        ClaimTapeNode(node_.get(), token, "Variable::AccumulateGrad");
    node_->AccumulateGrad(g);
    if (claimed) {
      node_->tape_owner.store(0, std::memory_order_release);
    }
    return;
  }
  node_->AccumulateGrad(g);
}

bool Variable::requires_grad() const { return defined() && node_->requires_grad; }

void Variable::set_requires_grad(bool requires_grad) {
  DAR_CHECK(defined());
  node_->requires_grad = requires_grad;
}

namespace {

/// Iterative post-order DFS producing parents-before-children order; the
/// returned list is consumed back-to-front by Backward. The model zoo's
/// tapes are shallow (each BiGRU layer is one nn::BiGruSequence node), but
/// a caller looping ops over time steps builds a tape as deep as the loop,
/// which recursion could overflow — so the walk stays iterative.
void TopoSort(const std::shared_ptr<Node>& root,
              std::vector<Node*>& order) {
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  if (!root->requires_grad) return;
  stack.push_back({root.get(), 0});
  visited.insert(root.get());
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      Node* parent = f.node->parents[f.next_parent++].get();
      if (parent->requires_grad && !visited.count(parent)) {
        visited.insert(parent);
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Variable::Backward() const {
  DAR_CHECK(defined());
  DAR_CHECK_MSG(node_->value.numel() == 1,
                "Backward() without seed requires a scalar output");
  Backward(Tensor(node_->value.shape(), 1.0f));
}

void Variable::Backward(const Tensor& seed) const {
  DAR_CHECK(defined());
  DAR_CHECK_MSG(node_->requires_grad,
                "Backward on a node that does not require grad");
  node_->AccumulateGrad(seed);
  std::vector<Node*> order;
  TopoSort(node_, order);
  if (!check::SentinelEnabled()) {
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      Node* n = *it;
      if (n->backward && n->grad.numel() == n->value.numel()) {
        n->backward(*n);
      }
    }
    return;
  }
  // Sentinel path: claim the whole tape before running any closure (a
  // foreign claim means two threads share graph nodes — the contract
  // violation), and scan every gradient flowing through for NaN/Inf.
  const uint32_t token = check::TapeOwnerToken();
  std::vector<Node*> claimed;
  claimed.reserve(order.size());
  for (Node* n : order) {
    if (ClaimTapeNode(n, token, "Variable::Backward")) claimed.push_back(n);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* n = *it;
    if (n->backward && n->grad.numel() == n->value.numel()) {
      check::ScanForNonFinite(n->op, "grad", n->grad.data(), n->grad.numel());
      n->backward(*n);
    }
  }
  for (Node* n : claimed) {
    n->tape_owner.store(0, std::memory_order_release);
  }
}

Variable Variable::Detach() const {
  DAR_CHECK(defined());
  return Variable::Constant(node_->value);
}

Variable MakeOpResult(const char* op, Tensor value,
                      std::vector<std::shared_ptr<Node>> parents,
                      std::function<void(Node&)> backward) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->op = op;
  if (check::SentinelEnabled()) {
    check::ScanForNonFinite(op, "value", node->value.data(),
                            node->value.numel());
  }
  bool any = false;
  for (const auto& p : parents) {
    DAR_CHECK(p != nullptr);
    if (p->requires_grad) any = true;
  }
  node->requires_grad = any;
  if (any) {
    node->parents = std::move(parents);
    node->backward = std::move(backward);
  }
  return Variable(std::move(node));
}

}  // namespace ag
}  // namespace dar

#include <cmath>
#include <utility>

#include "autograd/ops.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace ag {

namespace {

/// Helper for unary ops whose gradient is a function of the *output* value
/// (sigmoid, tanh, exp, sqrt) or of the *input* value (relu, abs, log).
template <typename GradFn>
Variable UnaryFromOutput(const char* op, const Variable& a, Tensor out,
                         GradFn grad_of_output) {
  auto pa = a.node();
  auto pout = std::make_shared<Tensor>(out);
  return MakeOpResult(op, std::move(out), {pa},
                      [pa, pout, grad_of_output](Node& n) {
                        Tensor g(n.grad.shape());
                        const float* pg = n.grad.data();
                        const float* po = pout->data();
                        float* pgo = g.data();
                        for (int64_t i = 0; i < n.grad.numel(); ++i) {
                          pgo[i] = pg[i] * grad_of_output(po[i]);
                        }
                        pa->AccumulateGrad(std::move(g));
                      });
}

template <typename GradFn>
Variable UnaryFromInput(const char* op, const Variable& a, Tensor out,
                        GradFn grad_of_input) {
  auto pa = a.node();
  return MakeOpResult(op, std::move(out), {pa}, [pa, grad_of_input](Node& n) {
    Tensor g(n.grad.shape());
    const float* pg = n.grad.data();
    const float* pi = pa->value.data();
    float* pgo = g.data();
    for (int64_t i = 0; i < n.grad.numel(); ++i) {
      pgo[i] = pg[i] * grad_of_input(pi[i]);
    }
    pa->AccumulateGrad(std::move(g));
  });
}

}  // namespace

Variable Sigmoid(const Variable& a) {
  return UnaryFromOutput("sigmoid", a, dar::Sigmoid(a.value()),
                         [](float y) { return y * (1.0f - y); });
}

Variable Tanh(const Variable& a) {
  return UnaryFromOutput("tanh", a, dar::Tanh(a.value()),
                         [](float y) { return 1.0f - y * y; });
}

Variable Relu(const Variable& a) {
  return UnaryFromInput("relu", a, dar::Relu(a.value()),
                        [](float x) { return x > 0.0f ? 1.0f : 0.0f; });
}

Variable Exp(const Variable& a) {
  return UnaryFromOutput("exp", a, dar::Exp(a.value()), [](float y) { return y; });
}

Variable Log(const Variable& a, float eps) {
  return UnaryFromInput("log", a, dar::Log(a.value(), eps), [eps](float x) {
    return 1.0f / (x > eps ? x : eps);
  });
}

Variable Abs(const Variable& a) {
  return UnaryFromInput("abs", a, dar::Abs(a.value()), [](float x) {
    return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f);
  });
}

Variable Sqrt(const Variable& a) {
  return UnaryFromOutput("sqrt", a, dar::Sqrt(a.value()), [](float y) {
    return y > 1e-12f ? 0.5f / y : 0.0f;
  });
}

Variable StraightThroughRound(const Variable& a) {
  Tensor out = dar::Map(a.value(), [](float x) { return x > 0.5f ? 1.0f : 0.0f; });
  auto pa = a.node();
  // Straight-through estimator: the rounding is treated as identity in the
  // backward pass (Jang et al. 2017; used by RNP-style generators to emit
  // hard binary masks while keeping the game differentiable).
  return MakeOpResult("straight_through_round", std::move(out), {pa},
                      [pa](Node& n) { pa->AccumulateGrad(n.grad); });
}

Variable GradientReversal(const Variable& a, float lambda) {
  Tensor out = a.value();
  auto pa = a.node();
  return MakeOpResult("gradient_reversal", std::move(out), {pa}, [pa, lambda](Node& n) {
    pa->AccumulateGrad(dar::MulScalar(n.grad, -lambda));
  });
}

}  // namespace ag
}  // namespace dar

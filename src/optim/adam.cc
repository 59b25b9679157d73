#include "optim/adam.h"

#include <cmath>

#include "tensor/check.h"

namespace dar {
namespace optim {

namespace {

constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEps = 1e-8f;

}  // namespace

Adam::Adam(std::vector<ag::Variable> params, AdamConfig config)
    : params_(std::move(params)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const ag::Variable& p : params_) {
    m_.emplace_back(p.value().shape());
    v_.emplace_back(p.value().shape());
  }
}

void Adam::Step() {
  ++t_;
  float bc1 = 1.0f - std::pow(kBeta1, static_cast<float>(t_));
  float bc2 = 1.0f - std::pow(kBeta2, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    ag::Variable& p = params_[i];
    if (!p.requires_grad()) continue;
    DAR_CHECK_MSG(p.has_grad(),
                  "Adam::Step: a requires-grad parameter has no accumulated "
                  "gradient (broken graph or dropped data-parallel shard)");
    const float* g = p.grad().data();
    float* w = p.mutable_value().data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    int64_t n = p.numel();
    for (int64_t j = 0; j < n; ++j) {
      float gj = g[j];
      m[j] = kBeta1 * m[j] + (1.0f - kBeta1) * gj;
      v[j] = kBeta2 * v[j] + (1.0f - kBeta2) * gj * gj;
      float mhat = m[j] / bc1;
      float vhat = v[j] / bc2;
      w[j] -= config_.lr * mhat / (std::sqrt(vhat) + kEps);
    }
  }
}

}  // namespace optim
}  // namespace dar

#include "nn/module.h"

#include <utility>

#include "tensor/check.h"

namespace dar {
namespace nn {

std::vector<NamedParameter> Module::Parameters() const {
  std::vector<NamedParameter> all;
  for (const NamedParameter& p : own_params_) all.push_back(p);
  for (const auto& [name, child] : children_) {
    for (NamedParameter p : child->Parameters()) {
      p.name = name + "/" + p.name;
      all.push_back(std::move(p));
    }
  }
  return all;
}

int64_t Module::NumParameters() const {
  int64_t n = 0;
  for (const NamedParameter& p : Parameters()) n += p.variable.numel();
  return n;
}

void Module::SetTraining(bool training) {
  training_ = training;
  for (auto& [name, child] : children_) child->SetTraining(training);
}

void Module::ZeroGrad() {
  for (NamedParameter& p : Parameters()) p.variable.ZeroGrad();
}

void Module::CopyParametersFrom(const Module& other) {
  std::vector<NamedParameter> mine = Parameters();
  std::vector<NamedParameter> theirs = other.Parameters();
  DAR_CHECK_MSG(mine.size() == theirs.size(),
                "CopyParametersFrom: parameter count mismatch");
  for (size_t i = 0; i < mine.size(); ++i) {
    DAR_CHECK_MSG(mine[i].variable.shape() == theirs[i].variable.shape(),
                  "CopyParametersFrom: parameter shape mismatch");
    mine[i].variable.mutable_value() = theirs[i].variable.value();
  }
}

void Module::CopyStateFrom(const Module& other) {
  std::vector<NamedParameter> mine = Parameters();
  std::vector<NamedParameter> theirs = other.Parameters();
  DAR_CHECK_MSG(mine.size() == theirs.size(),
                "CopyStateFrom: parameter count mismatch");
  for (size_t i = 0; i < mine.size(); ++i) {
    DAR_CHECK_MSG(mine[i].variable.shape() == theirs[i].variable.shape(),
                  "CopyStateFrom: parameter shape mismatch");
    mine[i].variable.mutable_value() = theirs[i].variable.value();
    mine[i].variable.set_requires_grad(theirs[i].variable.requires_grad());
  }
}

void Module::SetRequiresGrad(bool requires_grad) {
  for (NamedParameter& p : Parameters()) {
    p.variable.set_requires_grad(requires_grad);
    // Freezing also clears stale gradients (e.g. from pretraining) so a
    // frozen module can never leak an update through a shared optimizer.
    if (!requires_grad && p.variable.has_grad()) p.variable.ZeroGrad();
  }
}

ag::Variable Module::RegisterParameter(std::string name, Tensor init,
                                       bool requires_grad) {
  ag::Variable v(std::move(init), requires_grad);
  own_params_.push_back({std::move(name), v});
  return v;
}

void Module::RegisterChild(std::string name, Module* child) {
  DAR_CHECK(child != nullptr);
  children_.emplace_back(std::move(name), child);
}

}  // namespace nn
}  // namespace dar

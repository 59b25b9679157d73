// Base class for neural-network modules: a named parameter registry with
// train/eval mode, parameter counting, and state save/load.
#ifndef DAR_NN_MODULE_H_
#define DAR_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"

namespace dar {
namespace nn {

/// A named trainable parameter.
struct NamedParameter {
  std::string name;
  ag::Variable variable;
};

/// Base class for layers and models.
///
/// Subclasses register their parameters (RegisterParameter) and child
/// modules (RegisterChild) in their constructors; Parameters() then walks
/// the tree. Modules are neither copyable nor movable — they are owned by
/// value inside their parents and referenced by the optimizer.
class Module {
 public:
  Module() = default;
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters of this module and its children, depth-first.
  /// Names are slash-qualified ("gru/fw/w_x").
  std::vector<NamedParameter> Parameters() const;

  /// Total number of scalar parameters.
  int64_t NumParameters() const;

  /// Sets train/eval mode recursively (affects dropout and sampling).
  void SetTraining(bool training);

  bool training() const { return training_; }

  /// Zeroes gradients of all parameters.
  void ZeroGrad();

  /// Copies parameter values from `other`; structures must match exactly.
  void CopyParametersFrom(const Module& other);

  /// Replica cloning: copies parameter values AND per-parameter
  /// requires_grad flags from `other` (CopyParametersFrom copies values
  /// only). The data-parallel trainer uses this to mirror the master's
  /// post-Prepare() state — including frozen modules such as DAR's
  /// discriminator — into per-thread replicas.
  void CopyStateFrom(const Module& other);

  /// Freezes (or unfreezes) every parameter: frozen parameters keep their
  /// values but no longer receive gradients. DAR freezes its pretrained
  /// discriminator this way.
  void SetRequiresGrad(bool requires_grad);

 protected:
  /// Registers a parameter; returns the stored Variable handle.
  ag::Variable RegisterParameter(std::string name, Tensor init,
                                 bool requires_grad = true);

  /// Registers a child module (not owned).
  void RegisterChild(std::string name, Module* child);

 private:
  std::vector<NamedParameter> own_params_;
  std::vector<std::pair<std::string, Module*>> children_;
  bool training_ = true;
};

}  // namespace nn
}  // namespace dar

#endif  // DAR_NN_MODULE_H_

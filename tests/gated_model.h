// A gate for the serving tests: an RNP model whose eval-mask stage blocks
// until the test opens the gate. Holding the lone batcher worker
// mid-forward makes "the worker is busy" a fact rather than a timing
// guess, so queue bounds and batch composition can be asserted exactly.
#ifndef DAR_TESTS_GATED_MODEL_H_
#define DAR_TESTS_GATED_MODEL_H_

#include <future>
#include <memory>
#include <mutex>
#include <utility>

#include "core/rnp.h"

namespace dar {

/// Shared by a test and the model it holds. Every forward that reaches
/// the gate waits until Open(); the first one to arrive signals it.
class ForwardGate {
 public:
  /// Blocks until a forward has reached the gate.
  void AwaitEntered() { entered_.wait(); }

  /// Lets every held and later forward through. Idempotent.
  void Open() {
    std::call_once(open_once_, [this] { open_.set_value(); });
  }

  /// The model's side: signals entry once, then waits for Open().
  void Pass() {
    std::call_once(enter_once_, [this] { enter_.set_value(); });
    opened_.wait();
  }

 private:
  std::promise<void> open_;
  std::shared_future<void> opened_ = open_.get_future().share();
  std::once_flag open_once_;
  std::promise<void> enter_;
  std::future<void> entered_ = enter_.get_future();
  std::once_flag enter_once_;
};

/// Opens the gate when it leaves scope. Declared after the batcher (or
/// server) whose worker the gate holds, it runs first when a failed
/// assertion returns early, so shutdown never waits on a held forward.
class OpenOnExit {
 public:
  explicit OpenOnExit(std::shared_ptr<ForwardGate> gate)
      : gate_(std::move(gate)) {}
  ~OpenOnExit() { gate_->Open(); }
  OpenOnExit(const OpenOnExit&) = delete;
  OpenOnExit& operator=(const OpenOnExit&) = delete;

 private:
  std::shared_ptr<ForwardGate> gate_;
};

/// RnpModel with the gate in front of its selection stage; built from the
/// same embeddings and config it computes the same bits as RnpModel.
class GatedRnpModel : public core::RnpModel {
 public:
  GatedRnpModel(Tensor embeddings, core::TrainConfig config,
                std::shared_ptr<ForwardGate> gate)
      : core::RnpModel(std::move(embeddings), config),
        gate_(std::move(gate)) {}

  Tensor EvalMaskFromStatesConst(const data::Batch& batch,
                                 const Tensor& gen_states) const override {
    gate_->Pass();
    return core::RnpModel::EvalMaskFromStatesConst(batch, gen_states);
  }

 private:
  std::shared_ptr<ForwardGate> gate_;
};

/// An RnpModel, gated when `gate` is set.
inline std::unique_ptr<core::RnpModel> MakeRnpModel(
    Tensor embeddings, core::TrainConfig config,
    std::shared_ptr<ForwardGate> gate) {
  if (gate == nullptr) {
    return std::make_unique<core::RnpModel>(std::move(embeddings), config);
  }
  return std::make_unique<GatedRnpModel>(std::move(embeddings), config,
                                         std::move(gate));
}

}  // namespace dar

#endif  // DAR_TESTS_GATED_MODEL_H_

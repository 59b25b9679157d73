// Data-parallel training engine: shard → replica → reduce → step.
//
// DataParallelTrainer supplies the per-batch gradient of the game loop in
// core/game_loop.h, the loop both Fit() overloads run: each minibatch is
// sharded across a serve::ThreadPool, every shard is processed on a full
// architecture replica of the master model (CloneArchitecture +
// MirrorFrom) with its backward pass seeded with shard_size / batch_size,
// and after a barrier the per-replica gradients are reduced into the
// master parameters in shard order before the loop's single optimizer
// step; the master values are then broadcast back to the replicas.
// Because the training losses in this repository are per-example means,
// the reduced gradient equals the sequential full-batch gradient exactly
// in real arithmetic, and up to float summation order in practice
// (bit-exactly for num_shards == 1). tests/parallel_trainer_test.cc is the
// equivalence harness certifying this.
//
// Determinism: Gumbel mask noise is drawn once per minibatch from the
// master RNG (in the order the sequential loop would draw it) and sliced
// per shard, so replicas consume no RNG of their own, and the reduction
// order is the shard order. Together these make a run a pure function of
// (seed, num_shards) — the worker count never changes a single bit. The
// only stochastic forward pass outside this scheme is Transformer dropout,
// which draws from per-replica RNGs: bit-reproducibility claims require
// dropout-free configs (the BiGRU setting, or transformer.dropout == 0).
#ifndef DAR_CORE_PARALLEL_TRAINER_H_
#define DAR_CORE_PARALLEL_TRAINER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/rationalizer.h"
#include "core/trainer.h"
#include "serve/thread_pool.h"

namespace dar {
namespace core {

/// Row index sets of each shard for a batch of `batch_size` rows: shard i
/// takes a contiguous row range, sizes differing by at most one with the
/// remainder on the leading shards. The shard count is clamped to
/// [1, batch_size] so no shard is empty (a dropped — empty — shard would
/// starve parameters of gradients, which the optimizer now rejects).
std::vector<std::vector<int64_t>> ShardRowSets(int64_t batch_size,
                                               int64_t num_shards);

/// FNV-1a hash of every parameter value (bit pattern) of every checkpoint
/// module. Replica-divergence checks compare these across replicas.
uint64_t ParameterChecksum(RationalizerBase& model);

/// The engine behind Fit(model, dataset, ParallelTrainConfig). Exposed so
/// tests and benches can drive single reduce cycles and inspect replicas.
class DataParallelTrainer {
 public:
  /// `master` must outlive the trainer. Replicas are created lazily (on
  /// the first reduce after the master's Prepare() inside Fit(), or on
  /// first use otherwise) so they mirror the master's post-pretraining
  /// state.
  DataParallelTrainer(RationalizerBase& master, ParallelTrainConfig config);

  /// The game loop of the sequential Fit() with ReduceGradientsForBatch as
  /// its per-batch gradient and a broadcast after every optimizer step and
  /// after the best-epoch restore. `observer` is the same passive telemetry
  /// hook as on the sequential Fit(): loss components aggregate across
  /// shards (shard-size weighted), the gradient norm is the reduced master
  /// norm, and the rationale-shift gauge is measured on the master model.
  TrainRun Fit(const datasets::SyntheticDataset& dataset, bool verbose = false,
               obs::TrainObserver* observer = nullptr);

  /// One shard → replica → reduce cycle: zeroes the master gradients, runs
  /// per-shard forward/backward on the replicas (in the master's
  /// train/eval mode), reduces into the master parameters, and returns the
  /// batch training loss (per-example mean). Does NOT step an optimizer.
  /// With `audit` set, shard 0's loss graph is audited against its
  /// replica's trainable parameters (AuditFirstStepOrDie). Callers using
  /// this directly on a method with a Prepare() step (DAR) must run
  /// Prepare() first.
  float ReduceGradientsForBatch(const data::Batch& batch, bool audit = false);

  /// Copies the master parameter values into every replica. Fit() calls
  /// this after each optimizer step and after the best-epoch restore.
  void BroadcastParameters();

  /// Number of replicas (== effective shard count). Creates them if needed.
  int64_t num_replicas();

  /// Parameter checksum of replica `i` / of the master, for divergence
  /// tests.
  uint64_t ReplicaChecksum(int64_t i);
  uint64_t MasterChecksum() { return ParameterChecksum(master_); }

  /// Invoked after every optimizer step + broadcast with the global step
  /// index (1-based). The stress suite asserts replica/master checksum
  /// equality here.
  void set_post_step_hook(std::function<void(int64_t)> hook) {
    post_step_hook_ = std::move(hook);
  }

 private:
  void EnsureReplicas();
  /// Adds replica `s`'s trainable gradients into the master's.
  void AccumulateReplicaGradients(int64_t s);

  RationalizerBase& master_;
  ParallelTrainConfig config_;
  int64_t num_shards_ = 0;  // resolved from config in the constructor
  std::vector<std::unique_ptr<RationalizerBase>> replicas_;
  std::vector<ag::Variable> master_params_;
  std::vector<std::vector<ag::Variable>> replica_params_;
  std::unique_ptr<serve::ThreadPool> pool_;
  std::function<void(int64_t)> post_step_hook_;
  int64_t step_ = 0;
  /// The last ReduceGradientsForBatch() call's per-shard breakdowns,
  /// combined with the same shard-size weights as the loss itself. `valid`
  /// only if every shard reported one.
  LossBreakdown last_batch_breakdown_;
};

}  // namespace core
}  // namespace dar

#endif  // DAR_CORE_PARALLEL_TRAINER_H_

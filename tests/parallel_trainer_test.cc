// Gradient-equivalence harness for data-parallel training
// (core/parallel_trainer.h): the sharded reduce must compute the sequential
// loop's gradient — bit-exactly for one shard, and up to float summation
// order for many — and training must be a pure function of the shard
// schedule, never of the worker count.
#include "core/parallel_trainer.h"

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/rnp.h"
#include "core/trainer.h"
#include "data/dataloader.h"
#include "datasets/beer.h"
#include "eval/experiment.h"
#include "nn/gumbel.h"
#include "obs/train_observer.h"

namespace dar {
namespace core {
namespace {

const datasets::SyntheticDataset& ParallelDataset() {
  static const datasets::SyntheticDataset& ds = *new datasets::SyntheticDataset(
      datasets::MakeBeerDataset(datasets::BeerAspect::kAroma,
                                {.train = 96, .dev = 32, .test = 32},
                                /*seed=*/81));
  return ds;
}

TrainConfig TinyConfig() {
  TrainConfig config;
  config.embedding_dim = 8;
  config.hidden_dim = 6;
  config.batch_size = 16;
  config.epochs = 3;
  config.lr = 3e-3f;
  return config;
}

/// Exact (bitwise) equality of every trainable parameter of two models.
void ExpectParamsBitEqual(RationalizerBase& a, RationalizerBase& b) {
  std::vector<ag::Variable> pa = a.TrainableParameters();
  std::vector<ag::Variable> pb = b.TrainableParameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i].value().shape(), pb[i].value().shape());
    EXPECT_TRUE(pa[i].value().vec() == pb[i].value().vec())
        << "parameter " << i << " diverged";
  }
}

void ExpectRunsBitEqual(const TrainRun& a, const TrainRun& b) {
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].train_loss, b.epochs[e].train_loss) << "epoch " << e;
    EXPECT_EQ(a.epochs[e].dev_acc, b.epochs[e].dev_acc) << "epoch " << e;
  }
  EXPECT_EQ(a.best_epoch, b.best_epoch);
  EXPECT_EQ(a.best_dev_acc, b.best_dev_acc);
}

TEST(ShardRowSetsTest, ContiguousPartitionsEveryRowOnce) {
  const auto sets = ShardRowSets(10, 3);
  ASSERT_EQ(sets.size(), 3u);
  // Sizes differ by at most one, remainder goes to the leading shards.
  EXPECT_EQ(sets[0].size(), 4u);
  EXPECT_EQ(sets[1].size(), 3u);
  EXPECT_EQ(sets[2].size(), 3u);
  std::vector<int64_t> seen;
  for (const auto& s : sets) {
    for (int64_t r : s) seen.push_back(r);
  }
  ASSERT_EQ(seen.size(), 10u);
  for (int64_t r = 0; r < 10; ++r) EXPECT_EQ(seen[r], r);  // in order
}

TEST(ShardRowSetsTest, ShardCountClampedToBatchSize) {
  const auto sets = ShardRowSets(3, 8);
  ASSERT_EQ(sets.size(), 3u);  // no empty shards
  for (const auto& s : sets) EXPECT_EQ(s.size(), 1u);
}

// The num_shards == 1 parallel path consumes exactly the sequential RNG
// sequence and runs the same float program, so it must reproduce the
// sequential Fit() bit for bit: every epoch stat and every parameter.
TEST(ParallelFitTest, SingleShardMatchesSequentialBitExactRnp) {
  auto sequential = eval::MakeMethod("RNP", ParallelDataset(), TinyConfig());
  auto parallel = eval::MakeMethod("RNP", ParallelDataset(), TinyConfig());
  TrainRun run_seq = Fit(*sequential, ParallelDataset());
  TrainRun run_par = Fit(*parallel, ParallelDataset(),
                         ParallelTrainConfig{.num_workers = 1, .num_shards = 1});
  ExpectRunsBitEqual(run_seq, run_par);
  ExpectParamsBitEqual(*sequential, *parallel);
}

// Same certificate for DAR: its Prepare() pretrains and freezes the
// discriminator, so this also covers frozen-module mirroring into replicas.
TEST(ParallelFitTest, SingleShardMatchesSequentialBitExactDar) {
  auto sequential = eval::MakeMethod("DAR", ParallelDataset(), TinyConfig());
  auto parallel = eval::MakeMethod("DAR", ParallelDataset(), TinyConfig());
  TrainRun run_seq = Fit(*sequential, ParallelDataset());
  TrainRun run_par = Fit(*parallel, ParallelDataset(),
                         ParallelTrainConfig{.num_workers = 2, .num_shards = 1});
  ExpectRunsBitEqual(run_seq, run_par);
  ExpectParamsBitEqual(*sequential, *parallel);
}

// One reduce cycle over four shards must reproduce the full-batch gradient
// of the per-example-mean loss (tight tolerance; only the summation order
// differs).
TEST(ParallelFitTest, ShardedReduceMatchesFullBatchGradients) {
  auto reference = eval::MakeMethod("RNP", ParallelDataset(), TinyConfig());
  auto sharded = eval::MakeMethod("RNP", ParallelDataset(), TinyConfig());
  reference->SetTraining(true);
  sharded->SetTraining(true);

  data::DataLoader loader(ParallelDataset().train, 32, /*shuffle=*/false);
  const data::Batch batch = loader.Sequential().front();

  // Both models were constructed identically, so their RNGs are in the same
  // state: the noise drawn here for the reference equals the noise the
  // trainer draws from the sharded master.
  Tensor noise = nn::DrawBinaryMaskNoise(
      Shape{batch.batch_size(), batch.max_len()}, reference->rng());
  std::vector<ag::Variable> ref_params = reference->TrainableParameters();
  for (ag::Variable& p : ref_params) p.ZeroGrad();
  reference->set_injected_mask_noise(&noise);
  ag::Variable loss = reference->TrainLoss(batch);
  reference->set_injected_mask_noise(nullptr);
  loss.Backward();

  DataParallelTrainer trainer(
      *sharded, ParallelTrainConfig{.num_workers = 2, .num_shards = 4});
  const float reduced_loss = trainer.ReduceGradientsForBatch(batch);

  EXPECT_NEAR(reduced_loss, loss.value().item(), 1e-5f);
  std::vector<ag::Variable> sharded_params = sharded->TrainableParameters();
  ASSERT_EQ(ref_params.size(), sharded_params.size());
  for (size_t i = 0; i < ref_params.size(); ++i) {
    ASSERT_TRUE(ref_params[i].has_grad());
    ASSERT_TRUE(sharded_params[i].has_grad());
    EXPECT_TRUE(
        sharded_params[i].grad().AllClose(ref_params[i].grad(), 1e-4f))
        << "gradient " << i << " diverged";
  }
}

// The shard count — not the worker count — defines the summation tree:
// 1 worker and 4 workers over the same 4-shard schedule must train to
// bit-identical models.
TEST(ParallelFitTest, WorkerCountDoesNotChangeResults) {
  auto one_worker = eval::MakeMethod("RNP", ParallelDataset(), TinyConfig());
  auto four_workers = eval::MakeMethod("RNP", ParallelDataset(), TinyConfig());
  TrainRun run_one =
      Fit(*one_worker, ParallelDataset(),
          ParallelTrainConfig{.num_workers = 1, .num_shards = 4});
  TrainRun run_four =
      Fit(*four_workers, ParallelDataset(),
          ParallelTrainConfig{.num_workers = 4, .num_shards = 4});
  ExpectRunsBitEqual(run_one, run_four);
  ExpectParamsBitEqual(*one_worker, *four_workers);
}

// Stress: 8 workers, shards of one or two examples, many optimizer steps.
// After every reduce + step + broadcast, every replica must hold exactly
// the master's parameters (FNV-1a checksum over every module).
TEST(ParallelFitStressTest, ReplicasStayInSyncUnderManySmallShards) {
  TrainConfig config = TinyConfig();
  config.batch_size = 12;
  config.epochs = 5;
  auto model = eval::MakeMethod("RNP", ParallelDataset(), config);
  DataParallelTrainer trainer(
      *model, ParallelTrainConfig{.num_workers = 8, .num_shards = 8});
  int64_t checks = 0;
  trainer.set_post_step_hook([&](int64_t /*step*/) {
    const uint64_t master = trainer.MasterChecksum();
    for (int64_t r = 0; r < trainer.num_replicas(); ++r) {
      ASSERT_EQ(master, trainer.ReplicaChecksum(r)) << "replica " << r;
    }
    ++checks;
  });
  TrainRun run = trainer.Fit(ParallelDataset());
  // 96 train examples / batch 12 = 8 batches per epoch, 5 epochs.
  EXPECT_EQ(checks, 40);
  ASSERT_EQ(run.epochs.size(), 5u);
}

/// Records every telemetry callback of a run (and asks for the
/// rationale-shift gauge, so the probe runs too).
class RecordingObserver : public obs::TrainObserver {
 public:
  void OnBatch(const obs::BatchTelemetry& t) override { batches.push_back(t); }
  void OnEpoch(const obs::EpochTelemetry& t) override { epochs.push_back(t); }

  std::vector<obs::BatchTelemetry> batches;
  std::vector<obs::EpochTelemetry> epochs;
};

void ExpectBitEqual(double a, double b, const char* field, size_t index) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
      << field << " of #" << index << ": " << a << " vs " << b;
}

// Both Fit() overloads run one game loop, so with one shard the sharded
// path reports the sequential run's telemetry bit for bit — every step's
// loss, gradient norm, loss breakdown and shift gauge, and every epoch
// aggregate. Only the epoch's model tag differs.
TEST(ParallelFitTest, SingleShardTelemetryMatchesSequential) {
  auto sequential = eval::MakeMethod("DAR", ParallelDataset(), TinyConfig());
  auto parallel = eval::MakeMethod("DAR", ParallelDataset(), TinyConfig());
  RecordingObserver seq, par;
  Fit(*sequential, ParallelDataset(), /*verbose=*/false, &seq);
  Fit(*parallel, ParallelDataset(),
      ParallelTrainConfig{.num_workers = 1, .num_shards = 1},
      /*verbose=*/false, &par);

  ASSERT_EQ(seq.batches.size(), 3u * 6u);  // 96 / 16 per epoch
  ASSERT_EQ(par.batches.size(), seq.batches.size());
  for (size_t i = 0; i < seq.batches.size(); ++i) {
    const obs::BatchTelemetry& a = seq.batches[i];
    const obs::BatchTelemetry& b = par.batches[i];
    EXPECT_EQ(a.epoch, b.epoch);
    EXPECT_EQ(a.batch, b.batch);
    ExpectBitEqual(a.loss, b.loss, "loss", i);
    ExpectBitEqual(a.task_ce, b.task_ce, "task_ce", i);
    ExpectBitEqual(a.align_ce, b.align_ce, "align_ce", i);
    ExpectBitEqual(a.omega, b.omega, "omega", i);
    ExpectBitEqual(a.grad_norm, b.grad_norm, "grad_norm", i);
    ExpectBitEqual(a.sparsity, b.sparsity, "sparsity", i);
    ExpectBitEqual(a.rationale_shift, b.rationale_shift, "shift", i);
    EXPECT_TRUE(a.has_breakdown && a.has_align && a.has_shift);
    EXPECT_EQ(a.has_breakdown, b.has_breakdown);
    EXPECT_EQ(a.has_align, b.has_align);
    EXPECT_EQ(a.has_shift, b.has_shift);
  }

  ASSERT_EQ(seq.epochs.size(), 3u);
  ASSERT_EQ(par.epochs.size(), seq.epochs.size());
  for (size_t e = 0; e < seq.epochs.size(); ++e) {
    const obs::EpochTelemetry& a = seq.epochs[e];
    const obs::EpochTelemetry& b = par.epochs[e];
    EXPECT_EQ(a.epoch, b.epoch);
    EXPECT_EQ(a.batches, b.batches);
    ExpectBitEqual(a.train_loss, b.train_loss, "train_loss", e);
    ExpectBitEqual(a.dev_acc, b.dev_acc, "dev_acc", e);
    ExpectBitEqual(a.task_ce, b.task_ce, "task_ce", e);
    ExpectBitEqual(a.align_ce, b.align_ce, "align_ce", e);
    ExpectBitEqual(a.omega, b.omega, "omega", e);
    ExpectBitEqual(a.grad_norm, b.grad_norm, "grad_norm", e);
    ExpectBitEqual(a.sparsity, b.sparsity, "sparsity", e);
    ExpectBitEqual(a.rationale_shift, b.rationale_shift, "shift", e);
    EXPECT_EQ(a.has_breakdown, b.has_breakdown);
    EXPECT_EQ(a.has_align, b.has_align);
    EXPECT_EQ(a.has_shift, b.has_shift);
    EXPECT_EQ(a.model, "DAR");
    EXPECT_EQ(b.model, "DAR x1");
  }
}

// Fit() ends by restoring the best epoch's parameters on the master; the
// replicas must receive the restored values too, not keep the last step's.
TEST(ParallelFitTest, ReplicasHoldTheRestoredBestEpoch) {
  auto model = eval::MakeMethod("RNP", ParallelDataset(), TinyConfig());
  DataParallelTrainer trainer(
      *model, ParallelTrainConfig{.num_workers = 2, .num_shards = 3});
  TrainRun run = trainer.Fit(ParallelDataset());
  // Only a best epoch before the last makes the restore move parameters.
  ASSERT_LT(run.best_epoch, static_cast<int64_t>(run.epochs.size()) - 1);
  const uint64_t master = trainer.MasterChecksum();
  for (int64_t r = 0; r < trainer.num_replicas(); ++r) {
    EXPECT_EQ(master, trainer.ReplicaChecksum(r)) << "replica " << r;
  }
}

}  // namespace
}  // namespace core
}  // namespace dar

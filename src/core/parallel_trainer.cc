#include "core/parallel_trainer.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "core/game_loop.h"
#include "data/dataloader.h"
#include "nn/gumbel.h"
#include "obs/trace.h"
#include "tensor/check.h"

namespace dar {
namespace core {

namespace {

/// Extracts the given rows of a [B, T] tensor into a [rows, T] tensor.
Tensor SelectRows(const Tensor& full, const std::vector<int64_t>& rows) {
  DAR_CHECK_EQ(full.dim(), 2);
  const int64_t t = full.size(1);
  Tensor out(Shape{static_cast<int64_t>(rows.size()), t});
  for (size_t i = 0; i < rows.size(); ++i) {
    DAR_CHECK(rows[i] >= 0 && rows[i] < full.size(0));
    std::memcpy(out.data() + static_cast<int64_t>(i) * t,
                full.data() + rows[i] * t, sizeof(float) * t);
  }
  return out;
}

}  // namespace

std::vector<std::vector<int64_t>> ShardRowSets(int64_t batch_size,
                                               int64_t num_shards) {
  DAR_CHECK_GT(batch_size, 0);
  const int64_t shards = std::max<int64_t>(1, std::min(num_shards, batch_size));
  std::vector<std::vector<int64_t>> row_sets(shards);
  const int64_t base = batch_size / shards;
  const int64_t rem = batch_size % shards;
  int64_t next = 0;
  for (int64_t s = 0; s < shards; ++s) {
    const int64_t count = base + (s < rem ? 1 : 0);
    row_sets[s].reserve(count);
    for (int64_t i = 0; i < count; ++i) row_sets[s].push_back(next++);
  }
  DAR_CHECK_EQ(next, batch_size);
  return row_sets;
}

uint64_t ParameterChecksum(RationalizerBase& model) {
  // FNV-1a over the 32-bit patterns of every parameter element, in the
  // stable CheckpointModules / Parameters order.
  uint64_t h = 1469598103934665603ull;
  for (const nn::NamedModule& named : model.CheckpointModules()) {
    for (const nn::NamedParameter& p : named.module->Parameters()) {
      const Tensor& v = p.variable.value();
      const float* data = v.data();
      const int64_t n = v.numel();
      for (int64_t i = 0; i < n; ++i) {
        uint32_t bits;
        std::memcpy(&bits, &data[i], sizeof(bits));
        h ^= static_cast<uint64_t>(bits);
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

DataParallelTrainer::DataParallelTrainer(RationalizerBase& master,
                                         ParallelTrainConfig config)
    : master_(master), config_(config) {
  config_.num_workers = std::max(1, config_.num_workers);
  DAR_CHECK_GE(config_.num_shards, 0);
  num_shards_ =
      config_.num_shards > 0 ? config_.num_shards : config_.num_workers;
}

void DataParallelTrainer::EnsureReplicas() {
  if (!replicas_.empty()) return;
  master_params_ = master_.TrainableParameters();
  replicas_.reserve(num_shards_);
  replica_params_.reserve(num_shards_);
  for (int64_t s = 0; s < num_shards_; ++s) {
    std::unique_ptr<RationalizerBase> replica = master_.CloneArchitecture();
    DAR_CHECK_MSG(replica != nullptr,
                  "DataParallelTrainer: the model does not implement "
                  "CloneArchitecture() and cannot be trained data-parallel");
    replica->MirrorFrom(master_);
    replica_params_.push_back(replica->TrainableParameters());
    DAR_CHECK_EQ(replica_params_.back().size(), master_params_.size());
    replicas_.push_back(std::move(replica));
  }
  pool_ = std::make_unique<serve::ThreadPool>(config_.num_workers);
}

void DataParallelTrainer::AccumulateReplicaGradients(int64_t s) {
  std::vector<ag::Variable>& rep = replica_params_[s];
  for (size_t j = 0; j < master_params_.size(); ++j) {
    if (rep[j].has_grad()) master_params_[j].AccumulateGrad(rep[j].grad());
  }
}

float DataParallelTrainer::ReduceGradientsForBatch(const data::Batch& batch,
                                                   bool audit) {
  EnsureReplicas();
  const int64_t b = batch.batch_size();
  DAR_CHECK_GT(b, 0);
  const std::vector<std::vector<int64_t>> row_sets =
      ShardRowSets(b, num_shards_);
  const int64_t shards = static_cast<int64_t>(row_sets.size());

  // Draw the whole batch's Gumbel noise from the master RNG up front — in
  // exactly the flat order the sequential loop would consume it — and hand
  // each shard its row slice. This keeps the parallel run on the sequential
  // RNG sequence and makes replica execution deterministic no matter which
  // worker thread picks up which shard.
  const bool training = master_.generator().training();
  const Tensor noise =
      training ? nn::DrawBinaryMaskNoise(Shape{b, batch.max_len()},
                                         master_.rng())
               : Tensor();

  for (ag::Variable& p : master_params_) p.ZeroGrad();

  std::vector<double> shard_loss(shards, 0.0);
  ag::Variable audited_loss;  // shard 0's, kept past its task for the audit
  for (int64_t s = 0; s < shards; ++s) {
    pool_->Submit([this, s, b, training, audit, &row_sets, &batch, &noise,
                   &shard_loss, &audited_loss] {
      obs::Span shard_span("train.shard");
      RationalizerBase& replica = *replicas_[s];
      replica.SetTraining(training);
      const std::vector<int64_t>& rows = row_sets[s];
      const data::Batch shard = data::SelectBatchRows(batch, rows);
      // Seeding the backward with |shard| / |batch| makes the reduced sum
      // the gradient of the per-example-mean batch loss.
      const float weight =
          static_cast<float>(rows.size()) / static_cast<float>(b);
      for (ag::Variable& p : replica_params_[s]) p.ZeroGrad();
      Tensor shard_noise;
      if (training) {
        shard_noise = SelectRows(noise, rows);
        replica.set_injected_mask_noise(&shard_noise);
      }
      ag::Variable loss = replica.TrainLoss(shard);
      replica.set_injected_mask_noise(nullptr);
      loss.Backward(Tensor(loss.value().shape(), weight));
      shard_loss[s] = static_cast<double>(weight) *
                      static_cast<double>(loss.value().item());
      if (audit && s == 0) audited_loss = loss;
    });
  }
  pool_->Wait();
  if (audit) AuditFirstStepOrDie(*replicas_[0], audited_loss);
  {
    // Barrier above, then fixed shard-order reduce: the summation tree is a
    // function of num_shards only, never of thread timing.
    obs::Span reduce_span("train.reduce");
    for (int64_t s = 0; s < shards; ++s) AccumulateReplicaGradients(s);
  }

  // Combine the per-shard loss breakdowns with the same weights the loss
  // reduction uses; valid only if every replica stashed one.
  last_batch_breakdown_ = LossBreakdown{};
  bool all_valid = true, all_align = true;
  for (int64_t s = 0; s < shards; ++s) {
    const LossBreakdown& bd = replicas_[s]->last_loss_breakdown();
    if (!bd.valid) {
      all_valid = false;
      break;
    }
    const double w = static_cast<double>(row_sets[s].size()) /
                     static_cast<double>(b);
    last_batch_breakdown_.task_ce += static_cast<float>(w * bd.task_ce);
    last_batch_breakdown_.omega += static_cast<float>(w * bd.omega);
    last_batch_breakdown_.sparsity += static_cast<float>(w * bd.sparsity);
    if (bd.has_align) {
      last_batch_breakdown_.align_ce += static_cast<float>(w * bd.align_ce);
    } else {
      all_align = false;
    }
  }
  last_batch_breakdown_.valid = all_valid;
  last_batch_breakdown_.has_align = all_valid && all_align;

  double total = 0.0;
  for (int64_t s = 0; s < shards; ++s) total += shard_loss[s];
  return static_cast<float>(total);
}

void DataParallelTrainer::BroadcastParameters() {
  for (size_t s = 0; s < replicas_.size(); ++s) {
    std::vector<ag::Variable>& rep = replica_params_[s];
    for (size_t j = 0; j < master_params_.size(); ++j) {
      rep[j].mutable_value() = master_params_[j].value();
    }
  }
}

int64_t DataParallelTrainer::num_replicas() {
  EnsureReplicas();
  return static_cast<int64_t>(replicas_.size());
}

uint64_t DataParallelTrainer::ReplicaChecksum(int64_t i) {
  EnsureReplicas();
  DAR_CHECK(i >= 0 && i < static_cast<int64_t>(replicas_.size()));
  return ParameterChecksum(*replicas_[i]);
}

TrainRun DataParallelTrainer::Fit(const datasets::SyntheticDataset& dataset,
                                  bool verbose, obs::TrainObserver* observer) {
  // Replicas must mirror the post-Prepare() state (DAR pretrains and
  // freezes its discriminator there), so drop any that were created
  // earlier, e.g. by an introspection call; the first reduce rebuilds them
  // after RunGame's Prepare().
  replicas_.clear();
  replica_params_.clear();
  auto gradient = [this](const data::Batch& batch, bool audit) {
    const float loss = ReduceGradientsForBatch(batch, audit);
    return BatchLoss{loss, last_batch_breakdown_, /*graph=*/{}};
  };
  auto after_step = [this] {
    {
      obs::Span broadcast_span("train.broadcast");
      BroadcastParameters();
    }
    ++step_;
    if (post_step_hook_) post_step_hook_(step_);
  };
  const std::string tag = master_.name() + " x" + std::to_string(num_shards_);
  TrainRun run =
      RunGame(master_, dataset, tag, gradient, after_step, verbose, observer);
  // The best-epoch restore rewrote the master's values.
  BroadcastParameters();
  return run;
}

}  // namespace core
}  // namespace dar

#include "check/model_audit.h"

#include <cmath>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "autograd/ops.h"
#include "core/rationalizer.h"
#include "data/dataloader.h"
#include "datasets/beer.h"
#include "eval/experiment.h"
#include "sync/mutex.h"
#include "tensor/check.h"

namespace dar {
namespace check {

namespace {

/// Restores the previous sentinel mode on scope exit and isolates the
/// finding stream (drains before and after).
class ScopedRecordingSentinel {
 public:
  ScopedRecordingSentinel() : previous_(GetSentinelMode()) {
    DrainSentinelFindings();
    SetSentinelMode(SentinelMode::kRecord);
  }
  ~ScopedRecordingSentinel() { SetSentinelMode(previous_); }
  ScopedRecordingSentinel(const ScopedRecordingSentinel&) = delete;
  ScopedRecordingSentinel& operator=(const ScopedRecordingSentinel&) = delete;

 private:
  SentinelMode previous_;
};

const datasets::SyntheticDataset& TinyDataset() {
  static const datasets::SyntheticDataset& ds = *new datasets::SyntheticDataset(
      datasets::MakeBeerDataset(datasets::BeerAspect::kAroma,
                                {.train = 64, .dev = 16, .test = 16},
                                /*seed=*/11));
  return ds;
}

core::TrainConfig TinyConfig() {
  core::TrainConfig config;
  config.embedding_dim = 8;
  config.hidden_dim = 6;
  config.batch_size = 8;
  config.epochs = 1;
  config.pretrain_epochs = 1;
  return config;
}

data::Batch FirstBatch() {
  data::DataLoader loader(TinyDataset().train, 8, /*shuffle=*/false);
  return loader.Sequential()[0];
}

/// The optimizer's parameter list with names resolved against the
/// checkpoint modules — now a RationalizerBase method (Fit()'s
/// audit_first_step pass shares it); kept as a local alias for the call
/// sites below.
std::vector<nn::NamedParameter> NamedTrainableParameters(
    core::RationalizerBase& model) {
  return model.NamedTrainableParameters();
}

/// Clears gradients and visit counters on every checkpoint-module
/// parameter (Prepare()'s pretraining leaves both behind).
void ZeroAllGradients(core::RationalizerBase& model) {
  for (const nn::NamedModule& m : model.CheckpointModules()) {
    if (m.module != nullptr) m.module->ZeroGrad();
  }
  for (ag::Variable v : model.TrainableParameters()) {
    v.ZeroGrad();
  }
}

}  // namespace

std::vector<std::string> AuditableMethods() {
  return {"RNP", "DAR", "DAR-cotrained", "DMR",     "A2R",  "Inter_RAT",
          "CAR", "3PLAYER", "VIB",       "SPECTRA", "RNP*", "A2R*"};
}

MethodAuditResult AuditMethodByName(const std::string& method, uint64_t seed) {
  MethodAuditResult result;
  result.method = method;

  core::TrainConfig config = TinyConfig();
  config.seed = seed;
  auto model = eval::MakeMethod(method, TinyDataset(), config);
  model->Prepare(TinyDataset());
  model->SetTraining(true);
  ZeroAllGradients(*model);

  // The audit list is exactly what Fit() hands the optimizer.
  const std::vector<nn::NamedParameter> params =
      NamedTrainableParameters(*model);

  ScopedRecordingSentinel sentinel;
  ag::Variable loss = model->TrainLoss(FirstBatch());
  loss.Backward();
  result.sentinel_findings = DrainSentinelFindings();

  result.report = AuditGraph(loss, params);
  result.ok = result.report.clean() && result.sentinel_findings.empty();
  return result;
}

std::vector<SelfTestResult> RunMutationSelfTest() {
  std::vector<SelfTestResult> results;

  // Defect 1: a parameter detached from the loss (Detach() upstream). The
  // audit must flag w2 as an orphan while w1 stays clean.
  {
    SelfTestResult r{"detached_param", false, ""};
    Pcg32 rng(41);
    ag::Variable w1 = ag::Variable::Param(Tensor::Randn({3}, rng));
    ag::Variable w2 = ag::Variable::Param(Tensor::Randn({3}, rng));
    ag::Variable loss =
        ag::Sum(ag::Add(ag::Mul(w1, w1), ag::Mul(w2.Detach(), w2.Detach())));
    loss.Backward();
    AuditReport report = AuditGraph(loss, {{"w1", w1}, {"w2", w2}});
    r.detected = report.count(IssueKind::kOrphanParam) == 1 &&
                 report.count(IssueKind::kMissingGrad) == 0;
    r.detail = report.clean() ? "audit came back clean" : report.ToString();
    results.push_back(std::move(r));
  }

  // Defect 2: the generator frozen while the optimizer still holds its
  // parameters — the frozen-predictor-leaks bug class from the paper's
  // training-collapse failure mode, seeded on a real RNP model.
  {
    SelfTestResult r{"frozen_generator_params", false, ""};
    auto model = eval::MakeMethod("RNP", TinyDataset(), TinyConfig());
    model->Prepare(TinyDataset());
    model->SetTraining(true);
    ZeroAllGradients(*model);
    const std::vector<nn::NamedParameter> optimizer_list =
        NamedTrainableParameters(*model);
    model->generator().SetRequiresGrad(false);  // the seeded defect
    ag::Variable loss = model->TrainLoss(FirstBatch());
    loss.Backward();
    AuditReport report = AuditGraph(loss, optimizer_list);
    // Count the generator parameters the optimizer actually holds (the
    // embedding table is frozen by design and never enters the list).
    std::unordered_set<const ag::Node*> generator_nodes;
    for (const nn::NamedParameter& p : model->generator().Parameters()) {
      generator_nodes.insert(p.variable.node().get());
    }
    int64_t frozen_in_list = 0;
    for (const nn::NamedParameter& p : optimizer_list) {
      if (generator_nodes.count(p.variable.node().get())) ++frozen_in_list;
    }
    r.detected = frozen_in_list > 0 &&
                 report.count(IssueKind::kOrphanParam) >= frozen_in_list;
    r.detail = report.clean() ? "audit came back clean" : report.ToString();
    results.push_back(std::move(r));
  }

  // Defect 3: a NaN injected into a generator weight — the sentinels must
  // attribute non-finite values to a named op during the forward pass.
  {
    SelfTestResult r{"nan_injected_logit", false, ""};
    auto model = eval::MakeMethod("RNP", TinyDataset(), TinyConfig());
    model->Prepare(TinyDataset());
    model->SetTraining(true);
    ZeroAllGradients(*model);
    std::vector<nn::NamedParameter> generator_params =
        model->generator().Parameters();
    DAR_CHECK(!generator_params.empty());
    generator_params[0].variable.mutable_value().flat(0) =
        std::numeric_limits<float>::quiet_NaN();  // the seeded defect
    ScopedRecordingSentinel sentinel;
    ag::Variable loss = model->TrainLoss(FirstBatch());
    const std::vector<SentinelFinding> findings = DrainSentinelFindings();
    r.detected = !findings.empty();
    if (!findings.empty()) {
      r.detail = findings.front().ToString();
    } else {
      r.detail = "sentinel recorded nothing";
    }
    results.push_back(std::move(r));
  }

  // Defect 4: a corrupted gradient buffer (shape disagrees with the
  // value) planted directly on the tape.
  {
    SelfTestResult r{"corrupt_grad_shape", false, ""};
    Pcg32 rng(43);
    ag::Variable w = ag::Variable::Param(Tensor::Randn({4}, rng));
    ag::Variable loss = ag::Sum(ag::Mul(w, w));
    loss.Backward();
    w.node()->grad = Tensor(Shape{2, 2});  // the seeded defect
    AuditReport report = AuditGraph(loss, {{"w", w}});
    r.detected = report.count(IssueKind::kShapeMismatch) >= 1;
    r.detail = report.clean() ? "audit came back clean" : report.ToString();
    results.push_back(std::move(r));
  }

  // Defect 5: Backward() twice without ZeroGrad — gradients silently
  // doubled; the visit counter must exceed the graph's fan-in.
  {
    SelfTestResult r{"double_backward_no_zerograd", false, ""};
    Pcg32 rng(44);
    ag::Variable w = ag::Variable::Param(Tensor::Randn({4}, rng));
    ag::Variable loss = ag::Sum(ag::Mul(w, w));
    loss.Backward();
    loss.Backward();  // the seeded defect
    AuditReport report = AuditGraph(loss, {{"w", w}});
    r.detected = report.count(IssueKind::kDoubleAccumulation) >= 1;
    r.detail = report.clean() ? "audit came back clean" : report.ToString();
    results.push_back(std::move(r));
  }

  // Defect 6: a kernel reading a scratch buffer it never wrote. Poison
  // mode turns the silent zero into a NaN the op sentinel attributes.
  {
    SelfTestResult r{"unwritten_scratch_read", false, ""};
    ScopedRecordingSentinel sentinel;
    SetPoisonScratch(true);
    Tensor leaked = Tensor::Scratch(Shape{2, 2});  // never written — defect
    SetPoisonScratch(false);
    ag::Variable x = ag::Variable::Param(std::move(leaked));
    ag::Variable y = ag::MulScalar(x, 2.0f);
    (void)y;
    const std::vector<SentinelFinding> findings = DrainSentinelFindings();
    r.detected = !findings.empty();
    r.detail = findings.empty() ? "sentinel recorded nothing"
                                : findings.front().ToString();
    results.push_back(std::move(r));
  }

  // Defect 7: lock acquisition against the documented rank order. A
  // kStats mutex is held while a kRegistry mutex is acquired — the
  // inversion the runtime checker exists to catch. Record mode lets the
  // acquisition proceed and files a finding instead of aborting.
  {
    SelfTestResult r{"lock_rank_inversion", false, ""};
    ScopedRecordingSentinel sentinel;
    InstallLockRankHandler();
    const bool was_checking = sync::LockRankCheckEnabled();
    sync::SetLockRankCheck(true);
    {
      sync::Mutex high(sync::Rank::kStats, "selftest.high");
      sync::Mutex low(sync::Rank::kRegistry, "selftest.low");
      sync::MutexLock hold_high(high);
      sync::MutexLock hold_low(low);  // the seeded defect: rank decreases
    }
    sync::SetLockRankCheck(was_checking);
    sync::SetRankViolationHandler(nullptr);  // back to the abort default
    bool found = false;
    std::string detail;
    for (const SentinelFinding& finding : DrainSentinelFindings()) {
      if (finding.op == "lockrank") {
        found = true;
        detail = finding.ToString();
      }
    }
    r.detected = found;
    r.detail = found ? detail : "no lockrank finding recorded";
    results.push_back(std::move(r));
  }

  return results;
}

}  // namespace check
}  // namespace dar

// Tests for src/check/: the numerical sentinels (mode gating, NaN/Inf
// attribution, scratch poisoning, tape-ownership tokens), the autograd
// graph auditor (every IssueKind, fan-in math, per-op attribution, metric
// export), and the model-zoo audit engine behind the dar_check CLI —
// including the mutation self-test that proves each defect class is
// detected.
#include "check/graph_audit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "check/model_audit.h"
#include "check/sentinel.h"
#include "tensor/check.h"
#include "tensor/random.h"
#include "tensor/storage.h"
#include "tensor/tensor.h"

namespace dar {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Restores sentinel mode + poison flag and drains leftover findings so a
/// failing test cannot contaminate its neighbors.
class SentinelGuard {
 public:
  SentinelGuard() { Reset(); }
  ~SentinelGuard() { Reset(); }

 private:
  static void Reset() {
    check::SetSentinelMode(check::SentinelMode::kOff);
    check::SetPoisonScratch(false);
    check::DrainSentinelFindings();
  }
};

// ---------------------------------------------------------------------------
// Sentinel primitives.

TEST(SentinelTest, OffByDefault) {
  SentinelGuard guard;
  EXPECT_EQ(check::GetSentinelMode(), check::SentinelMode::kOff);
  EXPECT_FALSE(check::SentinelEnabled());
  EXPECT_FALSE(check::PoisonEnabled());
}

TEST(SentinelTest, ModeRoundTrip) {
  SentinelGuard guard;
  check::SetSentinelMode(check::SentinelMode::kRecord);
  EXPECT_EQ(check::GetSentinelMode(), check::SentinelMode::kRecord);
  EXPECT_TRUE(check::SentinelEnabled());
  check::SetSentinelMode(check::SentinelMode::kOff);
  EXPECT_FALSE(check::SentinelEnabled());
}

TEST(SentinelTest, ComputeStatsFiniteBuffer) {
  const float data[] = {1.0f, -3.0f, 2.0f};
  const check::TensorStats stats = check::ComputeStats(data, 3);
  EXPECT_EQ(stats.numel, 3);
  EXPECT_TRUE(stats.all_finite());
  EXPECT_FLOAT_EQ(stats.finite_min, -3.0f);
  EXPECT_FLOAT_EQ(stats.finite_max, 2.0f);
  EXPECT_FLOAT_EQ(stats.finite_mean, 0.0f);
}

TEST(SentinelTest, ComputeStatsCountsNanAndInf) {
  const float data[] = {1.0f, kNaN, kInf, -kInf, 5.0f};
  const check::TensorStats stats = check::ComputeStats(data, 5);
  EXPECT_EQ(stats.nan_count, 1);
  EXPECT_EQ(stats.inf_count, 2);
  EXPECT_FALSE(stats.all_finite());
  EXPECT_FLOAT_EQ(stats.finite_min, 1.0f);
  EXPECT_FLOAT_EQ(stats.finite_max, 5.0f);
}

TEST(SentinelTest, ScanCleanBufferRecordsNothing) {
  SentinelGuard guard;
  check::SetSentinelMode(check::SentinelMode::kRecord);
  const float data[] = {0.0f, 1.0f, -2.0f};
  EXPECT_TRUE(check::ScanForNonFinite("test_op", "value", data, 3));
  EXPECT_EQ(check::SentinelFindingCount(), 0u);
}

TEST(SentinelTest, RecordModeAttributesOpAndLocation) {
  SentinelGuard guard;
  check::SetSentinelMode(check::SentinelMode::kRecord);
  const float data[] = {1.0f, kNaN};
  EXPECT_FALSE(check::ScanForNonFinite("matmul", "grad", data, 2));
  const std::vector<check::SentinelFinding> findings =
      check::DrainSentinelFindings();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].op, "matmul");
  EXPECT_EQ(findings[0].where, "grad");
  EXPECT_EQ(findings[0].stats.nan_count, 1);
  // Drain clears.
  EXPECT_EQ(check::SentinelFindingCount(), 0u);
  EXPECT_TRUE(check::DrainSentinelFindings().empty());
}

TEST(SentinelTest, ForwardOpScanNamesTheProducingOp) {
  SentinelGuard guard;
  check::SetSentinelMode(check::SentinelMode::kRecord);
  ag::Variable x = ag::Variable::Param(Tensor::Full(Shape{3}, kNaN));
  ag::Variable y = ag::MulScalar(x, 2.0f);
  (void)y;
  const std::vector<check::SentinelFinding> findings =
      check::DrainSentinelFindings();
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings.front().op, "mul_scalar");
  EXPECT_EQ(findings.front().where, "value");
}

TEST(SentinelTest, BackwardScanCatchesNonFiniteGradient) {
  SentinelGuard guard;
  // Build a healthy graph, then seed Backward() with NaN: only the
  // gradient stream is poisoned, so any finding must come from the
  // backward-pass scan, attributed to the op whose grad went bad.
  Pcg32 rng(12);
  ag::Variable w = ag::Variable::Param(Tensor::Randn({3}, rng));
  ag::Variable loss = ag::Sum(ag::Mul(w, w));
  check::SetSentinelMode(check::SentinelMode::kRecord);
  loss.Backward(Tensor::Full(loss.value().shape(), kNaN));
  const std::vector<check::SentinelFinding> findings =
      check::DrainSentinelFindings();
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings.front().op, "sum");
  EXPECT_EQ(findings.front().where, "grad");
}

TEST(SentinelTest, TrapModeAborts) {
  SentinelGuard guard;
  const float data[] = {kInf};
  EXPECT_DEATH(
      {
        check::SetSentinelMode(check::SentinelMode::kTrap);
        check::ScanForNonFinite("bad_op", "value", data, 1);
      },
      "bad_op");
}

TEST(SentinelTest, TapeOwnerTokensAreNonzeroAndPerThread) {
  const uint32_t mine = check::TapeOwnerToken();
  EXPECT_NE(mine, 0u);
  EXPECT_EQ(check::TapeOwnerToken(), mine);  // stable within a thread
  uint32_t other = 0;
  std::thread t([&] { other = check::TapeOwnerToken(); });
  t.join();
  EXPECT_NE(other, 0u);
  EXPECT_NE(other, mine);
}

TEST(SentinelTest, TapeViolationIsRecorded) {
  SentinelGuard guard;
  check::SetSentinelMode(check::SentinelMode::kRecord);
  check::ReportTapeViolation("unit-test violation");
  const std::vector<check::SentinelFinding> findings =
      check::DrainSentinelFindings();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].op, "tape");
}

TEST(SentinelTest, ConcurrentBackwardOnDisjointTapesIsClean) {
  SentinelGuard guard;
  check::SetSentinelMode(check::SentinelMode::kRecord);
  // The PR 2 contract: disjoint graphs per thread are fine. The ownership
  // assertions must not fire here.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      Pcg32 rng(100 + t);
      ag::Variable w = ag::Variable::Param(Tensor::Randn({8}, rng));
      for (int step = 0; step < 10; ++step) {
        ag::Variable loss = ag::Sum(ag::Mul(w, w));
        loss.Backward();
        w.ZeroGrad();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(check::SentinelFindingCount(), 0u);
}

// ---------------------------------------------------------------------------
// Scratch poisoning.

TEST(ScratchTest, UnwrittenOutsidePoisonMode) {
  // Scratch writes nothing unless poisoning: a reused buffer still holds
  // its last owner's bytes. Observable only where the buffer is a cached
  // mapping.
  if (!storage::MappedStorageEnabled()) GTEST_SKIP() << "operator new build";
  SentinelGuard guard;
  const Shape shape{64, 1021};
  const float* first = Tensor::Full(shape, 2.5f).data();
  Tensor t = Tensor::Scratch(shape);
  ASSERT_EQ(t.data(), first);
  for (int64_t i = 0; i < t.numel(); ++i) ASSERT_EQ(t.flat(i), 2.5f) << i;
}

TEST(ScratchTest, PoisonedWithNanWhenEnabled) {
  SentinelGuard guard;
  check::SetPoisonScratch(true);
  Tensor t = Tensor::Scratch(Shape{4});
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_TRUE(std::isnan(t.flat(i)));
}

TEST(ScratchTest, FullyOverwritingKernelsSurvivePoison) {
  SentinelGuard guard;
  check::SetPoisonScratch(true);
  check::SetSentinelMode(check::SentinelMode::kRecord);
  // Ops whose kernels allocate via Scratch must overwrite every element;
  // under poison any missed element would surface as a NaN finding.
  Pcg32 rng(7);
  ag::Variable a = ag::Variable::Param(Tensor::Randn({3, 5}, rng));
  ag::Variable b = ag::Variable::Param(Tensor::Randn({3, 5}, rng));
  ag::Variable loss = ag::Sum(ag::Mul(ag::Tanh(a), ag::Sigmoid(b)));
  loss.Backward();
  EXPECT_EQ(check::SentinelFindingCount(), 0u);
}

// ---------------------------------------------------------------------------
// DAR_DCHECK contract (tensor/check.h).

TEST(CheckMacroTest, DcheckOperandsNotEvaluatedTwice) {
  // The documented contract: DAR_CHECK* evaluate operands exactly once.
  int calls = 0;
  auto next = [&calls] { return ++calls; };
  DAR_CHECK_GE(next(), 1);
  EXPECT_EQ(calls, 1);
}

TEST(CheckMacroTest, DcheckCompilesAndPasses) {
  DAR_DCHECK(1 + 1 == 2);
  DAR_DCHECK_EQ(2, 2);
  DAR_DCHECK_LT(1, 2);
  DAR_DCHECK_MSG(true, "never fires");
}

// ---------------------------------------------------------------------------
// GraphAudit.

TEST(GraphAuditTest, CleanGraphReportsNoFindings) {
  Pcg32 rng(1);
  ag::Variable w1 = ag::Variable::Param(Tensor::Randn({4}, rng));
  ag::Variable w2 = ag::Variable::Param(Tensor::Randn({4}, rng));
  ag::Variable loss = ag::Sum(ag::Add(ag::Mul(w1, w1), ag::Mul(w2, w2)));
  loss.Backward();
  const check::AuditReport report =
      check::AuditGraph(loss, {{"w1", w1}, {"w2", w2}});
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_EQ(report.params_audited, 2);
  EXPECT_EQ(report.params_reachable, 2);
  EXPECT_EQ(report.params_frozen, 0);
  EXPECT_GT(report.nodes_visited, 2);
  bool saw_mul = false;
  for (const check::OpGradStat& s : report.per_op) {
    if (s.op == "mul") {
      saw_mul = true;
      EXPECT_GT(s.grad_norm, 0.0);
    }
  }
  EXPECT_TRUE(saw_mul);
}

TEST(GraphAuditTest, SharedOperandFanInIsNotDoubleAccumulation) {
  // Mul(w, w) pushes two gradients into w in a single backward — the
  // fan-in accounting must not misread that as a double Backward().
  Pcg32 rng(2);
  ag::Variable w = ag::Variable::Param(Tensor::Randn({4}, rng));
  ag::Variable loss = ag::Sum(ag::Mul(w, w));
  loss.Backward();
  const check::AuditReport report = check::AuditGraph(loss, {{"w", w}});
  EXPECT_EQ(report.count(check::IssueKind::kDoubleAccumulation), 0)
      << report.ToString();
}

TEST(GraphAuditTest, DetachedParamIsOrphan) {
  Pcg32 rng(3);
  ag::Variable w1 = ag::Variable::Param(Tensor::Randn({3}, rng));
  ag::Variable w2 = ag::Variable::Param(Tensor::Randn({3}, rng));
  ag::Variable loss =
      ag::Sum(ag::Add(ag::Mul(w1, w1), ag::Mul(w2.Detach(), w2.Detach())));
  loss.Backward();
  const check::AuditReport report =
      check::AuditGraph(loss, {{"w1", w1}, {"w2", w2}});
  EXPECT_EQ(report.count(check::IssueKind::kOrphanParam), 1);
  ASSERT_FALSE(report.issues.empty());
  EXPECT_EQ(report.issues[0].where, "w2");
}

TEST(GraphAuditTest, FrozenParamInOptimizerListIsOrphan) {
  Pcg32 rng(4);
  ag::Variable w = ag::Variable::Param(Tensor::Randn({3}, rng));
  ag::Variable frozen = ag::Variable::Param(Tensor::Randn({3}, rng));
  frozen.node()->requires_grad = false;
  ag::Variable loss = ag::Sum(ag::Add(ag::Mul(w, w), ag::Mul(frozen, frozen)));
  loss.Backward();
  const check::AuditReport report =
      check::AuditGraph(loss, {{"w", w}, {"frozen", frozen}});
  EXPECT_EQ(report.count(check::IssueKind::kOrphanParam), 1);
  EXPECT_EQ(report.params_frozen, 1);
}

TEST(GraphAuditTest, MissingGradOnReachableParam) {
  // A buggy backward closure that never pushes into one parent: w2 is
  // reachable and gradients landed elsewhere, but its buffer is empty.
  Pcg32 rng(5);
  ag::Variable w1 = ag::Variable::Param(Tensor::Randn({3}, rng));
  ag::Variable w2 = ag::Variable::Param(Tensor::Randn({3}, rng));
  ag::Variable loss = ag::Sum(ag::Add(ag::Mul(w1, w1), ag::Mul(w2, w2)));
  loss.Backward();
  w2.node()->grad = Tensor();  // as if AccumulateGrad never ran
  const check::AuditReport report =
      check::AuditGraph(loss, {{"w1", w1}, {"w2", w2}});
  EXPECT_EQ(report.count(check::IssueKind::kMissingGrad), 1)
      << report.ToString();
}

TEST(GraphAuditTest, ForwardOnlyAuditSkipsGradExpectations) {
  Pcg32 rng(6);
  ag::Variable w = ag::Variable::Param(Tensor::Randn({3}, rng));
  ag::Variable loss = ag::Sum(ag::Mul(w, w));
  // No Backward(). With expect_gradients=false this graph is healthy.
  check::AuditOptions options;
  options.expect_gradients = false;
  const check::AuditReport report =
      check::AuditGraph(loss, {{"w", w}}, options);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST(GraphAuditTest, StaleGradOnUnreachableParam) {
  Pcg32 rng(7);
  ag::Variable w1 = ag::Variable::Param(Tensor::Randn({3}, rng));
  ag::Variable w2 = ag::Variable::Param(Tensor::Randn({3}, rng));
  // w2 earns a gradient from an earlier step...
  ag::Variable old_loss = ag::Sum(ag::Mul(w2, w2));
  old_loss.Backward();
  // ...then the next step's graph detaches it, without a ZeroGrad.
  ag::Variable loss =
      ag::Sum(ag::Add(ag::Mul(w1, w1), ag::Mul(w2.Detach(), w2.Detach())));
  loss.Backward();
  const check::AuditReport report =
      check::AuditGraph(loss, {{"w1", w1}, {"w2", w2}});
  EXPECT_EQ(report.count(check::IssueKind::kOrphanParam), 1);
  EXPECT_EQ(report.count(check::IssueKind::kStaleGrad), 1);
}

TEST(GraphAuditTest, DoubleBackwardWithoutZeroGrad) {
  Pcg32 rng(8);
  ag::Variable w = ag::Variable::Param(Tensor::Randn({4}, rng));
  ag::Variable loss = ag::Sum(ag::Mul(w, w));
  loss.Backward();
  loss.Backward();
  const check::AuditReport report = check::AuditGraph(loss, {{"w", w}});
  EXPECT_GE(report.count(check::IssueKind::kDoubleAccumulation), 1)
      << report.ToString();
}

TEST(GraphAuditTest, CorruptGradShape) {
  Pcg32 rng(9);
  ag::Variable w = ag::Variable::Param(Tensor::Randn({4}, rng));
  ag::Variable loss = ag::Sum(ag::Mul(w, w));
  loss.Backward();
  w.node()->grad = Tensor(Shape{2, 2});
  const check::AuditReport report = check::AuditGraph(loss, {{"w", w}});
  EXPECT_GE(report.count(check::IssueKind::kShapeMismatch), 1);
}

TEST(GraphAuditTest, NonFiniteValueIsAttributedToOp) {
  ag::Variable x = ag::Variable::Param(Tensor::Full(Shape{3}, -1.0f));
  ag::Variable loss = ag::Sum(ag::Sqrt(x));  // sqrt(-1) = NaN
  loss.Backward();
  const check::AuditReport report = check::AuditGraph(loss, {{"x", x}});
  EXPECT_GE(report.count(check::IssueKind::kNonFinite), 1);
  bool sqrt_flagged = false;
  for (const check::AuditIssue& issue : report.issues) {
    if (issue.kind == check::IssueKind::kNonFinite && issue.where == "sqrt") {
      sqrt_flagged = true;
    }
  }
  EXPECT_TRUE(sqrt_flagged) << report.ToString();
}

TEST(GraphAuditTest, IssueStorageIsCappedButCountsAreNot) {
  Pcg32 rng(10);
  std::vector<nn::NamedParameter> params;
  ag::Variable w = ag::Variable::Param(Tensor::Randn({2}, rng));
  params.push_back({"w", w});
  std::vector<ag::Variable> detached;
  for (int i = 0; i < 5; ++i) {
    detached.push_back(ag::Variable::Param(Tensor::Randn({2}, rng)));
    params.push_back({"orphan" + std::to_string(i), detached.back()});
  }
  ag::Variable loss = ag::Sum(ag::Mul(w, w));
  loss.Backward();
  check::AuditOptions options;
  options.max_issues_per_kind = 2;
  const check::AuditReport report = check::AuditGraph(loss, params, options);
  EXPECT_EQ(report.count(check::IssueKind::kOrphanParam), 5);
  int64_t stored = 0;
  for (const check::AuditIssue& issue : report.issues) {
    if (issue.kind == check::IssueKind::kOrphanParam) ++stored;
  }
  EXPECT_EQ(stored, 2);
}

TEST(GraphAuditTest, PublishMetricsExportsFindingsAndNorms) {
  Pcg32 rng(11);
  ag::Variable w = ag::Variable::Param(Tensor::Randn({3}, rng));
  ag::Variable orphan = ag::Variable::Param(Tensor::Randn({3}, rng));
  ag::Variable loss = ag::Sum(ag::Mul(w, w));
  loss.Backward();
  const check::AuditReport report =
      check::AuditGraph(loss, {{"w", w}, {"orphan", orphan}});
  obs::MetricsRegistry registry;
  report.PublishMetrics(registry, "audit");
  EXPECT_EQ(registry.GetCounter("audit.findings.orphan_param").value(), 1);
  EXPECT_GT(registry.GetGauge("audit.grad_norm.mul").value(), 0.0);
  EXPECT_EQ(registry.GetGauge("audit.params").value(), 2.0);
}

// ---------------------------------------------------------------------------
// Model-zoo audits (the dar_check engine).

TEST(ModelAuditTest, AuditableMethodsCoverTheZoo) {
  const std::vector<std::string> methods = check::AuditableMethods();
  EXPECT_GE(methods.size(), 12u);
  EXPECT_NE(std::find(methods.begin(), methods.end(), "RNP"), methods.end());
  EXPECT_NE(std::find(methods.begin(), methods.end(), "DAR"), methods.end());
}

TEST(ModelAuditTest, RnpAuditsClean) {
  SentinelGuard guard;
  const check::MethodAuditResult result = check::AuditMethodByName("RNP");
  EXPECT_TRUE(result.ok) << result.report.ToString();
  EXPECT_GT(result.report.params_audited, 0);
  EXPECT_EQ(result.report.params_audited, result.report.params_reachable);
}

TEST(ModelAuditTest, DarAuditsClean) {
  SentinelGuard guard;
  const check::MethodAuditResult result = check::AuditMethodByName("DAR");
  EXPECT_TRUE(result.ok) << result.report.ToString();
  EXPECT_TRUE(result.sentinel_findings.empty());
}

TEST(ModelAuditTest, MutationSelfTestDetectsEveryDefectClass) {
  SentinelGuard guard;
  const std::vector<check::SelfTestResult> results =
      check::RunMutationSelfTest();
  EXPECT_GE(results.size(), 6u);
  for (const check::SelfTestResult& r : results) {
    EXPECT_TRUE(r.detected) << r.defect << ": " << r.detail;
  }
}

}  // namespace
}  // namespace dar

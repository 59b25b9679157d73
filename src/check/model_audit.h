// Model-zoo auditing: runs GraphAudit + the numerical sentinels over every
// architecture in the repository on a tiny synthetic config, and a mutation
// self-test that proves the auditor catches seeded defects. This is the
// engine behind the `dar_check` CLI (a static correctness gate for CI) and
// tests/check_test.cc.
#ifndef DAR_CHECK_MODEL_AUDIT_H_
#define DAR_CHECK_MODEL_AUDIT_H_

#include <string>
#include <vector>

#include "check/graph_audit.h"
#include "check/sentinel.h"

namespace dar {
namespace check {

/// Every architecture MakeMethod can build, in audit order: RNP, DAR and
/// its co-trained ablation, the baselines, and the sentence-level
/// protocols.
std::vector<std::string> AuditableMethods();

struct MethodAuditResult {
  std::string method;
  /// Tape audit of one TrainLoss forward/backward on a tiny batch.
  AuditReport report;
  /// Sentinel findings recorded during that forward/backward (NaN/Inf at
  /// op granularity); empty for a healthy model.
  std::vector<SentinelFinding> sentinel_findings;
  /// True when both the audit and the sentinels came back clean.
  bool ok = false;
};

/// Builds `method` on a tiny synthetic beer-review config, runs Prepare()
/// and one TrainLoss forward/backward under the recording sentinel, and
/// audits the tape against the parameters Fit() would hand the optimizer.
/// All of it runs with Tensor::Scratch poisoned (SetPoisonScratch), so a
/// kernel that leaves a scratch element unwritten shows up as a NaN
/// finding.
MethodAuditResult AuditMethodByName(const std::string& method,
                                    uint64_t seed = 7);

/// One seeded defect and whether the auditor caught it.
struct SelfTestResult {
  std::string defect;
  bool detected = false;
  std::string detail;
};

/// Mutation self-test: seeds one defect of every class the auditor claims
/// to catch — a detached parameter, a generator frozen while the optimizer
/// still holds its parameters, an injected NaN logit, a corrupted gradient
/// shape, a double Backward() without ZeroGrad, and a poisoned scratch
/// read — and verifies each is detected. The gate for "the auditor itself
/// works": dar_check --self-test fails CI if any defect goes unnoticed.
std::vector<SelfTestResult> RunMutationSelfTest();

}  // namespace check
}  // namespace dar

#endif  // DAR_CHECK_MODEL_AUDIT_H_

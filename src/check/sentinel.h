// Numerical-safety sentinels: mode-gated NaN/Inf traps at op granularity.
//
// The sentinel layer is the runtime half of src/check/: a process-wide
// debug mode that (a) scans every autograd op's forward output and every
// gradient flowing through Backward() for non-finite values, reporting the
// op name and summary statistics of the offending tensor, (b) optionally
// poisons scratch buffers (Tensor::Scratch) with NaN so kernels that fail
// to overwrite every element trip the trap downstream instead of silently
// reading zeros, and (c) mechanically enforces the tape-ownership half of
// the autograd thread-safety contract (autograd/variable.h): two threads
// running Backward() over graphs that share nodes, or racing
// Variable::AccumulateGrad into the same leaf, are detected instead of
// silently corrupting gradients.
//
// Cost model (bench/serve_throughput records the naive path's rate in
// each mode):
//
//   kOff    — the shipping default. Every hook is a single relaxed atomic
//             load and a predictable branch; no scan, no allocation.
//   kRecord — findings are appended to a process-wide list (and counted in
//             obs metrics) and execution continues. dar_check and the test
//             suite run in this mode so one pass reports every defect.
//   kTrap   — first finding aborts with a DAR_CHECK-style diagnostic.
//             For debugging sessions where a stack trace at the first bad
//             op is worth more than a complete report.
//
// This header sits below tensor/ in the dependency order (it sees raw
// float spans, never Tensor), so the tensor library itself can consult
// PoisonEnabled() without a cycle.
#ifndef DAR_CHECK_SENTINEL_H_
#define DAR_CHECK_SENTINEL_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace dar {
namespace check {

enum class SentinelMode : int { kOff = 0, kRecord = 1, kTrap = 2 };

void SetSentinelMode(SentinelMode mode);
SentinelMode GetSentinelMode();

/// Enables NaN-poisoning of Tensor::Scratch buffers. Independent of the
/// sentinel mode so poisoning can be combined with either report style;
/// poison without a sentinel mode still crashes loudly in kernels that
/// DAR_CHECK their outputs, it just loses the op-name attribution.
void SetPoisonScratch(bool enabled);

namespace internal {
extern std::atomic<int> g_sentinel_mode;
extern std::atomic<bool> g_poison_scratch;
}  // namespace internal

/// True when any sentinel mode is active. The fast path everything hot
/// gates on: one relaxed load, no fence.
inline bool SentinelEnabled() {
  return internal::g_sentinel_mode.load(std::memory_order_relaxed) !=
         static_cast<int>(SentinelMode::kOff);
}

/// True when Tensor::Scratch should poison its buffer.
inline bool PoisonEnabled() {
  return internal::g_poison_scratch.load(std::memory_order_relaxed);
}

/// Summary statistics of a scanned buffer, reported with every finding.
struct TensorStats {
  int64_t numel = 0;
  int64_t nan_count = 0;
  int64_t inf_count = 0;
  /// Min/max/mean over the finite elements only (0 when none are finite).
  float finite_min = 0.0f;
  float finite_max = 0.0f;
  float finite_mean = 0.0f;

  bool all_finite() const { return nan_count == 0 && inf_count == 0; }
  std::string ToString() const;
};

/// Single pass over `data`; O(n), no allocation.
TensorStats ComputeStats(const float* data, int64_t n);

/// One sentinel detection: which op, which tensor of that op ("value",
/// "grad", ...), and what the buffer looked like.
struct SentinelFinding {
  std::string op;
  std::string where;
  TensorStats stats;
  std::string ToString() const;
};

/// Scans `data` and, if any element is NaN/Inf, reports a finding
/// attributed to `op`/`where`: kRecord appends it (and increments the
/// `check.sentinel.nonfinite` counter on the global obs registry), kTrap
/// aborts with the rendered finding. Returns true when the buffer is
/// clean. Callers gate on SentinelEnabled() so the scan never runs in
/// kOff.
bool ScanForNonFinite(const char* op, const char* where, const float* data,
                      int64_t n);

/// Takes (and clears) the findings recorded since the last drain.
/// Thread-safe.
std::vector<SentinelFinding> DrainSentinelFindings();

/// Number of findings currently recorded (not yet drained).
size_t SentinelFindingCount();

// ---- Tape-ownership assertions ---------------------------------------------
//
// The autograd contract: concurrent Backward() calls must not share graph
// nodes, and concurrent AccumulateGrad calls must not target the same
// leaf. When the sentinel is on, Backward() claims every node it is about
// to visit with ClaimTapeNode and releases it afterwards; a claim that
// finds a foreign owner is a contract violation. Tokens are per-thread,
// nonzero, and stable for the thread's lifetime.

/// This thread's nonzero ownership token.
uint32_t TapeOwnerToken();

/// Reports a tape-ownership violation on `what` (kRecord: recorded as a
/// finding with op = "tape", kTrap: aborts).
void ReportTapeViolation(const char* what);

// ---- Lock-rank violations --------------------------------------------------
//
// The sync layer's lock-rank checker (sync/mutex.h) detects
// acquisition-order inversions; this hook routes them through the same
// machinery as every other sentinel: an obs counter, a recorded finding
// with op = "lockrank" in kRecord mode (how dar_check --self-test proves
// the detector works), and otherwise the trap path that dumps the flight
// recorder before aborting — a deadlock-in-waiting names the requests in
// flight when the order went wrong.

/// Installs the sentinel-backed sync::RankViolationHandler (idempotent).
/// Does NOT enable checking — call sync::SetLockRankCheck(true) too.
void InstallLockRankHandler();

}  // namespace check
}  // namespace dar

#endif  // DAR_CHECK_SENTINEL_H_

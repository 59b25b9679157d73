// Annotated synchronization layer: the only home of std::mutex outside
// this directory (CI grep-enforces that no `std::mutex` /
// `std::condition_variable` is declared anywhere else under src/).
//
// Three things live here, layered on one wrapper:
//
//   1. Static annotations. sync::Mutex is a Clang TSA capability and
//      sync::MutexLock a scoped one, so `DAR_GUARDED_BY(mu_)` fields and
//      `DAR_REQUIRES(mu_)` helpers are proved locked at compile time
//      under -Wthread-safety (see annotations.h; no-op on GCC).
//
//   2. Lock-rank deadlock detection (mode-gated, default off). Every
//      mutex carries a static Rank; with SetLockRankCheck(true) each
//      thread keeps a held-locks stack and a blocking acquisition whose
//      rank is not strictly greater than every held rank routes a
//      RankViolation through the installed handler (default: print +
//      abort; check/sentinel.h installs one that records a finding in
//      kRecord mode and dumps the flight recorder before aborting
//      otherwise). Equal ranks abort too — that is what catches
//      self-deadlock and same-rank cycles. The documented global order:
//
//        rank  10 kRegistry     serve.registry, net.router
//              20 kCacheTable   serve.cache_models (ServeCache model map)
//              25 kCacheTier    serve.cache_tier (ServeCache entries + LRU)
//              30 kBatcher      serve.batcher, serve.thread_pool
//              40 kStats        (self-test and bench probe locks only)
//              50 kObsRegistry  obs.metrics_registry
//              60 kObsDetail    obs.exemplars, obs.trace_collector,
//                               obs.tail_sampler, obs.sync_publish
//              80 kHelper       nn.bigru_helper (never holds another lock)
//              90 kLeaf         check.findings (never holds another lock)
//              95 kTensorStorage tensor.storage (never holds another lock;
//                               any code may allocate a tensor under any
//                               other lock)
//
//      i.e. registry < cache < batcher < stats < obs < helper < leaf <
//      tensor storage. New code picks the band of the subsystem it lives
//      in; a lock that must nest inside an existing band gets a fresh
//      intermediate rank and a row in this table (DESIGN.md §12 is the
//      canonical copy).
//
//   3. Contention observability (always on). Lock() first tries the
//      lock; only when that try_lock fails does it time its wait and
//      charge a per-*name* cumulative counter set (contended acquisitions
//      + wait-time histogram in the shared 1-2-5 microsecond bucket
//      layout). obs/sync_metrics.h publishes the counts to a
//      MetricsRegistry as `sync_contention_total{mutex=...}` /
//      `sync_wait_us{mutex=...}`, which /metrics exposes. Same-named
//      mutexes (e.g. every model endpoint's batcher queue) share one counter
//      set by design.
//
// Cost model: with the rank gate off, an uncontended Lock() is one relaxed
// atomic load, a predictable branch and the std::mutex try_lock, and
// Unlock() the load, the branch and the unlock; a contended Lock() adds
// two steady_clock reads and a handful of relaxed atomic adds to a wait
// that is already a futex sleep. bench/serve_throughput times an
// uncontended Lock/Unlock pair plain and rank-checked.
//
// This header is dependency-free (C++ standard library only): sync sits
// below obs/ in the link order, and obs's own mutexes are sync::Mutex too.
#ifndef DAR_SYNC_MUTEX_H_
#define DAR_SYNC_MUTEX_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sync/annotations.h"

namespace dar {
namespace sync {

/// Static acquisition ranks. A thread may only block on a mutex whose rank
/// is STRICTLY greater than every rank it already holds; see the table in
/// the file comment. Values leave gaps for future intermediate bands.
enum class Rank : int {
  kRegistry = 10,     // serve::ModelRegistry, net::Router endpoint map
  kCacheTable = 20,   // serve::ServeCache model table
  kCacheTier = 25,    // serve::ServeCache entries, LRU list and budget
  kBatcher = 30,      // serve::MicroBatcher, serve::ThreadPool
  kStats = 40,        // self-test and bench probe locks only
  kObsRegistry = 50,  // obs::MetricsRegistry instrument map
  kObsDetail = 60,    // obs exemplars / trace collectors / tail sampler
  kHelper = 80,       // nn::BiGruSequence's helper-thread handoff
  kLeaf = 90,         // check:: findings list — never holds another lock
  kTensorStorage = 95,  // tensor/storage.h's mapping caches — innermost
};

/// One detected acquisition-order inversion: the thread held
/// `held_name` (the highest-ranked lock it holds) and blocked on
/// `acquiring_name` whose rank is not strictly greater.
struct RankViolation {
  const char* held_name;
  int held_rank;
  const char* acquiring_name;
  int acquiring_rank;
};

/// Handler invoked on a rank violation, on the acquiring thread, before
/// the lock is taken. Returning (instead of aborting) lets the
/// acquisition proceed — the kRecord self-test path. Rank checks are
/// suppressed on this thread while the handler runs, so the handler may
/// itself take (leaf) locks.
using RankViolationHandler = void (*)(const RankViolation&);

/// Installs `handler` and returns the previous one. nullptr restores the
/// default handler (render to stderr + abort).
RankViolationHandler SetRankViolationHandler(RankViolationHandler handler);

/// The rank gate. Defaults to off; one relaxed atomic load on the Lock()
/// fast path. Toggle at quiesced points — enabling rank checks while locks
/// are already held leaves those holds untracked until released.
void SetLockRankCheck(bool enabled);

namespace internal {
extern std::atomic<bool> g_rank_check;
struct ContentionCounters;  // per-name cumulative stats (mutex.cc)
ContentionCounters* CountersForName(const char* name);
}  // namespace internal

inline bool LockRankCheckEnabled() {
  return internal::g_rank_check.load(std::memory_order_relaxed);
}

/// Number of sync::Mutexes the calling thread currently holds, as seen by
/// the rank tracker (0 when rank checking is off). Test hook.
size_t HeldLockCount();

/// Cumulative contention stats for one mutex name (all counters since
/// process start).
struct MutexContentionStats {
  std::string name;
  uint64_t contention_total = 0;  // blocking acquisitions that waited
  uint64_t wait_us_sum = 0;
  uint64_t wait_us_max = 0;
  /// ContentionBucketBoundsUs().size() + 1 entries (last = overflow),
  /// same layout as obs::DurationBucketsUs().
  std::vector<uint64_t> bucket_counts;
};

/// Snapshot of every name ever registered, in name order.
std::vector<MutexContentionStats> ContentionSnapshot();

/// The wait-histogram bucket edges: the 1-2-5 series from 1us to 1e7us,
/// value-identical to obs::DurationBucketsUs() (sync cannot include obs;
/// tests assert the two stay equal).
const std::vector<double>& ContentionBucketBoundsUs();

/// Annotated, ranked, named mutex. Non-recursive. Name must be a string
/// literal (stored by pointer, keys the contention counter set).
class DAR_CAPABILITY("mutex") Mutex {
 public:
  Mutex(Rank rank, const char* name)
      : rank_(static_cast<int>(rank)),
        name_(name),
        counters_(internal::CountersForName(name)) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() DAR_ACQUIRE() {
    if (LockRankCheckEnabled()) {
      RankCheckedLock();
      return;
    }
    if (!mu_.try_lock()) ContendedLock();
  }

  void Unlock() DAR_RELEASE() {
    if (LockRankCheckEnabled()) SlowUnlockTracking();
    mu_.unlock();
  }

  /// Non-blocking, so it cannot deadlock: no rank check, but a successful
  /// try is pushed on the held stack so later blocking acquisitions are
  /// checked against it.
  bool TryLock() DAR_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    if (LockRankCheckEnabled()) PushAfterTryLock();
    return true;
  }

  int rank() const { return rank_; }
  const char* name() const { return name_; }

  /// The underlying handle, for sync::CondVar only.
  std::mutex& native() { return mu_; }

 private:
  void RankCheckedLock();      // rank check, then Lock()'s body
  void ContendedLock();        // timed blocking lock after a failed try
  void SlowUnlockTracking();   // pops the held-stack entry
  void PushAfterTryLock();

  std::mutex mu_;
  const int rank_;
  const char* const name_;
  internal::ContentionCounters* const counters_;
};

/// RAII scoped lock, the only idiom the migrated call sites use:
///
///   sync::MutexLock lock(mu_);
class DAR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DAR_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() DAR_RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to sync::Mutex. No predicate overloads on
/// purpose: Clang TSA cannot annotate lambdas, so callers write the
/// explicit `while (!pred) cv.Wait(mu);` loop and the analysis sees the
/// guarded reads inside it.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks; reacquires before returning.
  /// The held-lock stack is untouched — the thread still logically holds
  /// `mu` across the wait, and the reacquisition is exempt from rank
  /// checks (waiting re-takes a lock the thread already ordered
  /// correctly).
  void Wait(Mutex& mu) DAR_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace sync
}  // namespace dar

#endif  // DAR_SYNC_MUTEX_H_

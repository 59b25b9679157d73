#include "sync/mutex.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>

namespace dar {
namespace sync {

namespace internal {

std::atomic<bool> g_rank_check{false};

namespace {
/// Wait-histogram edges: the 1-2-5 series from 1us to 1e7us. Must stay
/// value-identical to obs::DurationBucketsUs() (sync sits below obs and
/// cannot include it); tests/sync_test.cc asserts the equality.
constexpr double kBucketEdgesUs[] = {1,    2,    5,    10,   20,   50,
                                     100,  200,  500,  1000, 2000, 5000,
                                     1e4,  2e4,  5e4,  1e5,  2e5,  5e5,
                                     1e6,  2e6,  5e6,  1e7};
constexpr size_t kNumEdges = sizeof(kBucketEdgesUs) / sizeof(double);
constexpr size_t kNumBuckets = kNumEdges + 1;  // + overflow
}  // namespace

/// Cumulative contention counters shared by every mutex with one name.
/// Write path is relaxed atomics only; entries are leaked (mutexes may be
/// locked during static destruction).
struct ContentionCounters {
  std::atomic<uint64_t> contention_total{0};
  std::atomic<uint64_t> wait_us_sum{0};
  std::atomic<uint64_t> wait_us_max{0};
  std::atomic<uint64_t> buckets[kNumBuckets] = {};

  void Record(uint64_t waited_us) {
    contention_total.fetch_add(1, std::memory_order_relaxed);
    wait_us_sum.fetch_add(waited_us, std::memory_order_relaxed);
    uint64_t seen = wait_us_max.load(std::memory_order_relaxed);
    while (waited_us > seen &&
           !wait_us_max.compare_exchange_weak(seen, waited_us,
                                              std::memory_order_relaxed)) {
    }
    size_t idx = kNumEdges;  // overflow unless an edge covers it
    for (size_t i = 0; i < kNumEdges; ++i) {
      if (static_cast<double>(waited_us) <= kBucketEdgesUs[i]) {
        idx = i;
        break;
      }
    }
    buckets[idx].fetch_add(1, std::memory_order_relaxed);
  }
};

namespace {

/// Name → counters. The map itself is guarded by a plain std::mutex —
/// permitted here (src/sync is the one place the CI grep exempts) and
/// deliberately not a sync::Mutex: it is touched only at Mutex
/// construction, never on a Lock() path, and keeping it primitive means
/// the rank machinery has no lock of its own to order.
std::mutex& NameRegistryMutex() {
  static std::mutex& mu = *new std::mutex;
  return mu;
}

std::map<std::string, ContentionCounters*>& NameRegistry() {
  static auto& m = *new std::map<std::string, ContentionCounters*>;
  return m;
}

// ---- Per-thread held-lock stack --------------------------------------------

constexpr int kMaxHeldLocks = 16;

struct HeldLock {
  const void* mu = nullptr;
  int rank = 0;
  const char* name = nullptr;
};

struct HeldStack {
  HeldLock entries[kMaxHeldLocks];
  int depth = 0;
  /// True while the violation handler runs on this thread: suppresses
  /// recursive rank checks so the handler may take leaf locks (the
  /// sentinel findings list) without re-triggering itself.
  bool in_violation = false;
};

thread_local HeldStack t_held;

[[noreturn]] void DefaultRankViolationHandler(const RankViolation& v) {
  std::fprintf(stderr,
               "DAR lock-rank violation: acquiring '%s' (rank %d) while "
               "holding '%s' (rank %d) — acquisition order must strictly "
               "increase in rank (see src/sync/mutex.h)\n",
               v.acquiring_name, v.acquiring_rank, v.held_name, v.held_rank);
  std::fflush(stderr);
  std::abort();
}

std::atomic<RankViolationHandler> g_violation_handler{
    &DefaultRankViolationHandler};

void CheckRankBeforeBlocking(int rank, const char* name) {
  HeldStack& held = t_held;
  if (held.in_violation || held.depth == 0) return;
  int max_rank = held.entries[0].rank;
  int max_idx = 0;
  for (int i = 1; i < held.depth; ++i) {
    if (held.entries[i].rank >= max_rank) {
      max_rank = held.entries[i].rank;
      max_idx = i;
    }
  }
  if (rank > max_rank) return;
  const RankViolation violation{held.entries[max_idx].name, max_rank, name,
                                rank};
  held.in_violation = true;
  RankViolationHandler handler =
      g_violation_handler.load(std::memory_order_acquire);
  handler(violation);
  held.in_violation = false;
}

void PushHeld(const void* mu, int rank, const char* name) {
  HeldStack& held = t_held;
  if (held.depth >= kMaxHeldLocks) return;  // beyond tracking depth: drop
  held.entries[held.depth++] = HeldLock{mu, rank, name};
}

void PopHeld(const void* mu) {
  HeldStack& held = t_held;
  // Scan from the top: releases are usually LIFO but need not be. A miss
  // (lock acquired before the gate was enabled) is a no-op.
  for (int i = held.depth - 1; i >= 0; --i) {
    if (held.entries[i].mu != mu) continue;
    for (int j = i; j + 1 < held.depth; ++j) {
      held.entries[j] = held.entries[j + 1];
    }
    --held.depth;
    return;
  }
}

}  // namespace

ContentionCounters* CountersForName(const char* name) {
  std::lock_guard<std::mutex> lock(NameRegistryMutex());
  ContentionCounters*& slot = NameRegistry()[name];
  if (slot == nullptr) slot = new ContentionCounters;
  return slot;
}

}  // namespace internal

RankViolationHandler SetRankViolationHandler(RankViolationHandler handler) {
  if (handler == nullptr) handler = &internal::DefaultRankViolationHandler;
  return internal::g_violation_handler.exchange(handler,
                                                std::memory_order_acq_rel);
}

void SetLockRankCheck(bool enabled) {
  internal::g_rank_check.store(enabled, std::memory_order_relaxed);
}

size_t HeldLockCount() {
  return static_cast<size_t>(internal::t_held.depth);
}

std::vector<MutexContentionStats> ContentionSnapshot() {
  std::vector<MutexContentionStats> out;
  std::lock_guard<std::mutex> lock(internal::NameRegistryMutex());
  for (const auto& [name, counters] : internal::NameRegistry()) {
    MutexContentionStats stats;
    stats.name = name;
    stats.contention_total =
        counters->contention_total.load(std::memory_order_relaxed);
    stats.wait_us_sum = counters->wait_us_sum.load(std::memory_order_relaxed);
    stats.wait_us_max = counters->wait_us_max.load(std::memory_order_relaxed);
    stats.bucket_counts.resize(internal::kNumBuckets);
    for (size_t i = 0; i < internal::kNumBuckets; ++i) {
      stats.bucket_counts[i] =
          counters->buckets[i].load(std::memory_order_relaxed);
    }
    out.push_back(std::move(stats));
  }
  return out;
}

const std::vector<double>& ContentionBucketBoundsUs() {
  static const std::vector<double>& bounds = *new std::vector<double>(
      internal::kBucketEdgesUs,
      internal::kBucketEdgesUs + internal::kNumEdges);
  return bounds;
}

void Mutex::RankCheckedLock() {
  internal::CheckRankBeforeBlocking(rank_, name_);
  if (!mu_.try_lock()) ContendedLock();
  internal::PushHeld(this, rank_, name_);
}

void Mutex::ContendedLock() {
  const auto wait_start = std::chrono::steady_clock::now();
  mu_.lock();
  const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - wait_start)
                          .count();
  counters_->Record(static_cast<uint64_t>(waited < 0 ? 0 : waited));
}

void Mutex::SlowUnlockTracking() { internal::PopHeld(this); }

void Mutex::PushAfterTryLock() { internal::PushHeld(this, rank_, name_); }

}  // namespace sync
}  // namespace dar

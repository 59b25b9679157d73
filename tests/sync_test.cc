// Tests for the annotated sync layer: lock-rank deadlock detection,
// held-lock tracking, contention counters, and the obs bridge that
// publishes them. The static half of the wall (Clang TSA) is exercised by
// CI's thread-safety lane, not here — this file covers the runtime half.
#include "sync/mutex.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/sentinel.h"
#include "obs/metrics.h"
#include "obs/sync_metrics.h"

namespace dar {
namespace sync {
namespace {

/// Restores the rank gate and the violation handler on scope exit, so
/// tests cannot leak mode into each other.
class ScopedSyncModes {
 public:
  ScopedSyncModes() = default;
  ~ScopedSyncModes() {
    SetLockRankCheck(false);
    SetRankViolationHandler(nullptr);
  }
};

/// Captures the last violation routed through the test handler (function
/// pointers cannot capture, so the mailbox is file-static).
RankViolation g_last_violation{nullptr, 0, nullptr, 0};
std::atomic<int> g_violation_count{0};

void RecordingHandler(const RankViolation& violation) {
  g_last_violation = violation;
  g_violation_count.fetch_add(1);
}

TEST(SyncMutexTest, LockUnlockAndTryLockOffMode) {
  Mutex mu(Rank::kLeaf, "test.basic");
  mu.Lock();
  EXPECT_FALSE(mu.TryLock());  // non-recursive
  mu.Unlock();
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
  EXPECT_EQ(mu.rank(), static_cast<int>(Rank::kLeaf));
  EXPECT_STREQ(mu.name(), "test.basic");
}

TEST(SyncMutexTest, HeldLockCountTracksScopesAndUnwinds) {
  ScopedSyncModes restore;
  SetLockRankCheck(true);
  EXPECT_EQ(HeldLockCount(), 0u);
  Mutex low(Rank::kRegistry, "test.low");
  Mutex mid(Rank::kBatcher, "test.mid");
  Mutex high(Rank::kLeaf, "test.high");
  {
    MutexLock l1(low);
    EXPECT_EQ(HeldLockCount(), 1u);
    {
      MutexLock l2(mid);
      EXPECT_EQ(HeldLockCount(), 2u);
      // TryLock skips the rank check but still joins the held stack.
      ASSERT_TRUE(high.TryLock());
      EXPECT_EQ(HeldLockCount(), 3u);
      high.Unlock();
      EXPECT_EQ(HeldLockCount(), 2u);
    }
    EXPECT_EQ(HeldLockCount(), 1u);
  }
  EXPECT_EQ(HeldLockCount(), 0u);
}

TEST(SyncMutexTest, AscendingRanksAreClean) {
  ScopedSyncModes restore;
  SetRankViolationHandler(&RecordingHandler);
  g_violation_count.store(0);
  SetLockRankCheck(true);
  Mutex registry(Rank::kRegistry, "test.registry");
  Mutex stats(Rank::kStats, "test.stats");
  Mutex leaf(Rank::kLeaf, "test.leaf");
  {
    MutexLock l1(registry);
    MutexLock l2(stats);
    MutexLock l3(leaf);
  }
  EXPECT_EQ(g_violation_count.load(), 0);
}

TEST(SyncMutexTest, RankInversionRoutesThroughHandler) {
  ScopedSyncModes restore;
  SetRankViolationHandler(&RecordingHandler);
  g_violation_count.store(0);
  SetLockRankCheck(true);
  Mutex high(Rank::kStats, "test.held_high");
  Mutex low(Rank::kRegistry, "test.acquired_low");
  {
    MutexLock hold(high);
    MutexLock inversion(low);  // rank decreases: the violation
  }
  ASSERT_EQ(g_violation_count.load(), 1);
  EXPECT_STREQ(g_last_violation.held_name, "test.held_high");
  EXPECT_EQ(g_last_violation.held_rank, static_cast<int>(Rank::kStats));
  EXPECT_STREQ(g_last_violation.acquiring_name, "test.acquired_low");
  EXPECT_EQ(g_last_violation.acquiring_rank,
            static_cast<int>(Rank::kRegistry));
}

TEST(SyncMutexTest, EqualRankAlsoViolates) {
  // Equal ranks are the self-deadlock / same-rank-cycle class; the checker
  // demands strictly increasing ranks.
  ScopedSyncModes restore;
  SetRankViolationHandler(&RecordingHandler);
  g_violation_count.store(0);
  SetLockRankCheck(true);
  Mutex a(Rank::kCacheTier, "test.same_rank");
  Mutex b(Rank::kCacheTier, "test.same_rank");
  {
    MutexLock hold(a);
    MutexLock nested(b);
  }
  EXPECT_EQ(g_violation_count.load(), 1);
}

TEST(SyncMutexDeathTest, DefaultHandlerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SetLockRankCheck(true);
        Mutex high(Rank::kStats, "death.high");
        Mutex low(Rank::kRegistry, "death.low");
        MutexLock hold(high);
        MutexLock inversion(low);
      },
      "lock-rank violation");
}

TEST(SyncMutexTest, SentinelRecordModeFilesLockrankFinding) {
  // The wiring the dar_check self-test relies on: sentinel handler
  // installed, kRecord mode, inversion -> finding instead of abort.
  ScopedSyncModes restore;
  check::DrainSentinelFindings();
  const check::SentinelMode previous_mode = check::GetSentinelMode();
  check::SetSentinelMode(check::SentinelMode::kRecord);
  check::InstallLockRankHandler();
  SetLockRankCheck(true);
  Mutex high(Rank::kStats, "test.sentinel_high");
  Mutex low(Rank::kRegistry, "test.sentinel_low");
  {
    MutexLock hold(high);
    MutexLock inversion(low);
  }
  SetLockRankCheck(false);
  check::SetSentinelMode(previous_mode);
  bool found = false;
  for (const check::SentinelFinding& finding :
       check::DrainSentinelFindings()) {
    if (finding.op == "lockrank") {
      found = true;
      EXPECT_NE(finding.where.find("test.sentinel_low"), std::string::npos);
      EXPECT_NE(finding.where.find("test.sentinel_high"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

TEST(SyncMutexTest, CondVarWaitKeepsHeldStackCoherent) {
  ScopedSyncModes restore;
  SetLockRankCheck(true);
  Mutex mu(Rank::kBatcher, "test.cv");
  CondVar cv;
  bool ready = false;  // guarded by mu
  std::thread signaler([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    // The wait released and re-took mu without disturbing the tracker.
    EXPECT_EQ(HeldLockCount(), 1u);
  }
  signaler.join();
  EXPECT_EQ(HeldLockCount(), 0u);
}

TEST(SyncContentionTest, BucketLayoutMatchesObsDurationBuckets) {
  EXPECT_EQ(ContentionBucketBoundsUs(), obs::DurationBucketsUs());
}

/// Cumulative contended-acquisition count recorded for a mutex name, 0 if
/// the name has never collided.
uint64_t ContentionTotalFor(const std::string& name) {
  for (const MutexContentionStats& stats : ContentionSnapshot()) {
    if (stats.name == name) return stats.contention_total;
  }
  return 0;
}

/// Deterministically records at least one contention event on `mu`: hold
/// the lock while a second thread attempts it, and retry until the
/// snapshot shows the collision. A fixed sleep is not enough on an
/// oversubscribed host — the blocked thread may not get scheduled inside
/// any particular window — so loop on the observable effect instead of on
/// time.
void ForceOneContentionEvent(Mutex& mu) {
  const uint64_t before = ContentionTotalFor(mu.name());
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::atomic<bool> about_to_lock{false};
    std::thread blocked_thread;
    {
      MutexLock lock(mu);
      blocked_thread = std::thread([&] {
        about_to_lock.store(true, std::memory_order_release);
        MutexLock blocked(mu);
      });
      while (!about_to_lock.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      // The thread is between its flag store and the try_lock; give it a
      // beat to fail the try_lock and fall into the blocking (counted) path.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    blocked_thread.join();
    if (ContentionTotalFor(mu.name()) > before) return;
  }
}

TEST(SyncContentionTest, ContendedLockCountedWithNoSetup) {
  // No gate to arm: a Lock() that finds the mutex held is counted.
  Mutex mu(Rank::kStats, "test.no_setup");
  ForceOneContentionEvent(mu);
  EXPECT_GE(ContentionTotalFor("test.no_setup"), 1u);
  // An uncontended Lock() counts nothing.
  const uint64_t before = ContentionTotalFor("test.no_setup");
  for (int i = 0; i < 100; ++i) {
    MutexLock lock(mu);
  }
  EXPECT_EQ(ContentionTotalFor("test.no_setup"), before);
}

TEST(SyncContentionTest, HammerRecordsContention) {
  Mutex mu(Rank::kStats, "test.hammer");
  constexpr int kThreads = 8;
  constexpr int kIterations = 200;
  constexpr int kHeldWork = 512;
  std::atomic<int64_t> shared{0};
  int rounds = 0;
  // On an oversubscribed host a whole hammer round can run serialized —
  // each thread burns its quota inside one timeslice and nothing ever
  // collides — so retry the round until the snapshot shows contention.
  for (int attempt = 0; attempt < 3 && ContentionTotalFor("test.hammer") == 0;
       ++attempt) {
    ++rounds;
    // Start barrier: without it the staggered thread spawns can let early
    // threads finish their whole quota before late ones begin, and the
    // "hammer" never actually collides.
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (int i = 0; i < kIterations; ++i) {
          MutexLock lock(mu);
          // Enough held time that try_lock collisions are certain across
          // 8 simultaneous threads.
          for (int spin = 0; spin < kHeldWork; ++spin) {
            shared.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    while (ready.load() < kThreads) std::this_thread::yield();
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) thread.join();
  }
  // Last-resort determinism: a held-lock/blocked-thread pair that loops on
  // the observable count, so the invariant checks below always have at
  // least one event to look at.
  if (ContentionTotalFor("test.hammer") == 0) ForceOneContentionEvent(mu);
  EXPECT_EQ(shared.load(),
            int64_t{rounds} * kThreads * kIterations * kHeldWork);

  bool found = false;
  for (const MutexContentionStats& stats : ContentionSnapshot()) {
    if (stats.name != "test.hammer") continue;
    found = true;
    // Fatal, not EXPECT: the mean below divides by this count.
    ASSERT_GT(stats.contention_total, 0u);
    ASSERT_EQ(stats.bucket_counts.size(),
              ContentionBucketBoundsUs().size() + 1);
    uint64_t bucket_sum = 0;
    for (uint64_t c : stats.bucket_counts) bucket_sum += c;
    // Every contended wait lands in exactly one bucket.
    EXPECT_EQ(bucket_sum, stats.contention_total);
    EXPECT_GE(stats.wait_us_max, stats.wait_us_sum / stats.contention_total);
  }
  EXPECT_TRUE(found);
}

TEST(SyncContentionTest, PublishDeltasAreIdempotent) {
  // Force at least one counted contention event so the published series
  // exist with a known-positive value.
  {
    Mutex mu(Rank::kStats, "test.publish");
    ForceOneContentionEvent(mu);
    ASSERT_GE(ContentionTotalFor("test.publish"), 1u);
  }

  obs::MetricsRegistry registry;
  obs::PublishSyncContentionMetrics(registry);
  obs::Counter& total = registry.GetCounter(
      obs::LabeledName("sync.contention_total", {{"mutex", "test.publish"}}));
  const int64_t first = total.value();
  EXPECT_GE(first, 1);

  // No contention happened in between: a second publish must be a no-op,
  // not a re-count of the cumulative total.
  obs::PublishSyncContentionMetrics(registry);
  EXPECT_EQ(total.value(), first);

  obs::Histogram& wait = registry.GetHistogram(
      obs::LabeledName("sync.wait_us", {{"mutex", "test.publish"}}),
      ContentionBucketBoundsUs());
  EXPECT_EQ(wait.count(), first);

  // The exposition carries both series under the mutex label.
  const std::string text = registry.ExportPrometheus();
  EXPECT_NE(text.find("sync_contention_total{mutex=\"test.publish\"}"),
            std::string::npos);
  EXPECT_NE(text.find("sync_wait_us_count{mutex=\"test.publish\"}"),
            std::string::npos);
}

TEST(SyncContentionTest, EachRegistryReportsTheCumulativeCount) {
  // Two registries in one process (two routers, say) each publish the
  // process total, however their scrapes interleave.
  const std::vector<std::pair<std::string, std::string>> labels = {
      {"mutex", "test.two_registries"}};
  auto total_in = [&](obs::MetricsRegistry& registry) {
    return registry
        .GetCounter(obs::LabeledName("sync.contention_total", labels))
        .value();
  };
  auto waits_in = [&](obs::MetricsRegistry& registry) {
    return registry
        .GetHistogram(obs::LabeledName("sync.wait_us", labels),
                      ContentionBucketBoundsUs())
        .count();
  };
  Mutex mu(Rank::kStats, "test.two_registries");
  ForceOneContentionEvent(mu);
  obs::MetricsRegistry a;
  obs::PublishSyncContentionMetrics(a);
  EXPECT_EQ(total_in(a),
            static_cast<int64_t>(ContentionTotalFor("test.two_registries")));

  ForceOneContentionEvent(mu);
  const int64_t cumulative =
      static_cast<int64_t>(ContentionTotalFor("test.two_registries"));
  ASSERT_GE(cumulative, 2);
  obs::MetricsRegistry b;
  obs::PublishSyncContentionMetrics(b);
  obs::PublishSyncContentionMetrics(a);
  EXPECT_EQ(total_in(b), cumulative);
  EXPECT_EQ(total_in(a), cumulative);
  EXPECT_EQ(waits_in(b), cumulative);
  EXPECT_EQ(waits_in(a), cumulative);
}

}  // namespace
}  // namespace sync
}  // namespace dar

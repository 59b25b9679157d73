// Tests for tensor/tensor.h.
#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "check/sentinel.h"
#include "tensor/random.h"
#include "tensor/storage.h"

namespace dar {
namespace {

TEST(ShapeTest, NumElements) {
  EXPECT_EQ(NumElements({}), 1);
  EXPECT_EQ(NumElements({3}), 3);
  EXPECT_EQ(NumElements({2, 3}), 6);
  EXPECT_EQ(NumElements({2, 3, 4}), 24);
  EXPECT_EQ(NumElements({2, 0, 4}), 0);
}

TEST(ShapeTest, ToString) {
  EXPECT_EQ(ShapeToString({}), "[]");
  EXPECT_EQ(ShapeToString({2, 3}), "[2, 3]");
}

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.numel(), 0);
  EXPECT_TRUE(t.empty());
}

TEST(TensorTest, ZerosInitialized) {
  Tensor t(Shape{2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(t.flat(i), 0.0f);
}

TEST(TensorTest, FullValue) {
  Tensor t = Tensor::Full({2, 2}, 3.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t.flat(i), 3.5f);
}

TEST(TensorTest, FromVector) {
  Tensor t = Tensor::FromVector({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(t.dim(), 1);
  EXPECT_EQ(t.at(1), 2.0f);
}

TEST(TensorTest, ScalarItem) {
  Tensor t = Tensor::Scalar(7.0f);
  EXPECT_EQ(t.dim(), 0);
  EXPECT_EQ(t.item(), 7.0f);
}

TEST(TensorTest, RowMajorLayout2D) {
  Tensor t(Shape{2, 3});
  t.at(1, 2) = 5.0f;
  EXPECT_EQ(t.flat(1 * 3 + 2), 5.0f);
}

TEST(TensorTest, RowMajorLayout3D) {
  Tensor t(Shape{2, 3, 4});
  t.at(1, 2, 3) = 9.0f;
  EXPECT_EQ(t.flat((1 * 3 + 2) * 4 + 3), 9.0f);
}

TEST(TensorTest, SizeNegativeAxis) {
  Tensor t(Shape{2, 3, 4});
  EXPECT_EQ(t.size(-1), 4);
  EXPECT_EQ(t.size(-3), 2);
}

TEST(TensorTest, Reshape) {
  Tensor t = Tensor::Arange(6);
  Tensor r = t.Reshape({2, 3});
  EXPECT_EQ(r.at(1, 0), 3.0f);
  // Reshape copies: mutation does not alias.
  r.at(0, 0) = 99.0f;
  EXPECT_EQ(t.at(0), 0.0f);
}

TEST(TensorTest, FillAndZero) {
  Tensor t(Shape{4});
  t.Fill(2.0f);
  EXPECT_EQ(t.at(3), 2.0f);
  t.Zero();
  EXPECT_EQ(t.at(3), 0.0f);
}

TEST(TensorTest, AllClose) {
  Tensor a = Tensor::FromVector({1.0f, 2.0f});
  Tensor b = Tensor::FromVector({1.0f, 2.0f + 1e-7f});
  Tensor c = Tensor::FromVector({1.0f, 2.1f});
  EXPECT_TRUE(a.AllClose(b));
  EXPECT_FALSE(a.AllClose(c));
  EXPECT_FALSE(a.AllClose(Tensor(Shape{3})));
}

TEST(TensorTest, Eye) {
  Tensor e = Tensor::Eye(3);
  EXPECT_EQ(e.at(0, 0), 1.0f);
  EXPECT_EQ(e.at(0, 1), 0.0f);
  EXPECT_EQ(e.at(2, 2), 1.0f);
}

TEST(TensorTest, Arange) {
  Tensor t = Tensor::Arange(4, 1.0f, 0.5f);
  EXPECT_EQ(t.at(0), 1.0f);
  EXPECT_EQ(t.at(3), 2.5f);
}

TEST(TensorTest, RandnShapeAndSpread) {
  Pcg32 rng(1);
  Tensor t = Tensor::Randn({1000}, rng, 2.0f);
  double mean = 0.0, var = 0.0;
  for (int64_t i = 0; i < 1000; ++i) mean += t.at(i);
  mean /= 1000.0;
  for (int64_t i = 0; i < 1000; ++i) var += (t.at(i) - mean) * (t.at(i) - mean);
  var /= 1000.0;
  EXPECT_NEAR(mean, 0.0, 0.25);
  EXPECT_NEAR(var, 4.0, 1.0);
}

TEST(TensorTest, RandRange) {
  Pcg32 rng(2);
  Tensor t = Tensor::Rand({500}, rng, -1.0f, 1.0f);
  for (int64_t i = 0; i < 500; ++i) {
    EXPECT_GE(t.at(i), -1.0f);
    EXPECT_LT(t.at(i), 1.0f);
  }
}

TEST(TensorTest, ToStringPreview) {
  Tensor t = Tensor::FromVector({1.0f, 2.0f});
  std::string s = t.ToString();
  EXPECT_NE(s.find("[2]"), std::string::npos);
  EXPECT_NE(s.find("1"), std::string::npos);
}

TEST(TensorDeath, OutOfRangeAborts) {
  Tensor t(Shape{2, 2});
  EXPECT_DEATH(t.at(2, 0), "DAR_CHECK");
  EXPECT_DEATH(t.at(5), "DAR_CHECK");
}

TEST(TensorDeath, ShapeMismatchValues) {
  EXPECT_DEATH(Tensor(Shape{3}, std::vector<float>{1.0f}), "DAR_CHECK");
}

TEST(TensorDeath, ReshapeWrongCount) {
  Tensor t(Shape{4});
  EXPECT_DEATH(t.Reshape({3}), "DAR_CHECK");
}

// ---- Storage (tensor/storage.h) ---------------------------------------------
//
// Each case uses its own element count, so a mapping left in this thread's
// cache by an earlier case never serves it.

TEST(TensorStorageTest, FreedBufferIsReusedWithoutNewMapping) {
  if (!storage::MappedStorageEnabled()) GTEST_SKIP() << "operator new build";
  const Shape shape{257, 1031};  // about 1 MiB
  const float* first = Tensor::Full(shape, 2.0f).data();
  const storage::Stats before = storage::GetStats();
  Tensor again = Tensor::Scratch(shape);
  const storage::Stats after = storage::GetStats();
  EXPECT_EQ(again.data(), first);
  EXPECT_EQ(after.mapped - before.mapped, 0);
  EXPECT_EQ(after.from_cache - before.from_cache, 1);
  EXPECT_LT(after.thread_cached_bytes, before.thread_cached_bytes);
}

TEST(TensorStorageTest, FactoriesFillDirtiedBuffers) {
  // A reused buffer holds its last owner's bytes; the factories that
  // promise values write them. Also at a size below the mapping floor.
  for (const Shape& shape : {Shape{263, 1039}, Shape{3, 5}}) {
    const auto dirty = [&] { Tensor::Full(shape, 7.5f); };
    dirty();
    Tensor t(shape);
    for (int64_t i = 0; i < t.numel(); ++i) ASSERT_EQ(t.flat(i), 0.0f) << i;
    t = Tensor();
    dirty();
    Tensor zeros = Tensor::Zeros(shape);
    for (int64_t i = 0; i < zeros.numel(); ++i) {
      ASSERT_EQ(zeros.flat(i), 0.0f) << i;
    }
    zeros = Tensor();
    dirty();
    Tensor full = Tensor::Full(shape, -1.25f);
    for (int64_t i = 0; i < full.numel(); ++i) {
      ASSERT_EQ(full.flat(i), -1.25f) << i;
    }
  }
}

TEST(TensorStorageTest, PoisonedScratchReadsNanAfterReuse) {
  for (const Shape& shape : {Shape{269, 1049}, Shape{7, 3}}) {
    Tensor::Full(shape, 1.0f);
    check::SetPoisonScratch(true);
    Tensor t = Tensor::Scratch(shape);
    check::SetPoisonScratch(false);
    for (int64_t i = 0; i < t.numel(); ++i) {
      ASSERT_TRUE(std::isnan(t.flat(i))) << i;
    }
  }
}

TEST(TensorStorageTest, BufferFreedOnAnotherThreadLandsInThatThreadsCache) {
  if (!storage::MappedStorageEnabled()) GTEST_SKIP() << "operator new build";
  const Shape shape{271, 1051};
  Tensor t = Tensor::Full(shape, 3.0f);
  const float* buffer = t.data();
  const int64_t mine = storage::GetStats().thread_cached_bytes;
  int64_t gained = 0;
  const float* reused = nullptr;
  std::thread other([&] {
    const int64_t before = storage::GetStats().thread_cached_bytes;
    t = Tensor();
    gained = storage::GetStats().thread_cached_bytes - before;
    reused = Tensor::Scratch(shape).data();
  });
  other.join();
  EXPECT_GE(gained, static_cast<int64_t>(271 * 1051 * sizeof(float)));
  EXPECT_EQ(reused, buffer);
  EXPECT_EQ(storage::GetStats().thread_cached_bytes, mine);
}

TEST(TensorStorageTest, ThreadWithoutAFitTakesAnotherThreadsMapping) {
  // Threads whose peaks do not coincide share the cached mappings: a new
  // thread, its own cache empty, takes the one this thread cached instead
  // of mapping fresh.
  if (!storage::MappedStorageEnabled()) GTEST_SKIP() << "operator new build";
  const Shape shape{277, 1061};
  const float* cached = Tensor::Full(shape, 4.0f).data();
  const storage::Stats before = storage::GetStats();
  const float* taken = nullptr;
  std::thread other([&] { taken = Tensor::Scratch(shape).data(); });
  other.join();
  const storage::Stats after = storage::GetStats();
  EXPECT_EQ(taken, cached);
  EXPECT_EQ(after.mapped - before.mapped, 0);
  EXPECT_EQ(after.from_cache - before.from_cache, 1);
  EXPECT_LT(after.thread_cached_bytes, before.thread_cached_bytes);
}

TEST(TensorStorageTest, LiveAndCachedNeverPassTheHighWaterMark) {
  if (!storage::MappedStorageEnabled()) GTEST_SKIP() << "operator new build";
  // Three threads allocate and free buffers of random sizes from 64 KiB to
  // about 1.2 MiB, each holding up to 8 at once, and check the bound after
  // every step.
  std::atomic<int> over{0}, steps{0};
  const auto run = [&](uint64_t seed) {
    Pcg32 rng(seed);
    std::vector<Tensor> held;
    for (int step = 0; step < 600; ++step) {
      if (held.empty() || (held.size() < 8 && rng.Bernoulli(0.55f))) {
        const int64_t n = 16384 + rng.Below(300000);
        held.push_back(Tensor::Scratch(Shape{n}));
        held.back().flat(n - 1) = 1.0f;
      } else {
        held.erase(held.begin() + rng.Below(static_cast<uint32_t>(held.size())));
      }
      const storage::Stats s = storage::GetStats();
      if (s.live_bytes + s.cached_bytes > s.high_water_bytes) ++over;
      ++steps;
    }
  };
  const storage::Stats before = storage::GetStats();
  std::vector<std::thread> threads;
  for (uint64_t i = 0; i < 3; ++i) threads.emplace_back(run, 31 + i);
  for (std::thread& th : threads) th.join();
  const storage::Stats after = storage::GetStats();
  EXPECT_EQ(steps.load(), 1800);
  EXPECT_EQ(over.load(), 0);
  EXPECT_GT(after.from_cache - before.from_cache, 0);
  EXPECT_GT(after.resized - before.resized, 0);
}

}  // namespace
}  // namespace dar

// Tests for src/obs/ and its integrations: percentile math, histogram
// estimation, concurrent registry updates (the TSan lane builds this
// target), trace gating, the ServingStats migration, and the training
// telemetry path — including passivity (an attached observer never changes
// the trajectory) and the paper-Fig.-3 property that DAR's rationale-shift
// gauge ends below vanilla RNP's.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/parallel_trainer.h"
#include "core/telemetry.h"
#include "core/trainer.h"
#include "datasets/beer.h"
#include "datasets/hotel.h"
#include "eval/experiment.h"
#include "net/http.h"
#include "obs/trace.h"
#include "obs/train_observer.h"
#include "serve/stats.h"

namespace dar {
namespace {

// ---------------------------------------------------------------------------
// Percentile math.

TEST(PercentileSortedTest, EmptySampleIsZero) {
  EXPECT_EQ(obs::PercentileSorted({}, 50.0), 0);
  EXPECT_EQ(obs::PercentileSorted({}, 99.0), 0);
}

TEST(PercentileSortedTest, SingleElement) {
  for (double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(obs::PercentileSorted({7}, p), 7) << "p=" << p;
  }
}

TEST(PercentileSortedTest, AllTied) {
  std::vector<int64_t> tied(100, 42);
  EXPECT_EQ(obs::PercentileSorted(tied, 50.0), 42);
  EXPECT_EQ(obs::PercentileSorted(tied, 99.0), 42);
}

TEST(PercentileSortedTest, NearestRankOnUniform) {
  std::vector<int64_t> sorted(100);
  for (int i = 0; i < 100; ++i) sorted[i] = i + 1;  // 1..100
  EXPECT_EQ(obs::PercentileSorted(sorted, 50.0), 50);
  EXPECT_EQ(obs::PercentileSorted(sorted, 95.0), 95);
  EXPECT_EQ(obs::PercentileSorted(sorted, 99.0), 99);
  EXPECT_EQ(obs::PercentileSorted(sorted, 100.0), 100);
}

TEST(PercentileSortedTest, AdversarialHeavyTail) {
  // 99 fast requests, one 1000x outlier: p50/p95 must not see the tail,
  // p99 nearest-rank is still the 99th sample, max-like p100 the outlier.
  std::vector<int64_t> sorted(99, 10);
  sorted.push_back(10000);
  EXPECT_EQ(obs::PercentileSorted(sorted, 50.0), 10);
  EXPECT_EQ(obs::PercentileSorted(sorted, 95.0), 10);
  EXPECT_EQ(obs::PercentileSorted(sorted, 99.0), 10);
  EXPECT_EQ(obs::PercentileSorted(sorted, 100.0), 10000);
}

TEST(PercentileSortedTest, TwoElements) {
  EXPECT_EQ(obs::PercentileSorted({1, 9}, 50.0), 1);
  EXPECT_EQ(obs::PercentileSorted({1, 9}, 51.0), 9);
}

// ---------------------------------------------------------------------------
// Histogram.

TEST(HistogramTest, EmptyHistogram) {
  obs::Histogram hist(obs::DurationBucketsUs());
  EXPECT_EQ(hist.count(), 0);
  EXPECT_EQ(hist.Percentile(50.0), 0.0);
  EXPECT_EQ(hist.max(), 0.0);
}

TEST(HistogramTest, EmptyPercentileIsZeroForEveryP) {
  // Convention (metrics.h): degenerate inputs have defined values. An
  // empty histogram answers 0 for any percentile, never NaN.
  obs::Histogram hist({10.0, 20.0});
  for (double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(hist.Percentile(p), 0.0) << "p=" << p;
  }
}

TEST(HistogramTest, SingleSampleReportsItExactly) {
  // A single observation must come back exactly — not as the upper edge
  // of whatever bucket it landed in (13 would otherwise estimate as 20).
  obs::Histogram hist({10.0, 20.0, 50.0});
  hist.Observe(13.0);
  for (double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(hist.Percentile(p), 13.0) << "p=" << p;
  }
}

TEST(HistogramTest, BucketEdgesAreInclusiveUppers) {
  obs::Histogram hist({10.0, 20.0});
  hist.Observe(10.0);  // exactly on the first edge -> first bucket
  hist.Observe(10.5);  // -> second bucket
  hist.Observe(25.0);  // -> overflow bucket
  std::vector<int64_t> counts = hist.BucketCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 1);
}

TEST(HistogramTest, ExactStatsAreExact) {
  obs::Histogram hist(obs::DurationBucketsUs());
  double sum = 0.0;
  for (int i = 1; i <= 1000; ++i) {
    hist.Observe(static_cast<double>(i));
    sum += i;
  }
  EXPECT_EQ(hist.count(), 1000);
  EXPECT_DOUBLE_EQ(hist.sum(), sum);
  EXPECT_DOUBLE_EQ(hist.max(), 1000.0);
}

TEST(HistogramTest, PercentileWithinBucketResolution) {
  // Uniform 1..1000: the estimator must land inside the bucket that holds
  // the exact nearest-rank value (1-2-5 ladder => factor <= 2.5 off).
  obs::Histogram hist(obs::DurationBucketsUs());
  std::vector<int64_t> exact;
  for (int i = 1; i <= 1000; ++i) {
    hist.Observe(static_cast<double>(i));
    exact.push_back(i);
  }
  for (double p : {50.0, 95.0, 99.0}) {
    double est = hist.Percentile(p);
    double truth = static_cast<double>(obs::PercentileSorted(exact, p));
    EXPECT_GE(est, truth / 2.5) << "p=" << p;
    EXPECT_LE(est, truth * 2.5) << "p=" << p;
    EXPECT_LE(est, hist.max()) << "p=" << p;
  }
}

TEST(HistogramTest, OverflowBucketReportsExactMax) {
  obs::Histogram hist({10.0});
  hist.Observe(123456.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(99.0), 123456.0);
}

TEST(HistogramTest, PercentilesAreMonotone) {
  obs::Histogram hist(obs::DurationBucketsUs());
  Pcg32 rng(7, 3);
  for (int i = 0; i < 5000; ++i) {
    hist.Observe(static_cast<double>(1 + rng.Below(100000)));
  }
  EXPECT_LE(hist.Percentile(50.0), hist.Percentile(95.0));
  EXPECT_LE(hist.Percentile(95.0), hist.Percentile(99.0));
  EXPECT_LE(hist.Percentile(99.0), hist.max());
}

TEST(HistogramTest, MergeCountsMatchesObserve) {
  obs::Histogram direct(obs::DurationBucketsUs());
  obs::Histogram merged(obs::DurationBucketsUs());
  std::vector<int64_t> buckets(obs::DurationBucketsUs().size() + 1, 0);
  int64_t count = 0;
  double sum = 0.0, max = 0.0;
  const std::vector<double>& bounds = obs::DurationBucketsUs();
  for (int i = 1; i <= 300; ++i) {
    double v = static_cast<double>(i * 37 % 9001);
    direct.Observe(v);
    size_t idx = static_cast<size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
    ++buckets[idx];
    ++count;
    sum += v;
    max = std::max(max, v);
  }
  merged.MergeCounts(buckets.data(), count, sum, max);
  EXPECT_EQ(direct.BucketCounts(), merged.BucketCounts());
  EXPECT_EQ(direct.count(), merged.count());
  EXPECT_DOUBLE_EQ(direct.sum(), merged.sum());
  EXPECT_DOUBLE_EQ(direct.Percentile(95.0), merged.Percentile(95.0));
}

// ---------------------------------------------------------------------------
// Registry: concurrency (TSan builds this test) and exporters.

TEST(MetricsRegistryTest, ConcurrentUpdatesAreExact) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Half the threads race instrument *creation* too, not just updates.
      obs::Counter& counter = registry.GetCounter("c");
      obs::Gauge& gauge = registry.GetGauge("g");
      obs::Histogram& hist =
          registry.GetHistogram("h", obs::DurationBucketsUs());
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        gauge.Set(static_cast<double>(i));
        hist.Observe(static_cast<double>(i % 1000));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("c").value(), kThreads * kPerThread);
  obs::Histogram& hist = registry.GetHistogram("h", obs::DurationBucketsUs());
  EXPECT_EQ(hist.count(), kThreads * kPerThread);
  double one_thread_sum = 0.0;
  for (int i = 0; i < kPerThread; ++i) one_thread_sum += i % 1000;
  EXPECT_DOUBLE_EQ(hist.sum(), one_thread_sum * kThreads);
}

TEST(MetricsRegistryTest, JsonlExportShape) {
  obs::MetricsRegistry registry;
  registry.GetCounter("requests").Increment(3);
  registry.GetGauge("loss").Set(0.25);
  registry.GetHistogram("lat", obs::DurationBucketsUs()).Observe(42.0);
  std::string jsonl = registry.ExportJsonl();
  EXPECT_NE(jsonl.find("{\"type\":\"counter\",\"name\":\"requests\","
                       "\"value\":3}"),
            std::string::npos);
  EXPECT_NE(jsonl.find("{\"type\":\"gauge\",\"name\":\"loss\","
                       "\"value\":0.25}"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"lat\",\"count\":1"), std::string::npos);
  EXPECT_NE(jsonl.find("\"p99\":"), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusExportShape) {
  obs::MetricsRegistry registry;
  registry.GetCounter("serve.requests_total").Increment(5);
  registry.GetHistogram("serve.latency_us", obs::DurationBucketsUs())
      .Observe(99.0);
  std::string text = registry.ExportPrometheus();
  EXPECT_NE(text.find("# TYPE serve_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("serve_requests_total 5"), std::string::npos);
  EXPECT_NE(text.find("serve_latency_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_us_count 1"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetAllZeroesEverything) {
  obs::MetricsRegistry registry;
  registry.GetCounter("c").Increment(9);
  registry.GetHistogram("h", obs::DurationBucketsUs()).Observe(1.0);
  registry.ResetAll();
  EXPECT_EQ(registry.GetCounter("c").value(), 0);
  EXPECT_EQ(registry.GetHistogram("h", obs::DurationBucketsUs()).count(), 0);
}

// ---------------------------------------------------------------------------
// Trace spans.

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::SetTraceRegistry(&registry_); }
  void TearDown() override {
    obs::SetTraceLevel(obs::TraceLevel::kOff);
    obs::SetTraceRegistry(nullptr);
  }
  obs::MetricsRegistry registry_;
};

TEST_F(TraceTest, OffLevelRecordsNothing) {
  obs::SetTraceLevel(obs::TraceLevel::kOff);
  { obs::Span span("obs_test.off"); }
  obs::FlushThreadSpans();
  EXPECT_EQ(registry_.ExportJsonl().find("span.obs_test.off.us"),
            std::string::npos);
}

TEST_F(TraceTest, CoarseLevelGatesDetailedSpans) {
  obs::SetTraceLevel(obs::TraceLevel::kCoarse);
  { obs::Span span("obs_test.coarse"); }
  { obs::Span span("obs_test.detailed", obs::TraceLevel::kDetailed); }
  obs::FlushThreadSpans();
  std::string jsonl = registry_.ExportJsonl();
  EXPECT_NE(jsonl.find("span.obs_test.coarse.us"), std::string::npos);
  EXPECT_EQ(jsonl.find("span.obs_test.detailed.us"), std::string::npos);
}

TEST_F(TraceTest, DetailedLevelRecordsBoth) {
  obs::SetTraceLevel(obs::TraceLevel::kDetailed);
  for (int i = 0; i < 10; ++i) {
    obs::Span coarse("obs_test.c2");
    obs::Span detailed("obs_test.d2", obs::TraceLevel::kDetailed);
  }
  obs::FlushThreadSpans();
  obs::Histogram& hist =
      registry_.GetHistogram("span.obs_test.c2.us", obs::DurationBucketsUs());
  EXPECT_EQ(hist.count(), 10);
  obs::Histogram& detailed =
      registry_.GetHistogram("span.obs_test.d2.us", obs::DurationBucketsUs());
  EXPECT_EQ(detailed.count(), 10);
}

TEST_F(TraceTest, WorkerThreadSpansFlushOnThreadExit) {
  obs::SetTraceLevel(obs::TraceLevel::kCoarse);
  std::thread worker([] {
    for (int i = 0; i < 5; ++i) obs::Span span("obs_test.worker");
  });
  worker.join();  // thread exit flushes its buffer
  obs::Histogram& hist = registry_.GetHistogram("span.obs_test.worker.us",
                                                obs::DurationBucketsUs());
  EXPECT_EQ(hist.count(), 5);
}

// ---------------------------------------------------------------------------
// ServingStats migration.

TEST(ServingStatsTest, EmptySnapshotIsAllZeros) {
  // Degenerate-sample convention: a snapshot before any traffic is fully
  // defined — zeros everywhere, no division by the empty sample.
  serve::ServingStats stats;
  serve::StatsSnapshot snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.requests, 0);
  EXPECT_EQ(snapshot.batches, 0);
  EXPECT_DOUBLE_EQ(snapshot.mean_batch_size, 0.0);
  EXPECT_EQ(snapshot.latency_p50_us, 0);
  EXPECT_EQ(snapshot.latency_p95_us, 0);
  EXPECT_EQ(snapshot.latency_p99_us, 0);
  EXPECT_EQ(snapshot.latency_max_us, 0);
}

TEST(ServingStatsTest, SingleLatencyReportsItAtEveryPercentile) {
  serve::ServingStats stats;
  stats.RecordBatch(1);
  stats.RecordLatencyUs(137);
  serve::StatsSnapshot snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.latency_p50_us, 137);
  EXPECT_EQ(snapshot.latency_p95_us, 137);
  EXPECT_EQ(snapshot.latency_p99_us, 137);
  EXPECT_EQ(snapshot.latency_max_us, 137);
}

TEST(ServingStatsTest, CountsAndExactPercentilesBelowCap) {
  serve::ServingStats stats;
  stats.RecordBatch(4);
  stats.RecordBatch(4);
  stats.RecordBatch(8);
  std::vector<int64_t> latencies;
  Pcg32 rng(11, 5);
  for (int i = 0; i < 997; ++i) {
    latencies.push_back(1 + static_cast<int64_t>(rng.Below(50000)));
  }
  for (int64_t us : latencies) stats.RecordLatencyUs(us);
  serve::StatsSnapshot snapshot = stats.Snapshot();

  EXPECT_EQ(snapshot.requests, 16);
  EXPECT_EQ(snapshot.batches, 3);
  // serve.batch_size has unit-width buckets: bucket b-1 counts size b.
  std::vector<int64_t> sizes =
      stats.registry().GetHistogram("serve.batch_size", {}).BucketCounts();
  EXPECT_EQ(sizes[3], 2);
  EXPECT_EQ(sizes[7], 1);
  EXPECT_DOUBLE_EQ(snapshot.mean_batch_size, 16.0 / 3.0);

  // Each percentile stays inside the 1-2-5 bucket that holds the exact
  // nearest-rank value, never above the max, and is monotone in p.
  std::vector<int64_t> sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<double>& bounds = obs::DurationBucketsUs();
  int64_t previous = 0;
  for (auto [p, got] : {std::pair{50.0, snapshot.latency_p50_us},
                        std::pair{95.0, snapshot.latency_p95_us},
                        std::pair{99.0, snapshot.latency_p99_us}}) {
    const int64_t truth = obs::PercentileSorted(sorted, p);
    auto upper = std::lower_bound(bounds.begin(), bounds.end(), truth);
    EXPECT_GE(got, upper == bounds.begin() ? 0.0 : *(upper - 1)) << "p=" << p;
    EXPECT_LE(got, *upper) << "p=" << p;
    EXPECT_LE(got, snapshot.latency_max_us) << "p=" << p;
    EXPECT_GE(got, previous) << "p=" << p;
    previous = got;
  }
  EXPECT_EQ(snapshot.latency_max_us, sorted.back());
}

TEST(ServingStatsTest, SnapshotReadsTheRegistry) {
  // One store: the snapshot reports what /metrics exports, read back from
  // the serve.latency_us histogram through registry().
  serve::ServingStats stats;
  Pcg32 rng(11, 5);
  for (int i = 0; i < 997; ++i) {
    stats.RecordLatencyUs(1 + static_cast<int64_t>(rng.Below(50000)));
  }
  serve::StatsSnapshot snapshot = stats.Snapshot();
  obs::Histogram& latency =
      stats.registry().GetHistogram("serve.latency_us", {});
  EXPECT_EQ(snapshot.latency_p50_us, std::llround(latency.Percentile(50.0)));
  EXPECT_EQ(snapshot.latency_p95_us, std::llround(latency.Percentile(95.0)));
  EXPECT_EQ(snapshot.latency_p99_us, std::llround(latency.Percentile(99.0)));
  EXPECT_EQ(snapshot.latency_max_us, std::llround(latency.max()));
}

TEST(ServingStatsTest, EstimatorTakesOverPastCap) {
  // The histogram sees every observation, so estimates stay within one
  // 1-2-5 bucket of truth and the max stays exact.
  serve::ServingStats stats(nullptr, "serve");
  std::vector<int64_t> latencies;
  Pcg32 rng(13, 9);
  for (int i = 0; i < 5000; ++i) {
    latencies.push_back(1 + static_cast<int64_t>(rng.Below(200000)));
  }
  for (int64_t us : latencies) stats.RecordLatencyUs(us);
  serve::StatsSnapshot snapshot = stats.Snapshot();

  std::vector<int64_t> sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(snapshot.latency_max_us, sorted.back());
  struct Case {
    double p;
    int64_t got;
  };
  for (const Case& c : {Case{50.0, snapshot.latency_p50_us},
                        Case{95.0, snapshot.latency_p95_us},
                        Case{99.0, snapshot.latency_p99_us}}) {
    int64_t truth = obs::PercentileSorted(sorted, c.p);
    EXPECT_GE(c.got, truth / 3) << "p=" << c.p;
    EXPECT_LE(c.got, truth * 3) << "p=" << c.p;
    EXPECT_LE(c.got, snapshot.latency_max_us) << "p=" << c.p;
  }
  EXPECT_LE(snapshot.latency_p50_us, snapshot.latency_p95_us);
  EXPECT_LE(snapshot.latency_p95_us, snapshot.latency_p99_us);
}

TEST(ServingStatsTest, BoundedMemoryPastCap) {
  serve::ServingStats stats(nullptr, "serve");
  for (int i = 0; i < 100000; ++i) stats.RecordLatencyUs(i % 777);
  // No direct memory probe; the contract is that Snapshot still works and
  // counts everything while the stats hold only fixed-size histograms.
  serve::StatsSnapshot snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.latency_max_us, 776);
  std::string text = stats.ExportPrometheus();
  EXPECT_NE(text.find("serve_latency_us_count 100000"), std::string::npos);
}

TEST(ServingStatsTest, ResetClearsRegistryInstruments) {
  serve::ServingStats stats;
  stats.RecordBatch(3);
  stats.RecordLatencyUs(100);
  stats.registry().ResetAll();
  serve::StatsSnapshot snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.requests, 0);
  EXPECT_EQ(snapshot.batches, 0);
  EXPECT_EQ(snapshot.latency_max_us, 0);
  EXPECT_NE(stats.ExportPrometheus().find("serve_requests_total 0"),
            std::string::npos);
}

TEST(ServingStatsTest, SharedRegistryPublishesUnderPrefix) {
  obs::MetricsRegistry registry;
  serve::ServingStats stats(&registry, "beer_model");
  stats.RecordBatch(2);
  std::string text = registry.ExportPrometheus();
  EXPECT_NE(text.find("beer_model_requests_total 2"), std::string::npos);
  EXPECT_NE(text.find("beer_model_batches_total 1"), std::string::npos);
}

TEST(ServingStatsTest, ConcurrentRecordingIsExact) {
  serve::ServingStats stats;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats] {
      for (int i = 0; i < kPerThread; ++i) {
        stats.RecordBatch(1);
        stats.RecordLatencyUs(i + 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  serve::StatsSnapshot snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.requests, kThreads * kPerThread);
  EXPECT_EQ(snapshot.batches, kThreads * kPerThread);
  EXPECT_EQ(snapshot.latency_max_us, kPerThread);
}

// ---------------------------------------------------------------------------
// Training telemetry.

const datasets::SyntheticDataset& ObsDataset() {
  static const datasets::SyntheticDataset& ds = *new datasets::SyntheticDataset(
      datasets::MakeBeerDataset(datasets::BeerAspect::kAroma,
                                {.train = 96, .dev = 32, .test = 32},
                                /*seed=*/81));
  return ds;
}

core::TrainConfig TinyConfig() {
  core::TrainConfig config;
  config.embedding_dim = 8;
  config.hidden_dim = 6;
  config.batch_size = 16;
  config.epochs = 3;
  config.pretrain_epochs = 2;
  config.lr = 3e-3f;
  return config;
}

/// Stores every telemetry record for inspection.
class RecordingObserver : public obs::TrainObserver {
 public:
  explicit RecordingObserver(bool wants_shift = true)
      : wants_shift_(wants_shift) {}
  void OnBatch(const obs::BatchTelemetry& t) override {
    batches_.push_back(t);
  }
  void OnEpoch(const obs::EpochTelemetry& t) override {
    epochs_.push_back(t);
  }
  bool WantsRationaleShift() const override { return wants_shift_; }

  const std::vector<obs::BatchTelemetry>& batches() const { return batches_; }
  const std::vector<obs::EpochTelemetry>& epochs() const { return epochs_; }

 private:
  bool wants_shift_;
  std::vector<obs::BatchTelemetry> batches_;
  std::vector<obs::EpochTelemetry> epochs_;
};

TEST(TrainObserverTest, SequentialFitReportsFullTelemetry) {
  auto model = eval::MakeMethod("DAR", ObsDataset(), TinyConfig());
  RecordingObserver recorder;
  core::TrainRun run =
      core::Fit(*model, ObsDataset(), /*verbose=*/false, &recorder);

  ASSERT_EQ(recorder.epochs().size(), 3u);
  EXPECT_EQ(recorder.batches().size(), 3u * 6u);  // 96 / 16 per epoch
  for (const obs::EpochTelemetry& t : recorder.epochs()) {
    EXPECT_TRUE(t.has_breakdown);
    EXPECT_TRUE(t.has_align);  // DAR's alignment CE
    EXPECT_TRUE(t.has_shift);
    EXPECT_GT(t.batches, 0);
    EXPECT_GT(t.grad_norm, 0.0);
    EXPECT_GT(t.sparsity, 0.0);
    EXPECT_LT(t.sparsity, 1.0);
    EXPECT_GE(t.rationale_shift, 0.0);
    EXPECT_EQ(t.model, "DAR");
  }
  // Epoch aggregates match the trainer's own bookkeeping.
  for (size_t e = 0; e < recorder.epochs().size(); ++e) {
    EXPECT_FLOAT_EQ(static_cast<float>(recorder.epochs()[e].train_loss),
                    run.epochs[e].train_loss);
    EXPECT_FLOAT_EQ(static_cast<float>(recorder.epochs()[e].dev_acc),
                    run.epochs[e].dev_acc);
  }
}

TEST(TrainObserverTest, RnpHasNoAlignmentComponent) {
  auto model = eval::MakeMethod("RNP", ObsDataset(), TinyConfig());
  RecordingObserver recorder(/*wants_shift=*/false);
  core::Fit(*model, ObsDataset(), /*verbose=*/false, &recorder);
  ASSERT_FALSE(recorder.epochs().empty());
  EXPECT_TRUE(recorder.epochs().back().has_breakdown);
  EXPECT_FALSE(recorder.epochs().back().has_align);
  EXPECT_FALSE(recorder.epochs().back().has_shift);  // not requested
}

TEST(TrainObserverTest, TelemetryIsPassive) {
  // Same seed, one run observed (with the shift probe), one not: the
  // trained parameters must be bit-identical.
  auto plain = eval::MakeMethod("DAR", ObsDataset(), TinyConfig());
  core::Fit(*plain, ObsDataset());

  auto observed = eval::MakeMethod("DAR", ObsDataset(), TinyConfig());
  RecordingObserver recorder;  // wants the shift gauge -> probe is built
  core::Fit(*observed, ObsDataset(), /*verbose=*/false, &recorder);

  EXPECT_EQ(core::ParameterChecksum(*plain),
            core::ParameterChecksum(*observed));
}

TEST(TrainObserverTest, ParallelTelemetryIsPassiveAndTagged) {
  core::ParallelTrainConfig parallel{.num_workers = 2, .num_shards = 2};
  auto plain = eval::MakeMethod("RNP", ObsDataset(), TinyConfig());
  core::Fit(*plain, ObsDataset(), parallel);

  auto observed = eval::MakeMethod("RNP", ObsDataset(), TinyConfig());
  RecordingObserver recorder;
  core::Fit(*observed, ObsDataset(), parallel, /*verbose=*/false, &recorder);

  EXPECT_EQ(core::ParameterChecksum(*plain),
            core::ParameterChecksum(*observed));
  ASSERT_FALSE(recorder.epochs().empty());
  const obs::EpochTelemetry& last = recorder.epochs().back();
  EXPECT_EQ(last.model, "RNP x2");
  EXPECT_TRUE(last.has_breakdown);
  EXPECT_TRUE(last.has_shift);
  EXPECT_GT(last.grad_norm, 0.0);
}

TEST(TrainObserverTest, JsonlEpochLineCarriesAllComponents) {
  auto model = eval::MakeMethod("DAR", ObsDataset(), TinyConfig());
  std::ostringstream out;
  obs::JsonlTrainObserver jsonl(out);
  core::Fit(*model, ObsDataset(), /*verbose=*/false, &jsonl);
  std::string text = out.str();
  EXPECT_NE(text.find("\"event\":\"epoch\""), std::string::npos);
  EXPECT_NE(text.find("\"model\":\"DAR\""), std::string::npos);
  for (const char* key :
       {"\"train_loss\":", "\"dev_acc\":", "\"grad_norm\":", "\"task_ce\":",
        "\"omega\":", "\"rationale_sparsity\":", "\"align_ce\":",
        "\"rationale_shift\":"}) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
  // One line per epoch.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

// A diverged run (NaN loss, infinite gradient norm) and a model tag that
// needs escaping still write one valid JSON object per line: non-finite
// numbers become null and the tag round-trips.
TEST(TrainObserverTest, JsonlLinesParseWhenTheRunDiverges) {
  std::ostringstream out;
  obs::JsonlTrainObserver jsonl(out, /*per_batch=*/true);
  obs::BatchTelemetry batch;
  batch.loss = std::nan("");
  batch.grad_norm = std::numeric_limits<double>::infinity();
  batch.has_breakdown = true;
  batch.task_ce = -std::numeric_limits<double>::infinity();
  jsonl.OnBatch(batch);
  obs::EpochTelemetry epoch;
  epoch.model = "DAR \"x2\" C:\\runs";
  epoch.train_loss = std::nan("");
  jsonl.OnEpoch(epoch);

  std::istringstream lines(out.str());
  std::vector<net::JsonValue> parsed;
  for (std::string line; std::getline(lines, line);) {
    std::string error;
    std::optional<net::JsonValue> value = net::JsonValue::Parse(line, &error);
    ASSERT_TRUE(value.has_value()) << error << " in " << line;
    parsed.push_back(*value);
  }
  ASSERT_EQ(parsed.size(), 2u);
  for (const char* key : {"loss", "grad_norm", "task_ce"}) {
    ASSERT_NE(parsed[0].Find(key), nullptr) << key;
    EXPECT_EQ(parsed[0].Find(key)->type, net::JsonValue::Type::kNull) << key;
  }
  ASSERT_NE(parsed[1].Find("model"), nullptr);
  EXPECT_EQ(parsed[1].Find("model")->string_value, epoch.model);
  ASSERT_NE(parsed[1].Find("train_loss"), nullptr);
  EXPECT_EQ(parsed[1].Find("train_loss")->type, net::JsonValue::Type::kNull);
}

TEST(TrainObserverTest, MetricsObserverPopulatesRegistry) {
  auto model = eval::MakeMethod("DAR", ObsDataset(), TinyConfig());
  obs::MetricsRegistry registry;
  obs::MetricsTrainObserver metrics(&registry);
  core::Fit(*model, ObsDataset(), /*verbose=*/false, &metrics);
  EXPECT_EQ(registry.GetCounter("train.steps_total").value(), 3 * 6);
  EXPECT_EQ(registry.GetCounter("train.epochs_total").value(), 3);
  EXPECT_EQ(
      registry.GetHistogram("train.grad_norm", obs::DurationBucketsUs())
          .count(),
      3 * 6);
  EXPECT_GT(registry.GetGauge("train.loss").value(), 0.0);
  EXPECT_GE(registry.GetGauge("train.rationale_shift").value(), 0.0);
}

// The paper's Fig. 3 phenomenon, live on the gauge: as sparsity tightens,
// vanilla RNP's rationales deviate and the frozen full-text probe loses
// cross-entropy reading them (the gauge plateaus high), while DAR's
// alignment term — which trains Z to be read by exactly such a frozen
// full-text predictor — pulls the gauge back down over the later epochs.
// Loose tolerance: both are stochastic small-scale runs, so we only
// require DAR's late-epoch mean to stay below RNP's.
TEST(TrainObserverTest, DarShiftStaysBelowRnp) {
  core::TrainConfig config;
  config.embedding_dim = 16;
  config.hidden_dim = 12;
  config.batch_size = 32;
  config.lr = 2e-3f;
  config.epochs = 12;
  config.pretrain_epochs = 4;
  const datasets::SyntheticDataset dataset = datasets::MakeBeerDataset(
      datasets::BeerAspect::kAroma,
      {.train = 400, .dev = 100, .test = 100},
      /*seed=*/42);
  config = config.WithSparsityTarget(dataset.AnnotationSparsity());

  auto run_with_shift = [&](const char* method) {
    auto model = eval::MakeMethod(method, dataset, config);
    RecordingObserver recorder;
    core::Fit(*model, dataset, /*verbose=*/false, &recorder);
    for (const obs::EpochTelemetry& t : recorder.epochs()) {
      std::printf("[shift %s] epoch %lld shift=%.6f sparsity=%.3f\n", method,
                  static_cast<long long>(t.epoch), t.rationale_shift,
                  t.sparsity);
    }
    double shift = 0.0;
    int tail = 0;
    // Mean over the last two epochs irons out per-epoch jitter.
    for (size_t e = recorder.epochs().size() >= 2
                        ? recorder.epochs().size() - 2
                        : 0;
         e < recorder.epochs().size(); ++e) {
      shift += recorder.epochs()[e].rationale_shift;
      ++tail;
    }
    return shift / std::max(tail, 1);
  };

  const double rnp_shift = run_with_shift("RNP");
  const double dar_shift = run_with_shift("DAR");
  std::printf("[shift gauge] RNP=%.6f DAR=%.6f\n", rnp_shift, dar_shift);
  EXPECT_GE(rnp_shift, 0.0);
  EXPECT_GE(dar_shift, 0.0);
  // Loose tolerance: DAR may not dominate by much at this scale, but it
  // must not exceed RNP's deviation.
  EXPECT_LT(dar_shift, rnp_shift + 1e-6);
}

}  // namespace
}  // namespace dar

#include "obs/sync_metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sync/mutex.h"

namespace dar {
namespace obs {

namespace {

/// Serializes each read-and-merge, so two scrapes of one registry never
/// both merge the same counts. Leaked: /metrics scrapes may race static
/// destruction at shutdown.
sync::Mutex& PublishMutex() {
  static sync::Mutex& mu =
      *new sync::Mutex(sync::Rank::kObsDetail, "obs.sync_publish");
  return mu;
}

/// One mutex name's cumulative stats and the registry instruments that
/// publish them.
struct Series {
  const sync::MutexContentionStats* stats;
  Counter* total;
  Histogram* wait;
};

}  // namespace

void PublishSyncContentionMetrics(MetricsRegistry& registry) {
  const std::vector<sync::MutexContentionStats> snapshot =
      sync::ContentionSnapshot();
  // Every lookup takes the registry's map lock (rank 50), so all of them
  // happen before the publish lock (rank 60) is taken.
  std::vector<Series> series;
  series.reserve(snapshot.size());
  for (const sync::MutexContentionStats& stats : snapshot) {
    const std::vector<std::pair<std::string, std::string>> labels = {
        {"mutex", stats.name}};
    series.push_back(
        {&stats,
         &registry.GetCounter(LabeledName("sync.contention_total", labels)),
         &registry.GetHistogram(LabeledName("sync.wait_us", labels),
                                sync::ContentionBucketBoundsUs())});
  }
  sync::MutexLock lock(PublishMutex());
  for (const Series& s : series) {
    const sync::MutexContentionStats& stats = *s.stats;
    // The registry's own instruments are the baseline: merge only what the
    // process-wide cumulative counts exceed them by.
    const int64_t contention =
        static_cast<int64_t>(stats.contention_total) - s.total->value();
    if (contention > 0) s.total->Increment(contention);

    std::vector<int64_t> buckets = s.wait->BucketCounts();
    if (buckets.size() != stats.bucket_counts.size()) continue;
    for (size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] = std::max<int64_t>(
          0, static_cast<int64_t>(stats.bucket_counts[i]) - buckets[i]);
    }
    s.wait->MergeCounts(
        buckets.data(),
        std::max<int64_t>(
            0, static_cast<int64_t>(stats.contention_total) - s.wait->count()),
        std::max(0.0, static_cast<double>(stats.wait_us_sum) - s.wait->sum()),
        static_cast<double>(stats.wait_us_max));
  }
}

void PublishProcessMetrics(MetricsRegistry& registry) {
  // Lookups first: the registry's map lock ranks below the publish lock.
  MetricsRegistry& global = MetricsRegistry::Global();
  std::vector<std::pair<Counter*, Counter*>> kernel;  // (global, registry's)
  std::vector<std::pair<Gauge*, Gauge*>> gauges;
  if (&registry != &global) {
    for (const char* name : {"matmul_flops_total",
                             "nn_bigru_forwards_total{threads=\"1\"}",
                             "nn_bigru_forwards_total{threads=\"2\"}",
                             "tensor_buffers_total{source=\"cache\"}",
                             "tensor_buffers_total{source=\"resize\"}",
                             "tensor_buffers_total{source=\"map\"}"}) {
      kernel.emplace_back(&global.GetCounter(name), &registry.GetCounter(name));
    }
    for (const char* name : {"tensor_mapped_bytes{state=\"live\"}",
                             "tensor_mapped_bytes{state=\"cached\"}"}) {
      gauges.emplace_back(&global.GetGauge(name), &registry.GetGauge(name));
    }
  }
  Counter& faults = registry.GetCounter("process.minor_faults_total");
  Gauge& user = registry.GetGauge(
      LabeledName("process.cpu_seconds_total", {{"mode", "user"}}));
  Gauge& system = registry.GetGauge(
      LabeledName("process.cpu_seconds_total", {{"mode", "system"}}));
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  sync::MutexLock lock(PublishMutex());
  for (const auto& [from, to] : kernel) {
    const int64_t delta = from->value() - to->value();
    if (delta > 0) to->Increment(delta);
  }
  for (const auto& [from, to] : gauges) to->Set(from->value());
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return;
  const int64_t new_faults =
      static_cast<int64_t>(usage.ru_minflt) - faults.value();
  if (new_faults > 0) faults.Increment(new_faults);
  user.Set(seconds(usage.ru_utime));
  system.Set(seconds(usage.ru_stime));
}

}  // namespace obs
}  // namespace dar

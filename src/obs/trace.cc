#include "obs/trace.h"

#include <algorithm>
#include <string>
#include <vector>

namespace dar {
namespace obs {

namespace internal {
std::atomic<int> g_trace_level{static_cast<int>(TraceLevel::kOff)};
}

namespace {

std::atomic<MetricsRegistry*> g_trace_registry{nullptr};

MetricsRegistry& TraceRegistry() {
  MetricsRegistry* r = g_trace_registry.load(std::memory_order_acquire);
  return r != nullptr ? *r : MetricsRegistry::Global();
}

/// Per-name local aggregate in the shared duration-bucket layout.
struct LocalAgg {
  const char* name = nullptr;
  std::vector<int64_t> buckets;
  int64_t count = 0;
  double sum_us = 0.0;
  double max_us = 0.0;
};

/// Thread-local span buffer. Flushes on overflow and from its destructor
/// (thread exit), so pool workers contribute their samples even when the
/// main thread never sees them.
struct ThreadSpanBuffer {
  // A training/serving process has a handful of distinct span names;
  // linear scan over a small vector beats hashing at this size.
  std::vector<LocalAgg> aggs;
  int64_t pending = 0;

  static constexpr int64_t kFlushEvery = 8192;

  ~ThreadSpanBuffer() { Flush(); }

  void Record(const char* name, int64_t duration_us) {
    LocalAgg* agg = nullptr;
    for (LocalAgg& a : aggs) {
      if (a.name == name) {
        agg = &a;
        break;
      }
    }
    if (agg == nullptr) {
      aggs.push_back({});
      agg = &aggs.back();
      agg->name = name;
      agg->buckets.assign(DurationBucketsUs().size() + 1, 0);
    }
    const std::vector<double>& bounds = DurationBucketsUs();
    size_t idx = static_cast<size_t>(
        std::lower_bound(bounds.begin(), bounds.end(),
                         static_cast<double>(duration_us)) -
        bounds.begin());
    ++agg->buckets[idx];
    ++agg->count;
    agg->sum_us += static_cast<double>(duration_us);
    agg->max_us = std::max(agg->max_us, static_cast<double>(duration_us));
    if (++pending >= kFlushEvery) Flush();
  }

  void Flush() {
    if (pending == 0 && aggs.empty()) return;
    MetricsRegistry& registry = TraceRegistry();
    for (LocalAgg& agg : aggs) {
      if (agg.count == 0) continue;
      Histogram& hist = registry.GetHistogram(
          std::string("span.") + agg.name + ".us", DurationBucketsUs());
      hist.MergeCounts(agg.buckets.data(), agg.count, agg.sum_us, agg.max_us);
      std::fill(agg.buckets.begin(), agg.buckets.end(), 0);
      agg.count = 0;
      agg.sum_us = 0.0;
      agg.max_us = 0.0;
    }
    pending = 0;
  }
};

ThreadSpanBuffer& Buffer() {
  thread_local ThreadSpanBuffer buffer;
  return buffer;
}

}  // namespace

void SetTraceLevel(TraceLevel level) {
  internal::g_trace_level.store(static_cast<int>(level),
                                std::memory_order_relaxed);
}

void SetTraceRegistry(MetricsRegistry* registry) {
  FlushThreadSpans();
  g_trace_registry.store(registry, std::memory_order_release);
}

void FlushThreadSpans() { Buffer().Flush(); }

namespace internal {
void RecordSpan(const char* name, int64_t duration_us) {
  Buffer().Record(name, duration_us);
}
}  // namespace internal

}  // namespace obs
}  // namespace dar

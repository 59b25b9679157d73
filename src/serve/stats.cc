#include "serve/stats.h"

#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

namespace dar {
namespace serve {

namespace {

/// Batch sizes are small integers; unit-width buckets up to 64 then a few
/// coarse ones keep the Prometheus series short.
std::vector<double> BatchSizeBuckets() {
  std::vector<double> bounds;
  for (int64_t b = 1; b <= 64; ++b) bounds.push_back(static_cast<double>(b));
  for (double b : {96.0, 128.0, 256.0, 512.0}) bounds.push_back(b);
  return bounds;
}

}  // namespace

std::string StatsSnapshot::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "requests=%lld batches=%lld mean_batch=%.2f "
                "p50=%lldus p95=%lldus p99=%lldus max=%lldus",
                static_cast<long long>(requests),
                static_cast<long long>(batches), mean_batch_size,
                static_cast<long long>(latency_p50_us),
                static_cast<long long>(latency_p95_us),
                static_cast<long long>(latency_p99_us),
                static_cast<long long>(latency_max_us));
  return std::string(buf);
}

ServingStats::ServingStats(obs::MetricsRegistry* registry, std::string prefix,
                           const std::string& model_label) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  registry_ = registry;
  std::vector<std::pair<std::string, std::string>> labels;
  if (!model_label.empty()) labels.push_back({"model", model_label});
  auto name = [&](const char* suffix) {
    return obs::LabeledName(prefix + suffix, labels);
  };
  requests_ = &registry_->GetCounter(name(".requests_total"));
  batches_ = &registry_->GetCounter(name(".batches_total"));
  latency_hist_ =
      &registry_->GetHistogram(name(".latency_us"), obs::DurationBucketsUs());
  batch_size_hist_ =
      &registry_->GetHistogram(name(".batch_size"), BatchSizeBuckets());
}

void ServingStats::RecordBatch(int64_t batch_size) {
  batches_->Increment();
  requests_->Increment(batch_size);
  batch_size_hist_->Observe(static_cast<double>(batch_size));
}

void ServingStats::RecordLatencyUs(int64_t us) {
  latency_hist_->Observe(static_cast<double>(us));
}

StatsSnapshot ServingStats::Snapshot() const {
  StatsSnapshot snapshot;
  snapshot.requests = requests_->value();
  snapshot.batches = batches_->value();
  if (snapshot.batches > 0) {
    snapshot.mean_batch_size = static_cast<double>(snapshot.requests) /
                               static_cast<double>(snapshot.batches);
  }
  snapshot.latency_p50_us = std::llround(latency_hist_->Percentile(50.0));
  snapshot.latency_p95_us = std::llround(latency_hist_->Percentile(95.0));
  snapshot.latency_p99_us = std::llround(latency_hist_->Percentile(99.0));
  snapshot.latency_max_us = std::llround(latency_hist_->max());
  return snapshot;
}

}  // namespace serve
}  // namespace dar

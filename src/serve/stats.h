// Serving-side observability: request counters, batch-size histogram, and
// latency percentiles, shared by the naive and micro-batched paths.
//
// The registry is the only store: counts live in obs::MetricsRegistry
// Counters, every latency in the `<prefix>.latency_us` Histogram (the shared
// DurationBucketsUs layout) and every batch size in `<prefix>.batch_size`.
// Snapshot() reads those instruments, so it reports exactly what /metrics
// and ExportPrometheus() expose.
#ifndef DAR_SERVE_STATS_H_
#define DAR_SERVE_STATS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.h"

namespace dar {
namespace serve {

/// Point-in-time copy of a session's serving statistics.
struct StatsSnapshot {
  /// Requests whose result has been produced.
  int64_t requests = 0;
  /// Model forwards executed (== requests for the unbatched path).
  int64_t batches = 0;
  /// Mean requests per forward (0 when nothing has been served).
  double mean_batch_size = 0.0;
  /// End-to-end request latency percentiles in microseconds (enqueue to
  /// fulfillment for the batched path, call duration for the naive path).
  /// Degenerate samples follow the obs::Histogram convention: all zeros
  /// when nothing has been recorded, the exact single value when exactly
  /// one latency has.
  int64_t latency_p50_us = 0;
  int64_t latency_p95_us = 0;
  int64_t latency_p99_us = 0;
  int64_t latency_max_us = 0;

  /// One-line human-readable rendering.
  std::string ToString() const;
};

/// Statistics accumulator owned by an InferenceSession: its registry plus
/// cached pointers to the instruments it records into.
///
/// Recording is lock-free (the instruments are atomics), so any thread may
/// record at any time. Snapshot() reads each instrument separately and is
/// therefore one consistent cut only at a quiet point, when no recording is
/// in flight; every caller reads it there (benches between load phases and
/// after an arm, tests after joining their threads). Percentiles are the
/// histogram's bucket-interpolated estimates (within one 1-2-5 bucket, never
/// above the exact max); memory is O(1) however much traffic is served.
class ServingStats {
 public:
  /// Self-contained accumulator backed by a private registry.
  ServingStats() : ServingStats(nullptr) {}

  /// Accumulator publishing into `registry` (not owned; pass nullptr for a
  /// private one) under `<prefix>.`-named instruments. All instruments are
  /// created up front; the registry pointer must outlive the stats object.
  ///
  /// A non-empty `model_label` adds a `{model="..."}` Prometheus label
  /// block to every instrument name (serve.requests_total{model="beer"},
  /// ...), so one shared registry can carry per-model serving series for
  /// every session a net::Router serves — the /metrics endpoint's
  /// per-aspect dimension. Unlabeled and labeled stats of the same prefix
  /// coexist in one registry without colliding.
  explicit ServingStats(obs::MetricsRegistry* registry,
                        std::string prefix = "serve",
                        const std::string& model_label = "");

  /// Records one executed forward covering `batch_size` requests.
  void RecordBatch(int64_t batch_size);

  /// Records one fulfilled request's end-to-end latency.
  void RecordLatencyUs(int64_t us);

  StatsSnapshot Snapshot() const;

  /// The registry the stats publish into (the private one by default).
  obs::MetricsRegistry& registry() { return *registry_; }

  /// Prometheus text exposition of the backing registry — what serve_demo
  /// prints and the CI smoke job greps.
  std::string ExportPrometheus() const { return registry_->ExportPrometheus(); }

 private:
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_;

  // Cached instrument pointers (stable for the registry's lifetime).
  obs::Counter* requests_;
  obs::Counter* batches_;
  obs::Histogram* latency_hist_;
  obs::Histogram* batch_size_hist_;
};

}  // namespace serve
}  // namespace dar

#endif  // DAR_SERVE_STATS_H_

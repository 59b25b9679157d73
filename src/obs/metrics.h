// Unified metrics for training, serving, and benches.
//
// A MetricsRegistry is a named collection of three instrument kinds:
//
//   Counter   — monotone int64 (requests served, batches trained, ...)
//   Gauge     — last-written double (current loss, rationale-shift, ...)
//   Histogram — fixed-bucket distribution with exact count/sum/max and a
//               bucket-interpolated percentile estimator (latencies, span
//               durations, gradient norms, ...)
//
// All instruments are lock-free on the write path (atomics only) so they
// can sit in hot loops; the registry map itself is mutex-guarded but only
// touched at instrument-lookup time — callers cache the returned pointer,
// which stays valid for the registry's lifetime.
//
// Two export surfaces cover every consumer in this repository:
//   ExportJsonl()      — one JSON object per metric per line, the format
//                        BENCH_*.json records and the JSONL train logs use.
//   ExportPrometheus() — Prometheus text exposition format, the format the
//                        serving stack exposes (serve_demo prints it, CI
//                        greps it).
//
// This header depends only on the C++ standard library and src/sync/ (the
// annotated mutex layer at the bottom of the stack), so every other
// library (tensor, nn, core, serve) can link it without cycles.
#ifndef DAR_OBS_METRICS_H_
#define DAR_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sync/mutex.h"

namespace dar {
namespace obs {

/// Monotone counter. Thread-safe; increments are relaxed atomics.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-value gauge. Thread-safe.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram.
///
/// `bounds` are inclusive upper bucket edges in ascending order; one
/// overflow bucket past the last edge is implicit. Observations update a
/// bucket counter plus exact count/sum/max, all with atomics — no lock, no
/// allocation, O(log buckets) per Observe.
class Histogram {
 public:
  /// A recent (value, trace id) pair attached to one bucket — the
  /// OpenMetrics exemplar the /metrics exposition appends to that bucket's
  /// line, so a latency spike in a histogram links to a concrete request
  /// in /debug/trace/<id>.
  struct Exemplar {
    bool valid = false;
    double value = 0.0;
    uint64_t trace_hi = 0;
    uint64_t trace_lo = 0;
  };

  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  /// Observe() plus exemplar capture: remembers (v, trace id) for the
  /// bucket v lands in. Retention is last-write-wins per bucket — each
  /// bucket keeps exactly its most recent exemplar, older ones are
  /// overwritten, and there is no sampling or rate limit; recency is the
  /// policy. Exemplar storage is allocated on first use and guarded by a
  /// mutex, so histograms that never see a traced observation pay nothing
  /// and the plain Observe() path stays lock-free.
  void ObserveWithExemplar(double v, uint64_t trace_hi, uint64_t trace_lo);

  /// Per-bucket exemplars (num_buckets() entries, each possibly invalid).
  /// Empty when ObserveWithExemplar was never called.
  std::vector<Exemplar> Exemplars() const;

  /// Merges pre-aggregated data (the per-thread span buffers flush through
  /// this): `bucket_counts` must have num_buckets() entries.
  void MergeCounts(const int64_t* bucket_counts, int64_t count, double sum,
                   double max);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  double max() const { return max_.load(std::memory_order_relaxed); }

  /// Number of buckets including the overflow bucket (bounds().size() + 1).
  size_t num_buckets() const { return buckets_.size(); }
  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<int64_t> BucketCounts() const;

  /// Percentile estimate by linear interpolation inside the bucket holding
  /// the nearest-rank sample; clamped to the exact observed max (so the
  /// estimate never exceeds reality). Degenerate inputs have defined
  /// values, by convention: an empty histogram returns 0 for every p (not
  /// NaN, not an error), and a single-sample histogram returns that sample
  /// exactly (the tracked max) rather than a bucket-edge estimate.
  double Percentile(double p) const;

  void Reset();

 private:
  /// The single home of the bucket-selection rule (inclusive upper edges):
  /// Observe and the exemplar path both go through it, so the exemplar can
  /// never sit in a different bucket than the count it annotates.
  size_t BucketIndexFor(double v) const;
  /// Bucket edge helpers shared by Percentile and the exporters; the
  /// overflow bucket's upper edge is the exact observed max.
  double BucketLowerEdge(size_t index) const;
  double BucketUpperEdge(size_t index) const;

  std::vector<double> bounds_;
  std::vector<std::atomic<int64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
  /// kObsDetail outranks the registry map's kObsRegistry mutex because
  /// ExportPrometheus reads exemplars while holding the map lock.
  mutable sync::Mutex exemplar_mu_{sync::Rank::kObsDetail, "obs.exemplars"};
  /// Empty until the first traced observation.
  std::vector<Exemplar> exemplars_ DAR_GUARDED_BY(exemplar_mu_);
};

/// The 1-2-5 series from 1us to 1e7us (10 s): the shared bucket layout for
/// every duration histogram (latencies, span timings). One layout for all
/// of them keeps per-thread span buffers mergeable into any registry.
const std::vector<double>& DurationBucketsUs();

/// Nearest-rank percentile of an ascending-sorted sample (0 when empty).
/// Exact: the reference the tests hold Histogram::Percentile against.
int64_t PercentileSorted(const std::vector<int64_t>& sorted, double p);

/// obs's one JSON scalar writer: ExportJsonl and the training JSONL log
/// (JsonlTrainObserver) both write through it. JsonNumber renders `v` with
/// %.6g, and a non-finite value as null (never a bare inf or nan).
/// JsonEscape escapes `s` for a JSON string body (quotes not included): a
/// double quote or a backslash takes a backslash, and a control byte
/// becomes a \u00XX escape.
std::string JsonNumber(double v);
std::string JsonEscape(const std::string& s);

/// Builds an instrument name carrying a Prometheus label block:
///
///   LabeledName("serve.requests_total", {{"model", "beer"}})
///     == "serve.requests_total{model=\"beer\"}"
///
/// Label keys are sanitized like metric names; label values are escaped
/// (backslash, quote, newline). ExportPrometheus() recognizes the trailing
/// `{...}` block and emits it verbatim after the sanitized base name (for
/// histograms the `le` bucket label is merged into the block), so one
/// registry can hold any number of label dimensions of the same metric —
/// the per-model serving counters and the per-route HTTP metrics use this.
/// ExportJsonl() treats the whole string as the metric name.
std::string LabeledName(
    const std::string& base,
    const std::vector<std::pair<std::string, std::string>>& labels);

/// Named instrument collection with JSONL and Prometheus exporters.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named instrument. The returned reference stays
  /// valid for the registry's lifetime; callers should look up once and
  /// cache. For histograms, `bounds` only applies on creation.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name,
                          const std::vector<double>& bounds);

  /// One JSON object per metric per line, in name order. Histograms carry
  /// count/sum/mean/max and estimated p50/p95/p99.
  std::string ExportJsonl() const;

  /// Prometheus text exposition format. Metric names are sanitized
  /// ([^a-zA-Z0-9_:] -> '_'); histograms emit cumulative _bucket{le=...}
  /// series plus _sum and _count.
  std::string ExportPrometheus() const;

  /// Zeroes every instrument (instruments stay registered).
  void ResetAll();

  /// Process-wide registry: span timers flush here by default, and it is
  /// the natural home for anything that wants one export surface.
  static MetricsRegistry& Global();

 private:
  mutable sync::Mutex mu_{sync::Rank::kObsRegistry, "obs.metrics_registry"};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      DAR_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ DAR_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      DAR_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace dar

#endif  // DAR_OBS_METRICS_H_

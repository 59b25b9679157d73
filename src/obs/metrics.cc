#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace dar {
namespace obs {

namespace {

/// fetch_add for atomic<double> via CAS (portable across toolchains that
/// predate C++20 floating-point fetch_add).
void AtomicAdd(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (cur < v &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

namespace {

std::string PrometheusName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, "_");
  return out;
}

/// Splits a "base{labels}" instrument name (see LabeledName) into the
/// sanitized base and the verbatim label block ("" when unlabeled). A '{'
/// without a closing '}' at the end is not a label block — the whole name
/// is sanitized, which keeps arbitrary caller strings exportable.
struct SeriesName {
  std::string base;
  std::string labels;  // "{k=\"v\",...}" or ""
};

SeriesName SplitSeries(const std::string& name) {
  SeriesName series;
  size_t brace = name.find('{');
  if (brace != std::string::npos && name.back() == '}' &&
      name.size() - brace > 2) {
    series.base = PrometheusName(name.substr(0, brace));
    series.labels = name.substr(brace);
  } else {
    series.base = PrometheusName(name);
  }
  return series;
}

/// Appends `extra` (e.g. le="0.5") into a label block: "{a=\"b\"}" ->
/// "{a=\"b\",le=\"0.5\"}"; an empty block becomes "{le=\"0.5\"}".
std::string WithExtraLabel(const std::string& labels,
                           const std::string& extra) {
  if (labels.empty()) return "{" + extra + "}";
  return labels.substr(0, labels.size() - 1) + "," + extra + "}";
}

}  // namespace

std::string LabeledName(
    const std::string& base,
    const std::vector<std::pair<std::string, std::string>>& labels) {
  if (labels.empty()) return base;
  std::string out = base + "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += PrometheusName(key) + "=\"";
    for (char c : value) {
      if (c == '\\' || c == '"') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    out += "\"";
  }
  out += "}";
  return out;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    // Ascending edges are a constructor contract, not a runtime input.
    if (bounds_[i] <= bounds_[i - 1]) {
      bounds_.clear();
      buckets_ = std::vector<std::atomic<int64_t>>(1);
      break;
    }
  }
}

size_t Histogram::BucketIndexFor(double v) const {
  size_t idx = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  // upper_bound gives the first edge > v, i.e. edges are inclusive uppers.
  if (idx > 0 && v == bounds_[idx - 1]) --idx;
  return idx;
}

double Histogram::BucketLowerEdge(size_t index) const {
  return index > 0 ? bounds_[index - 1] : 0.0;
}

double Histogram::BucketUpperEdge(size_t index) const {
  return index < bounds_.size() ? bounds_[index]
                                : max_.load(std::memory_order_relaxed);
}

void Histogram::Observe(double v) {
  size_t idx = BucketIndexFor(v);
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(sum_, v);
  AtomicMax(max_, v);
}

void Histogram::ObserveWithExemplar(double v, uint64_t trace_hi,
                                    uint64_t trace_lo) {
  size_t idx = BucketIndexFor(v);
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(sum_, v);
  AtomicMax(max_, v);
  sync::MutexLock lock(exemplar_mu_);
  if (exemplars_.empty()) exemplars_.resize(buckets_.size());
  exemplars_[idx] = Exemplar{true, v, trace_hi, trace_lo};
}

std::vector<Histogram::Exemplar> Histogram::Exemplars() const {
  sync::MutexLock lock(exemplar_mu_);
  return exemplars_;
}

void Histogram::MergeCounts(const int64_t* bucket_counts, int64_t count,
                            double sum, double max) {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (bucket_counts[i] != 0) {
      buckets_[i].fetch_add(bucket_counts[i], std::memory_order_relaxed);
    }
  }
  count_.fetch_add(count, std::memory_order_relaxed);
  AtomicAdd(sum_, sum);
  AtomicMax(max_, max);
}

double Histogram::mean() const {
  int64_t n = count();
  return n > 0 ? sum() / static_cast<double>(n) : 0.0;
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> counts(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

double Histogram::Percentile(double p) const {
  const std::vector<int64_t> counts = BucketCounts();
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0) return 0.0;
  // A single observation has no distribution to interpolate over: report
  // it exactly (the tracked max) instead of a bucket-edge estimate.
  if (total == 1) return max_.load(std::memory_order_relaxed);
  // Nearest-rank target, matching PercentileSorted on exact samples.
  double rank = p / 100.0 * static_cast<double>(total);
  int64_t target = static_cast<int64_t>(std::ceil(rank));
  target = std::max<int64_t>(1, std::min(target, total));

  int64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (seen + counts[i] < target) {
      seen += counts[i];
      continue;
    }
    // The target falls in bucket i: interpolate between its edges. The
    // overflow bucket has no upper edge — its estimate is the exact max.
    double hi = BucketUpperEdge(i);
    double lo = BucketLowerEdge(i);
    double frac = counts[i] > 0 ? static_cast<double>(target - seen) /
                                      static_cast<double>(counts[i])
                                : 1.0;
    double estimate = lo + (hi - lo) * frac;
    // Never report past the exact observed max.
    return std::min(estimate, max_.load(std::memory_order_relaxed));
  }
  return max_.load(std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (std::atomic<int64_t>& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
  sync::MutexLock lock(exemplar_mu_);
  exemplars_.clear();
}

const std::vector<double>& DurationBucketsUs() {
  static const std::vector<double>& buckets = *new std::vector<double>{
      1,     2,     5,     10,    20,    50,    100,   200,   500,
      1e3,   2e3,   5e3,   1e4,   2e4,   5e4,   1e5,   2e5,   5e5,
      1e6,   2e6,   5e6,   1e7};
  return buckets;
}

int64_t PercentileSorted(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  double rank = p / 100.0 * static_cast<double>(sorted.size());
  size_t index = static_cast<size_t>(rank);
  if (static_cast<double>(index) < rank) ++index;  // ceil
  if (index == 0) index = 1;
  if (index > sorted.size()) index = sorted.size();
  return sorted[index - 1];
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  sync::MutexLock lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  sync::MutexLock lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<double>& bounds) {
  sync::MutexLock lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(bounds);
  return *slot;
}

std::string MetricsRegistry::ExportJsonl() const {
  sync::MutexLock lock(mu_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += "{\"type\":\"counter\",\"name\":\"" + JsonEscape(name) +
           "\",\"value\":" + std::to_string(counter->value()) + "}\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out += "{\"type\":\"gauge\",\"name\":\"" + JsonEscape(name) +
           "\",\"value\":" + JsonNumber(gauge->value()) + "}\n";
  }
  for (const auto& [name, hist] : histograms_) {
    out += "{\"type\":\"histogram\",\"name\":\"" + JsonEscape(name) +
           "\",\"count\":" + std::to_string(hist->count()) +
           ",\"sum\":" + JsonNumber(hist->sum()) +
           ",\"mean\":" + JsonNumber(hist->mean()) +
           ",\"max\":" + JsonNumber(hist->max()) +
           ",\"p50\":" + JsonNumber(hist->Percentile(50.0)) +
           ",\"p95\":" + JsonNumber(hist->Percentile(95.0)) +
           ",\"p99\":" + JsonNumber(hist->Percentile(99.0)) + "}\n";
  }
  return out;
}

std::string MetricsRegistry::ExportPrometheus() const {
  sync::MutexLock lock(mu_);
  std::string out;
  char buf[160];
  // Label dimensions of one metric share a base name; the map's name order
  // groups them ("m" sorts right before "m{..."), so one # TYPE line per
  // base name needs only the previous base as dedup state (repeating the
  // TYPE comment for every series would be invalid exposition).
  std::string last_type;
  auto type_line = [&](const std::string& base, const char* kind) {
    if (base == last_type) return;
    last_type = base;
    out += "# TYPE " + base + " " + kind + "\n";
  };
  for (const auto& [name, counter] : counters_) {
    SeriesName series = SplitSeries(name);
    type_line(series.base, "counter");
    std::snprintf(buf, sizeof(buf), "%s%s %lld\n", series.base.c_str(),
                  series.labels.c_str(),
                  static_cast<long long>(counter->value()));
    out += buf;
  }
  last_type.clear();
  for (const auto& [name, gauge] : gauges_) {
    SeriesName series = SplitSeries(name);
    type_line(series.base, "gauge");
    std::snprintf(buf, sizeof(buf), "%s%s %.9g\n", series.base.c_str(),
                  series.labels.c_str(), gauge->value());
    out += buf;
  }
  last_type.clear();
  for (const auto& [name, hist] : histograms_) {
    SeriesName series = SplitSeries(name);
    type_line(series.base, "histogram");
    const std::vector<int64_t> counts = hist->BucketCounts();
    const std::vector<Histogram::Exemplar> exemplars = hist->Exemplars();
    int64_t cumulative = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
      cumulative += counts[i];
      char le[48];
      if (i < hist->bounds().size()) {
        std::snprintf(le, sizeof(le), "le=\"%.9g\"", hist->bounds()[i]);
      } else {
        std::snprintf(le, sizeof(le), "le=\"+Inf\"");
      }
      std::snprintf(buf, sizeof(buf), "%s_bucket%s %lld",
                    series.base.c_str(),
                    WithExtraLabel(series.labels, le).c_str(),
                    static_cast<long long>(cumulative));
      out += buf;
      if (i < exemplars.size() && exemplars[i].valid) {
        // OpenMetrics exemplar syntax: `... N # {trace_id="..."} value`.
        std::snprintf(buf, sizeof(buf),
                      " # {trace_id=\"%016llx%016llx\"} %.9g",
                      static_cast<unsigned long long>(exemplars[i].trace_hi),
                      static_cast<unsigned long long>(exemplars[i].trace_lo),
                      exemplars[i].value);
        out += buf;
      }
      out += "\n";
    }
    std::snprintf(buf, sizeof(buf), "%s_sum%s %.9g\n", series.base.c_str(),
                  series.labels.c_str(), hist->sum());
    out += buf;
    std::snprintf(buf, sizeof(buf), "%s_count%s %lld\n", series.base.c_str(),
                  series.labels.c_str(), static_cast<long long>(hist->count()));
    out += buf;
  }
  return out;
}

void MetricsRegistry::ResetAll() {
  sync::MutexLock lock(mu_);
  for (const auto& [name, counter] : counters_) counter->Reset();
  for (const auto& [name, gauge] : gauges_) gauge->Reset();
  for (const auto& [name, hist] : histograms_) hist->Reset();
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked singleton: worker threads may flush span buffers during static
  // destruction, so the registry must outlive every thread.
  static MetricsRegistry& registry = *new MetricsRegistry();
  return registry;
}

}  // namespace obs
}  // namespace dar

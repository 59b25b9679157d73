// Scoped span timers with per-thread aggregation buffers.
//
// A Span is an RAII timer: construction stamps the clock, destruction
// records the elapsed microseconds into a thread-local buffer keyed by the
// span's (static) name. Buffers hold pre-bucketed aggregates in the shared
// DurationBucketsUs() layout and merge into `span.<name>.us` histograms of
// the trace registry (MetricsRegistry::Global() unless overridden) when
// they grow past a flush threshold, on FlushThreadSpans(), and at thread
// exit — so worker-pool threads never contend on a lock per span.
//
// Spans nest naturally (they are just scoped objects) and are gated by a
// process-wide TraceLevel:
//
//   kOff      — every Span is a single relaxed atomic load (the default;
//               bench/serve_throughput records the naive path's rate at
//               every level).
//   kCoarse   — phase-level spans: train batch/shard/reduce/step, serving
//               batch collect/forward, evaluation.
//   kDetailed — adds the hot kernels: matmul, GRU forward, Gumbel
//               sampling. Costs two clock reads per op; for profiling runs.
//
// Span names must be string literals (or otherwise outlive the process):
// buffers key by pointer identity to keep the record path allocation-free.
#ifndef DAR_OBS_TRACE_H_
#define DAR_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "obs/metrics.h"

namespace dar {
namespace obs {

enum class TraceLevel : int { kOff = 0, kCoarse = 1, kDetailed = 2 };

void SetTraceLevel(TraceLevel level);

namespace internal {
extern std::atomic<int> g_trace_level;
}

/// True when spans at `level` are currently recorded.
inline bool TraceEnabled(TraceLevel level) {
  return internal::g_trace_level.load(std::memory_order_relaxed) >=
         static_cast<int>(level);
}

/// Redirects span flushes to `registry` (nullptr restores the global
/// registry). Flushes buffered spans first so no sample lands in the wrong
/// registry. Tests use this to isolate their span streams.
void SetTraceRegistry(MetricsRegistry* registry);

/// Merges the calling thread's buffered span aggregates into the trace
/// registry. Readers (exporters, benches) call this before snapshotting;
/// it also runs automatically at thread exit and on buffer overflow.
void FlushThreadSpans();

class TraceCollector;  // recorder.h — per-request span accumulator

namespace internal {
void RecordSpan(const char* name, int64_t duration_us);

/// The request collector active on this thread (set by the RAII guards in
/// recorder.h, null otherwise). Spans at kCoarse or coarser also append
/// to it, giving completed requests a span tree without any call-site
/// changes. Reading it costs one thread-local load on the span fast path:
/// constinit lets other translation units skip the TLS init wrapper call
/// (whose result GCC 12's UBSan misreports as a null pointer load).
extern constinit thread_local TraceCollector* g_active_collector;

// Defined in recorder.cc; trace.h stays free of the recorder types.
uint64_t BeginCollectedSpan(TraceCollector* collector);
void EndCollectedSpan(TraceCollector* collector, uint64_t span_id,
                      const char* name,
                      std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point end);
}  // namespace internal

/// Scoped timer. `name` must be a string literal.
///
/// Records into two independent sinks: the per-thread aggregate buffers
/// (when the process TraceLevel admits `level`) and the active request's
/// TraceCollector (when one is stacked and `level` is kCoarse or coarser
/// — request trees never include kDetailed kernel spans). With tracing
/// off and no request active, construction is one relaxed atomic load
/// plus one thread-local load.
class Span {
 public:
  explicit Span(const char* name, TraceLevel level = TraceLevel::kCoarse)
      : active_(TraceEnabled(level)),
        collector_(level <= TraceLevel::kCoarse ? internal::g_active_collector
                                                : nullptr) {
    if (active_ || collector_ != nullptr) {
      name_ = name;
      start_ = std::chrono::steady_clock::now();
      if (collector_ != nullptr) {
        span_id_ = internal::BeginCollectedSpan(collector_);
      }
    }
  }

  ~Span() {
    if (active_ || collector_ != nullptr) {
      auto end = std::chrono::steady_clock::now();
      if (active_) {
        internal::RecordSpan(
            name_, std::chrono::duration_cast<std::chrono::microseconds>(
                       end - start_)
                       .count());
      }
      if (collector_ != nullptr) {
        internal::EndCollectedSpan(collector_, span_id_, name_, start_, end);
      }
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
  TraceCollector* collector_;
  const char* name_ = nullptr;
  uint64_t span_id_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace dar

#endif  // DAR_OBS_TRACE_H_

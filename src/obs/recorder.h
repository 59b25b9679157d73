// Request-tracing consumers: per-request span collection, the always-on
// flight recorder ring, and the tail sampler.
//
// The pipeline, per HTTP request:
//
//   1. The router mints/adopts a TraceContext and stacks a TraceCollector
//      as the thread's active span sink (ScopedRequestTrace). Every
//      obs::Span at kCoarse or coarser that runs while a collector is
//      active appends a SpanRecord to it — the existing span call sites
//      (serve.enqueue, serve.forward, ...) need no changes.
//   2. The micro-batcher carries the collector across threads
//      (CurrentRequestTrace() → Pending). Its worker times the coalesced
//      forward under a scratch collector and AdoptBatch()es the resulting
//      subtree into every parent request, with the co-batched trace ids
//      recorded as links.
//   3. On completion the router Finish()es the collector into a
//      CompletedTrace and hands it to the RequestTracer, which always
//      pushes it into the FlightRecorder ring (fixed memory, lock-free)
//      and additionally retains it in the TailSampler when the request was
//      slow or errored.
//
// The FlightRecorder is built for the crash path: fixed-size POD slots
// written through per-slot seqlocks (word-wise atomic stores, so readers
// and the TSan lane see no data race), a Record() that never blocks and
// never allocates past construction, and a DumpToStderr() that walks the
// ring with stack buffers and write(2) only — callable from the check::
// sentinel trap and from a SIGSEGV handler.
#ifndef DAR_OBS_RECORDER_H_
#define DAR_OBS_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_context.h"
#include "sync/mutex.h"

namespace dar {
namespace obs {

/// One timed span in a request's trace tree. POD with an inline name so
/// span records fit in the flight recorder's fixed-size slots.
struct SpanRecord {
  static constexpr size_t kNameBytes = 32;
  char name[kNameBytes] = {};  // NUL-terminated, truncated copy
  uint64_t span_id = 0;
  /// Parent within the tree; kRootSpanId parents to the request root.
  uint64_t parent_span_id = 0;
  int64_t start_us = 0;  // offset from the request's start
  int64_t duration_us = 0;
  /// On batch spans: how many requests the forward coalesced (0 = not a
  /// batch span).
  int32_t batch_size = 0;
};

/// Why the tail sampler retained a request (also stamped on the ring copy).
enum class TailReason : uint8_t { kNone = 0, kSlow = 1, kError = 2 };

/// Fixed-size request summary: the per-request line /debug/requests lists
/// and the flight recorder stores.
struct RequestSummary {
  char trace_id[33] = {};  // 32 lowercase hex + NUL
  char route[24] = {};
  char model[24] = {};
  int32_t status = 0;
  int64_t latency_us = 0;
  int64_t start_unix_us = 0;  // wall clock at request start
  /// Spans recorded (collector cap applies; the stored vector may be
  /// shorter still after ring truncation).
  uint32_t total_spans = 0;
  uint8_t tail_reason = 0;  // TailReason
};

/// A completed request trace in heap form — what Finish() produces and
/// the /debug routes serialize.
struct CompletedTrace {
  RequestSummary summary;
  std::vector<SpanRecord> spans;
  /// Trace ids (32-hex) of requests coalesced into the same batch, capped
  /// at TraceCollector::kMaxLinks; total_links keeps the true count.
  std::vector<std::string> batch_links;
  uint32_t total_links = 0;
};

/// Per-request span accumulator. Single-threaded by contract within each
/// ownership phase: the connection thread owns it before Submit and after
/// future.get(); the batcher worker owns it in between (the batcher's
/// queue mutex and the promise/future edge order those phases).
class TraceCollector {
 public:
  /// The implicit request-root span id; spans opened with no parent attach
  /// here.
  static constexpr uint64_t kRootSpanId = 1;
  /// Span cap per request: a kCoarse request tree is a handful of spans;
  /// the cap only guards against a pathological caller. Overflow keeps
  /// counting (summary.total_spans) but stops storing.
  static constexpr size_t kMaxSpans = 48;
  static constexpr size_t kMaxLinks = 6;

  explicit TraceCollector(const TraceContext& context);

  const TraceContext& context() const { return context_; }

  /// Opens a span parented to the innermost open span (or the root) and
  /// returns its id. Paired with Close() — obs::Span drives both.
  uint64_t Open();
  void Close(uint64_t span_id, const char* name,
             std::chrono::steady_clock::time_point start,
             std::chrono::steady_clock::time_point end);

  /// Records the co-batched request `other` as a link (self is skipped).
  void AddLink(const TraceContext& other);

  /// Copies `batch`'s closed spans in as a subtree under this request's
  /// root, remapping span ids to stay unique; top-level batch spans get
  /// `batch_size` stamped, and the batch's links become this trace's
  /// batch_links. Called by the batcher worker before fulfilling the
  /// request's promise.
  ///
  /// Exempt from thread-safety analysis: it reads `batch`'s guarded
  /// fields without `batch.mu_` because the source collector is the
  /// calling worker's private scratch (no other thread can touch it), and
  /// locking both would be a same-rank acquisition the lock-rank checker
  /// rightly rejects. Only the destination side locks.
  void AdoptBatch(const TraceCollector& batch,
                  int32_t batch_size) DAR_NO_THREAD_SAFETY_ANALYSIS;

  /// Seals the trace: emits the root span covering [request start, now]
  /// and returns the heap-form trace. The collector is spent afterwards.
  CompletedTrace Finish(const std::string& route, const std::string& model,
                        int status);

 private:
  /// The request thread closes its serve.enqueue span while the batch
  /// worker may already be grafting via AdoptBatch — the only window
  /// with concurrent access (between queue push and promise
  /// fulfillment), so every mutator takes this uncontended-in-practice
  /// lock. AdoptBatch's *source* collector is the worker's own scratch
  /// and needs no locking.
  mutable sync::Mutex mu_{sync::Rank::kObsDetail, "obs.trace_collector"};
  TraceContext context_;
  std::chrono::steady_clock::time_point start_;
  int64_t start_unix_us_ = 0;
  uint64_t next_span_id_ DAR_GUARDED_BY(mu_) = kRootSpanId + 1;
  std::vector<uint64_t> open_ DAR_GUARDED_BY(mu_);  // stack of open span ids
  std::vector<SpanRecord> spans_ DAR_GUARDED_BY(mu_);
  std::vector<TraceContext> links_ DAR_GUARDED_BY(mu_);
  uint32_t total_spans_ DAR_GUARDED_BY(mu_) = 0;
  uint32_t total_links_ DAR_GUARDED_BY(mu_) = 0;
};

/// Lock-free ring of the last N completed request traces, fixed memory.
class FlightRecorder {
 public:
  struct Config {
    /// Hard byte budget for the slot array; the slot count is derived
    /// (floor(budget / slot size), minimum 8 slots).
    size_t budget_bytes = 256 * 1024;
  };

  /// Spans stored per slot; deeper trees are truncated (the summary's
  /// total_spans keeps the true count).
  static constexpr size_t kSlotSpans = 16;
  static constexpr size_t kSlotLinks = TraceCollector::kMaxLinks;

  FlightRecorder();  // default Config
  explicit FlightRecorder(Config config);

  /// Records one completed trace. Never blocks: each call claims a unique
  /// ticket; in the (ring-wrap) race where the claimed slot is still being
  /// written by another thread, the record is dropped and counted.
  void Record(const CompletedTrace& trace);

  /// Consistent copies of every live slot, newest first.
  std::vector<CompletedTrace> Snapshot() const;

  /// Finds a recorded trace by its 32-hex id (newest match wins).
  bool Find(const std::string& trace_id_hex, CompletedTrace* out) const;

  /// Dumps the ring to stderr as JSONL between marker lines. Stack
  /// buffers and write(2) only — safe from the sentinel trap path and
  /// usable from a fatal-signal handler.
  void DumpToStderr() const;

  size_t num_slots() const { return slots_.size(); }
  /// Actual bytes held by the slot array (<= config budget).
  size_t footprint_bytes() const;
  int64_t recorded() const { return head_.load(std::memory_order_relaxed); }
  int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  const Config& config() const { return config_; }

  /// Process-wide ring: always on, the instance the sentinel trap and the
  /// crash handler dump. Leaked so worker threads can record during static
  /// destruction.
  static FlightRecorder& Global();

 private:
  /// POD image of one recorded trace, copied through word-size atomics.
  struct SlotPayload {
    uint64_t ticket = 0;
    RequestSummary summary;
    uint32_t stored_spans = 0;
    uint32_t stored_links = 0;
    uint32_t total_links = 0;
    SpanRecord spans[kSlotSpans];
    uint64_t link_ids[kSlotLinks][2];  // trace id hi/lo pairs
  };
  static constexpr size_t kPayloadWords =
      (sizeof(SlotPayload) + sizeof(uint64_t) - 1) / sizeof(uint64_t);

  struct Slot {
    /// Seqlock: even = stable (0 = never written), odd = write in
    /// progress. Payload words are relaxed atomics so concurrent
    /// reader/writer word accesses are race-free; the seq check discards
    /// torn snapshots.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> words[kPayloadWords];
  };

  /// False when the slot was empty or a writer interleaved (torn read).
  bool ReadSlot(const Slot& slot, SlotPayload* out) const;
  static CompletedTrace PayloadToTrace(const SlotPayload& payload);

  Config config_;
  std::vector<Slot> slots_;
  std::atomic<uint64_t> head_{0};
  std::atomic<int64_t> dropped_{0};
};

/// Bounded retention of full span trees for slow / errored requests.
/// Mutex-guarded — it runs once per *sampled* request, never on the
/// fast path.
class TailSampler {
 public:
  struct Config {
    /// Requests at or above this end-to-end latency are retained. A value
    /// < 0 disables slow-sampling (errors are still retained).
    int64_t latency_threshold_us = 250000;
    /// FIFO capacity; the oldest retained trace is evicted past it.
    size_t max_traces = 64;
  };

  TailSampler();  // default Config
  explicit TailSampler(Config config);

  /// Retains `trace` when it qualifies and stamps summary.tail_reason;
  /// returns the reason (kNone = not sampled). `error` marks failures the
  /// status alone doesn't show (the caller passes status >= 400 itself).
  TailReason Consider(const std::shared_ptr<CompletedTrace>& trace,
                      bool error);

  std::shared_ptr<const CompletedTrace> Find(
      const std::string& trace_id_hex) const;

  /// Summaries sampled since the last drain (the serving example's
  /// slow-request log reads these).
  std::vector<RequestSummary> DrainNew();

  size_t size() const;
  const Config& config() const { return config_; }

 private:
  Config config_;
  mutable sync::Mutex mu_{sync::Rank::kObsDetail, "obs.tail_sampler"};
  std::map<std::string, std::shared_ptr<const CompletedTrace>> traces_
      DAR_GUARDED_BY(mu_);
  /// Insertion order, for eviction.
  std::deque<std::string> order_ DAR_GUARDED_BY(mu_);
  std::deque<RequestSummary> fresh_ DAR_GUARDED_BY(mu_);
};

/// Request tracing settings: `enabled` turns per-request traces on, and
/// `tail.latency_threshold_us` is the slow-request threshold (< 0 retains
/// only errors). Every RequestTracer installs the flight recorder's crash
/// dump (InstallFlightRecorderCrashDump).
struct TracerConfig {
  bool enabled = true;
  TailSampler::Config tail;
};

/// Tracer facade the router owns: completion fan-out to the global flight
/// recorder + a private tail sampler, and the lookup the /debug routes
/// serve from.
class RequestTracer {
 public:
  RequestTracer();  // default TracerConfig
  explicit RequestTracer(TracerConfig config);

  /// Completes one request: stamps the tail reason, records into the
  /// global ring, and tail-samples. Returns the tail reason.
  TailReason Complete(CompletedTrace trace);

  /// Tail store first (full tree survives ring wrap), then the ring.
  bool FindTrace(const std::string& trace_id_hex, CompletedTrace* out) const;

  std::vector<RequestSummary> DrainTailSampled() {
    return tail_.DrainNew();
  }

  FlightRecorder& ring() const { return FlightRecorder::Global(); }
  const TailSampler& tail() const { return tail_; }
  const TracerConfig& config() const { return config_; }

 private:
  TracerConfig config_;
  TailSampler tail_;
};

/// Installs SIGSEGV/SIGBUS handlers that DumpToStderr() the global ring
/// and re-raise with default disposition. Idempotent.
void InstallFlightRecorderCrashDump();

// ---- Active-collector plumbing ---------------------------------------------
//
// obs::Span reads the thread-local active collector (see trace.h); these
// RAII guards set it. ScopedRequestTrace additionally publishes the shared
// handle the micro-batcher picks up to carry the trace across threads.

class ScopedActiveCollector {
 public:
  explicit ScopedActiveCollector(TraceCollector* collector);
  ~ScopedActiveCollector();
  ScopedActiveCollector(const ScopedActiveCollector&) = delete;
  ScopedActiveCollector& operator=(const ScopedActiveCollector&) = delete;

 private:
  TraceCollector* prev_;
};

class ScopedRequestTrace {
 public:
  explicit ScopedRequestTrace(std::shared_ptr<TraceCollector> collector);
  ~ScopedRequestTrace();
  ScopedRequestTrace(const ScopedRequestTrace&) = delete;
  ScopedRequestTrace& operator=(const ScopedRequestTrace&) = delete;

 private:
  ScopedActiveCollector raw_;
  std::shared_ptr<TraceCollector> prev_shared_;
};

/// The shared handle of the request trace active on this thread (null
/// outside a ScopedRequestTrace). The micro-batcher stores this in the
/// queued request so the worker can attach batch spans.
std::shared_ptr<TraceCollector> CurrentRequestTrace();

}  // namespace obs
}  // namespace dar

#endif  // DAR_OBS_RECORDER_H_

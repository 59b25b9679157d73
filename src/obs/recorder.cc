#include "obs/recorder.h"

#include <csignal>
#include <cstdio>
#include <unistd.h>

#include <algorithm>

namespace dar {
namespace obs {

namespace {

int64_t NowUnixUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void CopyString(char* dst, size_t cap, const char* src) {
  size_t i = 0;
  for (; src[i] != '\0' && i + 1 < cap; ++i) dst[i] = src[i];
  dst[i] = '\0';
}

}  // namespace

// ---- TraceCollector --------------------------------------------------------

TraceCollector::TraceCollector(const TraceContext& context)
    : context_(context),
      start_(std::chrono::steady_clock::now()),
      start_unix_us_(NowUnixUs()) {
  spans_.reserve(8);
}

uint64_t TraceCollector::Open() {
  sync::MutexLock lock(mu_);
  uint64_t id = next_span_id_++;
  open_.push_back(id);
  return id;
}

void TraceCollector::Close(uint64_t span_id, const char* name,
                           std::chrono::steady_clock::time_point start,
                           std::chrono::steady_clock::time_point end) {
  sync::MutexLock lock(mu_);
  uint64_t parent = kRootSpanId;
  for (size_t i = open_.size(); i-- > 0;) {
    if (open_[i] == span_id) {
      parent = i > 0 ? open_[i - 1] : kRootSpanId;
      open_.erase(open_.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  ++total_spans_;
  if (spans_.size() >= kMaxSpans) return;
  SpanRecord rec;
  CopyString(rec.name, sizeof(rec.name), name);
  rec.span_id = span_id;
  rec.parent_span_id = parent;
  rec.start_us =
      std::chrono::duration_cast<std::chrono::microseconds>(start - start_)
          .count();
  rec.duration_us =
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count();
  spans_.push_back(rec);
}

void TraceCollector::AddLink(const TraceContext& other) {
  sync::MutexLock lock(mu_);
  ++total_links_;
  if (links_.size() < kMaxLinks) links_.push_back(other);
}

void TraceCollector::AdoptBatch(const TraceCollector& batch,
                                int32_t batch_size) {
  // `batch` is the calling worker's own scratch collector — no other
  // thread touches it — so only this (destination) side locks.
  sync::MutexLock lock(mu_);
  // Remap the batch subtree's span ids past our own so both id spaces stay
  // disjoint under the shared root.
  const uint64_t base = next_span_id_;
  for (const SpanRecord& span : batch.spans_) {
    ++total_spans_;
    if (spans_.size() >= kMaxSpans) continue;
    SpanRecord rec = span;
    rec.span_id = span.span_id + base;
    rec.parent_span_id = span.parent_span_id == kRootSpanId
                             ? kRootSpanId
                             : span.parent_span_id + base;
    if (span.parent_span_id == kRootSpanId && rec.batch_size == 0) {
      rec.batch_size = batch_size;
    }
    // Re-base the batch-relative clock onto this request's timeline.
    int64_t skew = std::chrono::duration_cast<std::chrono::microseconds>(
                       batch.start_ - start_)
                       .count();
    rec.start_us += skew;
    spans_.push_back(rec);
  }
  next_span_id_ += batch.next_span_id_;
  // The batch links every co-batched request, ourselves included — keep
  // only the others.
  for (const TraceContext& link : batch.links_) {
    if (link.SameTrace(context_)) continue;
    if (links_.size() < kMaxLinks) links_.push_back(link);
  }
  total_links_ +=
      batch.total_links_ > 0 ? batch.total_links_ - 1 : 0;
}

CompletedTrace TraceCollector::Finish(const std::string& route,
                                      const std::string& model, int status) {
  sync::MutexLock lock(mu_);
  CompletedTrace out;
  int64_t latency_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start_)
                           .count();
  SpanRecord root;
  CopyString(root.name, sizeof(root.name), "http.request");
  root.span_id = kRootSpanId;
  root.parent_span_id = 0;
  root.start_us = 0;
  root.duration_us = latency_us;
  out.spans.reserve(spans_.size() + 1);
  out.spans.push_back(root);
  out.spans.insert(out.spans.end(), spans_.begin(), spans_.end());

  RequestSummary& s = out.summary;
  CopyString(s.trace_id, sizeof(s.trace_id), TraceIdHex(context_).c_str());
  CopyString(s.route, sizeof(s.route), route.c_str());
  CopyString(s.model, sizeof(s.model), model.c_str());
  s.status = status;
  s.latency_us = latency_us;
  s.start_unix_us = start_unix_us_;
  s.total_spans = total_spans_ + 1;  // + the root

  out.batch_links.reserve(links_.size());
  for (const TraceContext& link : links_) {
    out.batch_links.push_back(TraceIdHex(link));
  }
  out.total_links = total_links_;
  return out;
}

// ---- FlightRecorder --------------------------------------------------------

FlightRecorder::FlightRecorder() : FlightRecorder(Config()) {}

FlightRecorder::FlightRecorder(Config config) : config_(config) {
  size_t slots = config_.budget_bytes / sizeof(Slot);
  slots_ = std::vector<Slot>(std::max<size_t>(slots, 8));
}

size_t FlightRecorder::footprint_bytes() const {
  return slots_.size() * sizeof(Slot);
}

void FlightRecorder::Record(const CompletedTrace& trace) {
  const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket % slots_.size()];
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  if (seq & 1) {  // another writer wrapped onto this slot mid-write
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!slot.seq.compare_exchange_strong(seq, seq + 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  SlotPayload payload{};  // value-init zeroes every field and array
  payload.ticket = ticket + 1;  // 1-based so 0 never looks like a record
  payload.summary = trace.summary;
  payload.stored_spans = static_cast<uint32_t>(
      std::min(trace.spans.size(), static_cast<size_t>(kSlotSpans)));
  for (uint32_t i = 0; i < payload.stored_spans; ++i) {
    payload.spans[i] = trace.spans[i];
  }
  payload.total_links = trace.total_links;
  uint32_t links = 0;
  for (const std::string& link : trace.batch_links) {
    if (links >= kSlotLinks) break;
    uint64_t hi = 0, lo = 0;
    if (!ParseTraceIdHex(link, &hi, &lo)) continue;
    payload.link_ids[links][0] = hi;
    payload.link_ids[links][1] = lo;
    ++links;
  }
  payload.stored_links = links;

  uint64_t words[kPayloadWords];
  std::memset(words, 0, sizeof(words));
  std::memcpy(words, &payload, sizeof(payload));
  for (size_t i = 0; i < kPayloadWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
  slot.seq.store(seq + 2, std::memory_order_release);
}

bool FlightRecorder::ReadSlot(const Slot& slot, SlotPayload* out) const {
  for (int attempt = 0; attempt < 4; ++attempt) {
    uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq == 0) return false;  // never written
    if (seq & 1) continue;       // write in progress — retry
    uint64_t words[kPayloadWords];
    for (size_t i = 0; i < kPayloadWords; ++i) {
      words[i] = slot.words[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != seq) continue;  // torn
    std::memcpy(out, words, sizeof(*out));
    return true;
  }
  return false;
}

CompletedTrace FlightRecorder::PayloadToTrace(const SlotPayload& payload) {
  CompletedTrace trace;
  trace.summary = payload.summary;
  // Defensive NUL-termination: the payload crossed a lock-free copy.
  trace.summary.trace_id[sizeof(trace.summary.trace_id) - 1] = '\0';
  trace.summary.route[sizeof(trace.summary.route) - 1] = '\0';
  trace.summary.model[sizeof(trace.summary.model) - 1] = '\0';
  uint32_t spans = std::min<uint32_t>(payload.stored_spans, kSlotSpans);
  trace.spans.reserve(spans);
  for (uint32_t i = 0; i < spans; ++i) {
    trace.spans.push_back(payload.spans[i]);
    trace.spans.back().name[SpanRecord::kNameBytes - 1] = '\0';
  }
  uint32_t links = std::min<uint32_t>(payload.stored_links, kSlotLinks);
  for (uint32_t i = 0; i < links; ++i) {
    trace.batch_links.push_back(
        TraceIdHex(payload.link_ids[i][0], payload.link_ids[i][1]));
  }
  trace.total_links = payload.total_links;
  return trace;
}

std::vector<CompletedTrace> FlightRecorder::Snapshot() const {
  std::vector<std::pair<uint64_t, CompletedTrace>> found;
  found.reserve(slots_.size());
  SlotPayload payload;
  for (const Slot& slot : slots_) {
    if (!ReadSlot(slot, &payload)) continue;
    found.emplace_back(payload.ticket, PayloadToTrace(payload));
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<CompletedTrace> out;
  out.reserve(found.size());
  for (auto& entry : found) out.push_back(std::move(entry.second));
  return out;
}

bool FlightRecorder::Find(const std::string& trace_id_hex,
                          CompletedTrace* out) const {
  uint64_t hi = 0, lo = 0;
  if (!ParseTraceIdHex(trace_id_hex, &hi, &lo)) return false;
  const std::string canonical = TraceIdHex(hi, lo);
  uint64_t best_ticket = 0;
  bool hit = false;
  SlotPayload payload;
  for (const Slot& slot : slots_) {
    if (!ReadSlot(slot, &payload)) continue;
    payload.summary.trace_id[sizeof(payload.summary.trace_id) - 1] = '\0';
    if (canonical != payload.summary.trace_id) continue;
    if (!hit || payload.ticket > best_ticket) {
      best_ticket = payload.ticket;
      *out = PayloadToTrace(payload);
      hit = true;
    }
  }
  return hit;
}

namespace {

// Crash-path formatting: bounded buffers, no heap, write(2) only.
// snprintf with only %s/integer conversions does not allocate on glibc;
// floats are deliberately avoided.

void WriteRaw(const char* data, size_t len) {
  // Best-effort: a crash dump cannot do anything about a failed write.
  ssize_t rc = write(STDERR_FILENO, data, len);
  (void)rc;
}

size_t AppendHexChars(char* dst, size_t cap, uint64_t value, int digits) {
  if (static_cast<size_t>(digits) >= cap) return 0;
  for (int i = digits - 1; i >= 0; --i) {
    dst[i] = "0123456789abcdef"[value & 0xf];
    value >>= 4;
  }
  dst[digits] = '\0';
  return static_cast<size_t>(digits);
}

}  // namespace

void FlightRecorder::DumpToStderr() const {
  char buf[4096];
  int n = std::snprintf(
      buf, sizeof(buf),
      "=== DAR flight recorder begin (slots=%zu recorded=%lld dropped=%lld "
      "bytes=%zu) ===\n",
      slots_.size(), static_cast<long long>(recorded()),
      static_cast<long long>(dropped()), footprint_bytes());
  if (n > 0) WriteRaw(buf, static_cast<size_t>(n));

  SlotPayload payload;
  for (const Slot& slot : slots_) {
    if (!ReadSlot(slot, &payload)) continue;
    payload.summary.trace_id[sizeof(payload.summary.trace_id) - 1] = '\0';
    payload.summary.route[sizeof(payload.summary.route) - 1] = '\0';
    payload.summary.model[sizeof(payload.summary.model) - 1] = '\0';
    size_t pos = 0;
    pos += static_cast<size_t>(std::snprintf(
        buf + pos, sizeof(buf) - pos,
        "{\"ticket\":%llu,\"trace_id\":\"%s\",\"route\":\"%s\","
        "\"model\":\"%s\",\"status\":%d,\"latency_us\":%lld,"
        "\"start_unix_us\":%lld,\"total_spans\":%u,\"tail_reason\":%d,"
        "\"spans\":[",
        static_cast<unsigned long long>(payload.ticket),
        payload.summary.trace_id, payload.summary.route,
        payload.summary.model, payload.summary.status,
        static_cast<long long>(payload.summary.latency_us),
        static_cast<long long>(payload.summary.start_unix_us),
        payload.summary.total_spans,
        static_cast<int>(payload.summary.tail_reason)));
    uint32_t spans = std::min<uint32_t>(payload.stored_spans, kSlotSpans);
    for (uint32_t i = 0; i < spans && pos + 256 < sizeof(buf); ++i) {
      SpanRecord& span = payload.spans[i];
      span.name[SpanRecord::kNameBytes - 1] = '\0';
      char span_hex[17], parent_hex[17];
      AppendHexChars(span_hex, sizeof(span_hex), span.span_id, 16);
      AppendHexChars(parent_hex, sizeof(parent_hex), span.parent_span_id, 16);
      pos += static_cast<size_t>(std::snprintf(
          buf + pos, sizeof(buf) - pos,
          "%s{\"name\":\"%s\",\"span_id\":\"%s\",\"parent\":\"%s\","
          "\"start_us\":%lld,\"dur_us\":%lld,\"batch\":%d}",
          i == 0 ? "" : ",", span.name, span_hex, parent_hex,
          static_cast<long long>(span.start_us),
          static_cast<long long>(span.duration_us), span.batch_size));
    }
    pos += static_cast<size_t>(
        std::snprintf(buf + pos, sizeof(buf) - pos, "],\"links\":["));
    uint32_t links = std::min<uint32_t>(payload.stored_links, kSlotLinks);
    for (uint32_t i = 0; i < links && pos + 64 < sizeof(buf); ++i) {
      char hex[33];
      AppendHexChars(hex, 17, payload.link_ids[i][0], 16);
      AppendHexChars(hex + 16, 17, payload.link_ids[i][1], 16);
      pos += static_cast<size_t>(std::snprintf(buf + pos, sizeof(buf) - pos,
                                               "%s\"%s\"", i == 0 ? "" : ",",
                                               hex));
    }
    pos += static_cast<size_t>(
        std::snprintf(buf + pos, sizeof(buf) - pos, "]}\n"));
    pos = std::min(pos, sizeof(buf) - 1);
    WriteRaw(buf, pos);
  }

  n = std::snprintf(buf, sizeof(buf), "=== DAR flight recorder end ===\n");
  if (n > 0) WriteRaw(buf, static_cast<size_t>(n));
}

FlightRecorder& FlightRecorder::Global() {
  // Leaked: worker threads may record during static destruction.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

// ---- TailSampler -----------------------------------------------------------

TailSampler::TailSampler() : TailSampler(Config()) {}

TailSampler::TailSampler(Config config) : config_(std::move(config)) {}

TailReason TailSampler::Consider(const std::shared_ptr<CompletedTrace>& trace,
                                 bool error) {
  TailReason reason = TailReason::kNone;
  const int64_t threshold_us = config_.latency_threshold_us;
  if (error || trace->summary.status >= 400) {
    reason = TailReason::kError;
  } else if (threshold_us >= 0 && trace->summary.latency_us >= threshold_us) {
    reason = TailReason::kSlow;
  }
  trace->summary.tail_reason = static_cast<uint8_t>(reason);
  if (reason == TailReason::kNone) return reason;

  std::string key = trace->summary.trace_id;
  sync::MutexLock lock(mu_);
  fresh_.push_back(trace->summary);
  if (fresh_.size() > config_.max_traces) fresh_.pop_front();
  auto inserted = traces_.emplace(key, trace);
  if (!inserted.second) {
    inserted.first->second = trace;  // same id resampled: keep the newest
    return reason;
  }
  order_.push_back(std::move(key));
  while (order_.size() > config_.max_traces) {
    traces_.erase(order_.front());
    order_.pop_front();
  }
  return reason;
}

std::shared_ptr<const CompletedTrace> TailSampler::Find(
    const std::string& trace_id_hex) const {
  sync::MutexLock lock(mu_);
  auto it = traces_.find(trace_id_hex);
  return it != traces_.end() ? it->second : nullptr;
}

std::vector<RequestSummary> TailSampler::DrainNew() {
  sync::MutexLock lock(mu_);
  std::vector<RequestSummary> out(fresh_.begin(), fresh_.end());
  fresh_.clear();
  return out;
}

size_t TailSampler::size() const {
  sync::MutexLock lock(mu_);
  return traces_.size();
}

// ---- RequestTracer ---------------------------------------------------------

RequestTracer::RequestTracer() : RequestTracer(TracerConfig()) {}

RequestTracer::RequestTracer(TracerConfig config)
    : config_(std::move(config)), tail_(config_.tail) {
  InstallFlightRecorderCrashDump();
}

TailReason RequestTracer::Complete(CompletedTrace trace) {
  auto shared = std::make_shared<CompletedTrace>(std::move(trace));
  // Consider() stamps tail_reason before the ring copy is taken, so the
  // flight recorder and the tail store agree on why a request was kept.
  TailReason reason = tail_.Consider(shared, /*error=*/false);
  FlightRecorder::Global().Record(*shared);
  return reason;
}

bool RequestTracer::FindTrace(const std::string& trace_id_hex,
                              CompletedTrace* out) const {
  if (auto tail_hit = tail_.Find(trace_id_hex)) {
    *out = *tail_hit;
    return true;
  }
  return FlightRecorder::Global().Find(trace_id_hex, out);
}

// ---- Crash dump ------------------------------------------------------------

namespace {

void CrashDumpHandler(int sig) {
  FlightRecorder::Global().DumpToStderr();
  // SA_RESETHAND restored the default disposition; re-raise so the process
  // still dies with the original signal (core dump, wait status).
  raise(sig);
}

void MaybeInstall(int sig, const struct sigaction& sa) {
  struct sigaction old;
  std::memset(&old, 0, sizeof(old));
  if (sigaction(sig, nullptr, &old) != 0) return;
  // Leave non-default handlers alone — sanitizers install their own
  // SIGSEGV reporting and must keep it.
  if (old.sa_handler != SIG_DFL || (old.sa_flags & SA_SIGINFO) != 0) return;
  sigaction(sig, &sa, nullptr);
}

}  // namespace

void InstallFlightRecorderCrashDump() {
  static std::atomic<bool> installed{false};
  bool expected = false;
  if (!installed.compare_exchange_strong(expected, true)) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = CrashDumpHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  MaybeInstall(SIGSEGV, sa);
  MaybeInstall(SIGBUS, sa);
}

// ---- Active-collector plumbing ---------------------------------------------

namespace internal {
constinit thread_local TraceCollector* g_active_collector = nullptr;

uint64_t BeginCollectedSpan(TraceCollector* collector) {
  return collector->Open();
}

void EndCollectedSpan(TraceCollector* collector, uint64_t span_id,
                      const char* name,
                      std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point end) {
  collector->Close(span_id, name, start, end);
}
}  // namespace internal

namespace {
thread_local std::shared_ptr<TraceCollector> g_request_trace;
}

ScopedActiveCollector::ScopedActiveCollector(TraceCollector* collector)
    : prev_(internal::g_active_collector) {
  internal::g_active_collector = collector;
}

ScopedActiveCollector::~ScopedActiveCollector() {
  internal::g_active_collector = prev_;
}

ScopedRequestTrace::ScopedRequestTrace(
    std::shared_ptr<TraceCollector> collector)
    : raw_(collector.get()) {
  prev_shared_ = std::move(g_request_trace);
  g_request_trace = std::move(collector);
}

ScopedRequestTrace::~ScopedRequestTrace() {
  g_request_trace = std::move(prev_shared_);
}

std::shared_ptr<TraceCollector> CurrentRequestTrace() {
  return g_request_trace;
}

}  // namespace obs
}  // namespace dar

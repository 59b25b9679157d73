// Tests for request tracing (src/obs/ trace_context + recorder, and its
// integration through net::Router and serve::MicroBatcher): traceparent
// parser conformance against a malformed corpus, span-tree collection and
// batch adoption, histogram exemplars and their OpenMetrics exposition,
// flight-recorder wraparound + concurrent writers (the TSan lane runs this
// binary), the tail sampler, the /debug routes end-to-end, bit-identical
// response bodies with tracing on vs off, and the sentinel-trap ring dump
// (death test).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/sentinel.h"
#include "core/rnp.h"
#include "datasets/beer.h"
#include "eval/experiment.h"
#include "net/client.h"
#include "net/http.h"
#include "net/routes.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "serve/registry.h"
#include "serve/session.h"

namespace dar {
namespace {

// ---------------------------------------------------------------------------
// TraceContext / traceparent
// ---------------------------------------------------------------------------

TEST(TraceContextTest, MintedContextsAreValidAndDistinct) {
  std::set<std::string> seen;
  for (int i = 0; i < 64; ++i) {
    obs::TraceContext ctx = obs::MakeTraceContext();
    EXPECT_TRUE(ctx.valid());
    EXPECT_NE(ctx.span_id, 0u);
    EXPECT_EQ(ctx.flags, 0x01);
    seen.insert(obs::TraceIdHex(ctx));
  }
  EXPECT_EQ(seen.size(), 64u);
}

TEST(TraceContextTest, FormatParseRoundTrip) {
  obs::TraceContext ctx = obs::MakeTraceContext();
  std::string header = obs::FormatTraceparent(ctx);
  EXPECT_EQ(header.size(), 55u);
  obs::TraceContext parsed;
  ASSERT_TRUE(obs::ParseTraceparent(header, &parsed));
  EXPECT_EQ(parsed.trace_id_hi, ctx.trace_id_hi);
  EXPECT_EQ(parsed.trace_id_lo, ctx.trace_id_lo);
  EXPECT_EQ(parsed.span_id, ctx.span_id);
  EXPECT_EQ(parsed.flags, ctx.flags);
}

TEST(TraceContextTest, ParsesW3cExample) {
  obs::TraceContext ctx;
  ASSERT_TRUE(obs::ParseTraceparent(
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", &ctx));
  EXPECT_EQ(ctx.trace_id_hi, 0x0af7651916cd43ddULL);
  EXPECT_EQ(ctx.trace_id_lo, 0x8448eb211c80319cULL);
  EXPECT_EQ(ctx.span_id, 0xb7ad6b7169203331ULL);
  EXPECT_EQ(ctx.flags, 0x01);
  EXPECT_EQ(obs::TraceIdHex(ctx), "0af7651916cd43dd8448eb211c80319c");
}

TEST(TraceContextTest, UnknownVersionForwardCompat) {
  // A future version may append "-extra" fields; the 00-layout prefix must
  // still parse (per the spec's forward-compatibility rule).
  const std::string prefix =
      "cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
  obs::TraceContext ctx;
  EXPECT_TRUE(obs::ParseTraceparent(prefix, &ctx));
  EXPECT_TRUE(obs::ParseTraceparent(prefix + "-anything", &ctx));
  // Trailing bytes without a dash separator are malformed for any version.
  EXPECT_FALSE(obs::ParseTraceparent(prefix + "junk", &ctx));
  // Version 00 is exact-length: nothing may follow, not even a dash.
  EXPECT_FALSE(obs::ParseTraceparent(
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-x", &ctx));
}

TEST(TraceContextTest, MalformedCorpusNeverParses) {
  const char* corpus[] = {
      "",
      "00",
      "00-",
      "garbage",
      // 54 chars (span id one short)
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333-01",
      // version ff is forbidden
      "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
      // uppercase hex violates the traceparent grammar
      "00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01",
      // all-zero trace id / span id are the invalid values
      "00-00000000000000000000000000000000-b7ad6b7169203331-01",
      "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
      // wrong separators
      "00_0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
      "00-0af7651916cd43dd8448eb211c80319c_b7ad6b7169203331-01",
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331_01",
      // non-hex bytes in each field
      "0g-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
      "00-zzf7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
      "00-0af7651916cd43dd8448eb211c80319c-zzad6b7169203331-01",
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz",
  };
  for (const char* bad : corpus) {
    obs::TraceContext ctx;
    EXPECT_FALSE(obs::ParseTraceparent(bad, &ctx)) << "parsed: " << bad;
  }
}

TEST(TraceContextTest, TraceIdHexParsing) {
  uint64_t hi = 0;
  uint64_t lo = 0;
  ASSERT_TRUE(
      obs::ParseTraceIdHex("0af7651916cd43dd8448eb211c80319c", &hi, &lo));
  EXPECT_EQ(hi, 0x0af7651916cd43ddULL);
  EXPECT_EQ(lo, 0x8448eb211c80319cULL);
  // Uppercase is accepted here (humans paste ids), unlike traceparent.
  ASSERT_TRUE(
      obs::ParseTraceIdHex("0AF7651916CD43DD8448EB211C80319C", &hi, &lo));
  EXPECT_EQ(hi, 0x0af7651916cd43ddULL);
  EXPECT_FALSE(obs::ParseTraceIdHex("0af7", &hi, &lo));
  EXPECT_FALSE(
      obs::ParseTraceIdHex("0af7651916cd43dd8448eb211c80319cff", &hi, &lo));
  EXPECT_FALSE(
      obs::ParseTraceIdHex("0af7651916cd43dd8448eb211c80319z", &hi, &lo));
}

// ---------------------------------------------------------------------------
// TraceCollector
// ---------------------------------------------------------------------------

const obs::SpanRecord* FindSpan(const obs::CompletedTrace& trace,
                                const std::string& name) {
  for (const obs::SpanRecord& span : trace.spans) {
    if (name == span.name) return &span;
  }
  return nullptr;
}

TEST(TraceCollectorTest, SpansBuildATreeUnderTheRoot) {
  obs::TraceCollector collector(obs::MakeTraceContext());
  {
    obs::ScopedActiveCollector guard(&collector);
    obs::Span outer("outer");
    { obs::Span inner("inner"); }
    // kDetailed kernel spans never enter request trees.
    { obs::Span kernel("matmul", obs::TraceLevel::kDetailed); }
  }
  obs::CompletedTrace trace = collector.Finish("predict", "beer", 200);

  EXPECT_EQ(trace.summary.total_spans, 3u);  // root + outer + inner
  ASSERT_EQ(trace.spans.size(), 3u);
  const obs::SpanRecord* root = FindSpan(trace, "http.request");
  const obs::SpanRecord* outer = FindSpan(trace, "outer");
  const obs::SpanRecord* inner = FindSpan(trace, "inner");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(FindSpan(trace, "matmul"), nullptr);
  EXPECT_EQ(root->span_id, obs::TraceCollector::kRootSpanId);
  EXPECT_EQ(outer->parent_span_id, root->span_id);
  EXPECT_EQ(inner->parent_span_id, outer->span_id);
  EXPECT_STREQ(trace.summary.route, "predict");
  EXPECT_STREQ(trace.summary.model, "beer");
  EXPECT_EQ(trace.summary.status, 200);
  EXPECT_GE(trace.summary.latency_us, 0);
}

TEST(TraceCollectorTest, SpanCapStopsStoringButKeepsCounting) {
  obs::TraceCollector collector(obs::MakeTraceContext());
  {
    obs::ScopedActiveCollector guard(&collector);
    for (int i = 0; i < 100; ++i) {
      obs::Span span("looped");
    }
  }
  obs::CompletedTrace trace = collector.Finish("predict", "beer", 200);
  EXPECT_EQ(trace.summary.total_spans, 101u);  // 100 + root
  EXPECT_LE(trace.spans.size(), obs::TraceCollector::kMaxSpans + 1);
}

TEST(TraceCollectorTest, AdoptBatchRemapsSpansAndLinksPeers) {
  obs::TraceContext mine = obs::MakeTraceContext();
  obs::TraceContext peer = obs::MakeTraceContext();
  obs::TraceCollector collector(mine);
  {
    obs::ScopedActiveCollector guard(&collector);
    obs::Span enqueue("serve.enqueue");
  }

  obs::TraceCollector batch(obs::MakeTraceContext());
  batch.AddLink(mine);
  batch.AddLink(peer);
  {
    obs::ScopedActiveCollector guard(&batch);
    obs::Span batch_span("serve.batch");
    { obs::Span forward("serve.forward"); }
  }
  collector.AdoptBatch(batch, 2);

  obs::CompletedTrace trace = collector.Finish("predict", "beer", 200);
  const obs::SpanRecord* batch_span = FindSpan(trace, "serve.batch");
  const obs::SpanRecord* forward = FindSpan(trace, "serve.forward");
  const obs::SpanRecord* enqueue = FindSpan(trace, "serve.enqueue");
  ASSERT_NE(batch_span, nullptr);
  ASSERT_NE(forward, nullptr);
  ASSERT_NE(enqueue, nullptr);
  // The adopted subtree hangs off this request's root, ids remapped to
  // stay unique, and the top-level batch span carries the batch size.
  EXPECT_EQ(batch_span->parent_span_id, obs::TraceCollector::kRootSpanId);
  EXPECT_EQ(forward->parent_span_id, batch_span->span_id);
  EXPECT_NE(batch_span->span_id, enqueue->span_id);
  EXPECT_EQ(batch_span->batch_size, 2);
  // Links name the co-batched peers — never this trace itself.
  ASSERT_EQ(trace.batch_links.size(), 1u);
  EXPECT_EQ(trace.batch_links[0], obs::TraceIdHex(peer));
  EXPECT_EQ(trace.total_links, 1u);
}

// ---------------------------------------------------------------------------
// Histogram exemplars
// ---------------------------------------------------------------------------

TEST(ExemplarTest, LastWriteWinsPerBucket) {
  obs::Histogram hist({10.0, 100.0});
  hist.ObserveWithExemplar(5.0, 0xaaa, 0xbbb);
  hist.ObserveWithExemplar(7.0, 0xccc, 0xddd);  // same bucket, overwrites
  hist.ObserveWithExemplar(50.0, 0x111, 0x222);
  std::vector<obs::Histogram::Exemplar> exemplars = hist.Exemplars();
  ASSERT_EQ(exemplars.size(), hist.num_buckets());
  ASSERT_TRUE(exemplars[0].valid);
  EXPECT_EQ(exemplars[0].value, 7.0);
  EXPECT_EQ(exemplars[0].trace_hi, 0xcccu);
  ASSERT_TRUE(exemplars[1].valid);
  EXPECT_EQ(exemplars[1].value, 50.0);
  EXPECT_FALSE(exemplars[2].valid);
}

TEST(ExemplarTest, PlainHistogramsAllocateNoExemplars) {
  obs::Histogram hist({10.0});
  hist.Observe(1.0);
  EXPECT_TRUE(hist.Exemplars().empty());
}

TEST(ExemplarTest, BoundaryValueSharesTheObserveBucket) {
  // Edges are inclusive uppers; the exemplar must land with the count.
  obs::Histogram hist({10.0, 100.0});
  hist.ObserveWithExemplar(10.0, 0x1, 0x2);
  std::vector<int64_t> counts = hist.BucketCounts();
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 0);
  std::vector<obs::Histogram::Exemplar> exemplars = hist.Exemplars();
  EXPECT_TRUE(exemplars[0].valid);
  EXPECT_FALSE(exemplars[1].valid);
}

TEST(ExemplarTest, PrometheusExpositionCarriesExemplars) {
  obs::MetricsRegistry registry;
  obs::Histogram& hist = registry.GetHistogram(
      obs::LabeledName("lat_us", {{"route", "predict"}}), {1.0, 2.0});
  hist.ObserveWithExemplar(1.5, 0x0af7651916cd43ddULL, 0x8448eb211c80319cULL);
  registry.GetHistogram("plain_us", {1.0, 2.0}).Observe(1.5);
  std::string text = registry.ExportPrometheus();
  EXPECT_NE(
      text.find("lat_us_bucket{route=\"predict\",le=\"2\"} 1 "
                "# {trace_id=\"0af7651916cd43dd8448eb211c80319c\"} 1.5"),
      std::string::npos)
      << text;
  // Histograms without traced observations keep the exemplar-free format.
  EXPECT_NE(text.find("plain_us_bucket{le=\"2\"} 1\n"), std::string::npos);
  EXPECT_EQ(text.find("plain_us_bucket{le=\"2\"} 1 #"), std::string::npos);
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

obs::CompletedTrace MakeTestTrace(uint64_t hi, uint64_t lo,
                                  const std::string& route = "predict",
                                  int status = 200) {
  obs::TraceContext ctx;
  ctx.trace_id_hi = hi;
  ctx.trace_id_lo = lo;
  ctx.span_id = 1;
  obs::TraceCollector collector(ctx);
  {
    obs::ScopedActiveCollector guard(&collector);
    obs::Span span("serve.forward");
  }
  return collector.Finish(route, "beer", status);
}

TEST(FlightRecorderTest, RecordAndFindByTraceId) {
  obs::FlightRecorder ring(obs::FlightRecorder::Config{64 * 1024});
  ring.Record(MakeTestTrace(0x1, 0x100));
  ring.Record(MakeTestTrace(0x2, 0x200));

  obs::CompletedTrace out;
  ASSERT_TRUE(ring.Find(obs::TraceIdHex(0x2, 0x200), &out));
  EXPECT_STREQ(out.summary.route, "predict");
  EXPECT_NE(FindSpan(out, "serve.forward"), nullptr);
  EXPECT_NE(FindSpan(out, "http.request"), nullptr);
  EXPECT_FALSE(ring.Find(obs::TraceIdHex(0x3, 0x300), &out));
  EXPECT_FALSE(ring.Find("not-a-hex-id", &out));

  // Snapshot is newest first.
  std::vector<obs::CompletedTrace> all = ring.Snapshot();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(std::string(all[0].summary.trace_id), obs::TraceIdHex(0x2, 0x200));
  EXPECT_EQ(std::string(all[1].summary.trace_id), obs::TraceIdHex(0x1, 0x100));
}

TEST(FlightRecorderTest, WraparoundKeepsNewestWithinByteBudget) {
  obs::FlightRecorder ring(obs::FlightRecorder::Config{16 * 1024});
  EXPECT_LE(ring.footprint_bytes(), 16u * 1024u);
  const size_t slots = ring.num_slots();
  ASSERT_GE(slots, 8u);
  const int total = static_cast<int>(slots) * 4;
  for (int i = 1; i <= total; ++i) {
    ring.Record(MakeTestTrace(0xabc, static_cast<uint64_t>(i)));
  }
  EXPECT_EQ(ring.recorded(), total);
  std::vector<obs::CompletedTrace> all = ring.Snapshot();
  EXPECT_LE(all.size(), slots);
  // The newest record always survives a wrap; the earliest is long gone.
  obs::CompletedTrace out;
  EXPECT_TRUE(
      ring.Find(obs::TraceIdHex(0xabc, static_cast<uint64_t>(total)), &out));
  EXPECT_FALSE(ring.Find(obs::TraceIdHex(0xabc, 0x1), &out));
}

TEST(FlightRecorderTest, ConcurrentWritersAndReadersStayConsistent) {
  obs::FlightRecorder ring(obs::FlightRecorder::Config{16 * 1024});
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 200;
  std::atomic<bool> stop{false};

  // A reader hammers Snapshot/Find while writers wrap the ring; every
  // payload it sees must be internally consistent (this is the TSan lane's
  // main course).
  std::thread reader([&] {
    obs::CompletedTrace out;
    while (!stop.load(std::memory_order_relaxed)) {
      for (const obs::CompletedTrace& trace : ring.Snapshot()) {
        ASSERT_EQ(std::strlen(trace.summary.trace_id), 32u);
        ASSERT_LE(trace.spans.size(), obs::FlightRecorder::kSlotSpans);
      }
      ring.Find(obs::TraceIdHex(0x7, 0x1), &out);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        ring.Record(MakeTestTrace(static_cast<uint64_t>(w + 1),
                                  static_cast<uint64_t>(i + 1)));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  // Fixed memory no matter the load, and every record was either stored or
  // explicitly counted as dropped.
  EXPECT_LE(ring.footprint_bytes(), 16u * 1024u);
  EXPECT_EQ(ring.recorded(), kWriters * kPerWriter);
  EXPECT_GE(ring.dropped(), 0);
  EXPECT_LE(ring.Snapshot().size(), ring.num_slots());
}

TEST(FlightRecorderTest, DumpToStderrEmitsMarkersAndJsonl) {
  obs::FlightRecorder ring(obs::FlightRecorder::Config{16 * 1024});
  ring.Record(MakeTestTrace(0xd, 0xe));
  testing::internal::CaptureStderr();
  ring.DumpToStderr();
  std::string dump = testing::internal::GetCapturedStderr();
  EXPECT_NE(dump.find("=== DAR flight recorder begin"), std::string::npos);
  EXPECT_NE(dump.find("=== DAR flight recorder end ==="), std::string::npos);
  EXPECT_NE(dump.find("\"trace_id\":\"" + obs::TraceIdHex(0xd, 0xe) + "\""),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("\"spans\":["), std::string::npos);
}

// ---------------------------------------------------------------------------
// TailSampler
// ---------------------------------------------------------------------------

std::shared_ptr<obs::CompletedTrace> TraceWithLatency(uint64_t lo,
                                                      int64_t latency_us,
                                                      int status = 200) {
  auto trace = std::make_shared<obs::CompletedTrace>(
      MakeTestTrace(0xf00d, lo, "predict", status));
  trace->summary.latency_us = latency_us;
  return trace;
}

TEST(TailSamplerTest, RetainsSlowAndErroredRequests) {
  obs::TailSampler::Config config;
  config.latency_threshold_us = 1000;
  obs::TailSampler sampler(config);

  auto fast = TraceWithLatency(0x1, 10);
  auto slow = TraceWithLatency(0x2, 5000);
  auto error = TraceWithLatency(0x3, 10, 503);
  EXPECT_EQ(sampler.Consider(fast, false), obs::TailReason::kNone);
  EXPECT_EQ(sampler.Consider(slow, false), obs::TailReason::kSlow);
  EXPECT_EQ(sampler.Consider(error, false), obs::TailReason::kError);
  EXPECT_EQ(sampler.size(), 2u);

  EXPECT_EQ(sampler.Find(std::string(fast->summary.trace_id)), nullptr);
  auto found = sampler.Find(std::string(slow->summary.trace_id));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->summary.tail_reason,
            static_cast<uint8_t>(obs::TailReason::kSlow));

  std::vector<obs::RequestSummary> fresh = sampler.DrainNew();
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_TRUE(sampler.DrainNew().empty());
}

TEST(TailSamplerTest, NegativeThresholdKeepsOnlyErrors) {
  // A negative slow threshold turns slow-sampling off; errors are still
  // retained.
  obs::TailSampler::Config config;
  config.latency_threshold_us = -1;
  obs::TailSampler sampler(config);
  EXPECT_EQ(sampler.Consider(TraceWithLatency(0x1, 60000000), false),
            obs::TailReason::kNone);
  EXPECT_EQ(sampler.Consider(TraceWithLatency(0x2, 10, 503), false),
            obs::TailReason::kError);
  EXPECT_EQ(sampler.size(), 1u);
}

TEST(TailSamplerTest, EvictsOldestPastCapacity) {
  obs::TailSampler::Config config;
  config.latency_threshold_us = 1;
  config.max_traces = 4;
  obs::TailSampler sampler(config);
  for (uint64_t i = 1; i <= 6; ++i) {
    sampler.Consider(TraceWithLatency(i, 1000), false);
  }
  EXPECT_EQ(sampler.size(), 4u);
  EXPECT_EQ(sampler.Find(obs::TraceIdHex(0xf00d, 1)), nullptr);
  EXPECT_NE(sampler.Find(obs::TraceIdHex(0xf00d, 6)), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end over loopback HTTP
// ---------------------------------------------------------------------------

core::TrainConfig TinyConfig() {
  core::TrainConfig config;
  config.embedding_dim = 16;
  config.hidden_dim = 8;
  return config;
}

/// Untrained tiny RNP session (deterministic for a fixed seed): tracing
/// correctness does not require a trained model.
std::shared_ptr<serve::InferenceSession> MakeSession(uint64_t seed = 7) {
  datasets::SyntheticDataset dataset = datasets::MakeBeerDataset(
      datasets::BeerAspect::kAppearance, {.train = 40, .dev = 10, .test = 10},
      seed);
  core::TrainConfig config = TinyConfig();
  config.seed = seed;
  auto model = std::make_unique<core::RnpModel>(
      eval::BuildEmbeddings(dataset, config), config);
  return std::make_shared<serve::InferenceSession>(std::move(model),
                                                   dataset.vocab);
}

struct Loopback {
  serve::ModelRegistry registry;
  std::unique_ptr<net::Router> router;
  std::unique_ptr<net::HttpServer> server;
  std::shared_ptr<serve::InferenceSession> session;

  explicit Loopback(net::RouterConfig router_config = {},
                    net::ServerConfig server_config = {}) {
    session = MakeSession();
    router = std::make_unique<net::Router>(registry, router_config);
    router->ServeModel("beer", session);
    server_config.port = 0;
    if (server_config.metrics == nullptr) {
      server_config.metrics = &router->metrics();
    }
    server =
        std::make_unique<net::HttpServer>(router->AsHandler(), server_config);
    std::string error;
    bool started = server->Start(&error);
    EXPECT_TRUE(started) << error;
  }

  ~Loopback() { server->Stop(); }

  net::HttpClient Client() {
    return net::HttpClient("127.0.0.1", server->port());
  }
};

std::string PredictBody(const std::string& text) {
  return net::JsonValue::Object()
      .Set("text", net::JsonValue::Str(text))
      .Dump();
}

bool TraceHasSpan(const net::JsonValue& trace, const std::string& name,
                  const net::JsonValue** out = nullptr) {
  const net::JsonValue* spans = trace.Find("spans");
  if (spans == nullptr) return false;
  for (const net::JsonValue& span : spans->items) {
    const net::JsonValue* span_name = span.Find("name");
    if (span_name != nullptr && span_name->string_value == name) {
      if (out != nullptr) *out = &span;
      return true;
    }
  }
  return false;
}

TEST(TraceEndToEndTest, TraceIdHeaderResolvesToFullSpanTree) {
  Loopback loop;
  net::HttpClient client = loop.Client();
  auto response =
      client.Post("/v1/models/beer/predict", PredictBody("the beer was"));
  ASSERT_TRUE(response.has_value()) << client.error();
  ASSERT_EQ(response->status, 200) << response->body;
  std::string trace_id = response->trace_id();
  ASSERT_EQ(trace_id.size(), 32u) << "missing/short X-DAR-Trace-Id";

  auto debug = client.Get("/debug/trace/" + trace_id);
  ASSERT_TRUE(debug.has_value()) << client.error();
  ASSERT_EQ(debug->status, 200) << debug->body;
  std::string error;
  auto trace = net::JsonValue::Parse(debug->body, &error);
  ASSERT_TRUE(trace.has_value()) << error;

  // The acceptance tree: router -> enqueue -> batch -> session forward.
  const net::JsonValue* router_span = nullptr;
  const net::JsonValue* batch_span = nullptr;
  const net::JsonValue* forward_span = nullptr;
  EXPECT_TRUE(TraceHasSpan(*trace, "http.request"));
  ASSERT_TRUE(TraceHasSpan(*trace, "http.router", &router_span));
  EXPECT_TRUE(TraceHasSpan(*trace, "serve.enqueue"));
  ASSERT_TRUE(TraceHasSpan(*trace, "serve.batch", &batch_span));
  ASSERT_TRUE(TraceHasSpan(*trace, "serve.forward", &forward_span));
  EXPECT_GE(batch_span->Find("batch_size")->number_value, 1);
  // The forward nests under the batch span it ran in.
  EXPECT_EQ(forward_span->Find("parent")->string_value,
            batch_span->Find("span_id")->string_value);

  const net::JsonValue* summary = trace->Find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->Find("trace_id")->string_value, trace_id);
  EXPECT_EQ(summary->Find("route")->string_value, "predict");
  EXPECT_EQ(summary->Find("model")->string_value, "beer");
  EXPECT_EQ(summary->Find("status")->number_value, 200);
}

TEST(TraceEndToEndTest, CacheLookupSpanAppearsWhenCacheEnabled) {
  net::RouterConfig config;
  config.serve.cache.enabled = true;
  config.serve.cache.capacity_bytes = 1 << 20;
  Loopback loop(config);
  net::HttpClient client = loop.Client();

  for (int i = 0; i < 2; ++i) {
    auto response =
        client.Post("/v1/models/beer/predict", PredictBody("same text"));
    ASSERT_TRUE(response.has_value()) << client.error();
    ASSERT_EQ(response->status, 200);
    if (i == 0) continue;
    auto debug = client.Get("/debug/trace/" + response->trace_id());
    ASSERT_TRUE(debug.has_value());
    ASSERT_EQ(debug->status, 200);
    auto trace = net::JsonValue::Parse(debug->body, nullptr);
    ASSERT_TRUE(trace.has_value());
    EXPECT_TRUE(TraceHasSpan(*trace, "serve.cache_lookup")) << debug->body;
  }
}

TEST(TraceEndToEndTest, ResponseBodyBitIdenticalTracingOnVsOff) {
  net::RouterConfig traced;
  net::RouterConfig untraced;
  untraced.tracing.enabled = false;
  Loopback loop_on(traced);
  Loopback loop_off(untraced);
  net::HttpClient client_on = loop_on.Client();
  net::HttpClient client_off = loop_off.Client();

  const char* texts[] = {"one beer", "a different review text", "x"};
  for (const char* text : texts) {
    auto on = client_on.Post("/v1/models/beer/predict", PredictBody(text));
    auto off = client_off.Post("/v1/models/beer/predict", PredictBody(text));
    ASSERT_TRUE(on.has_value() && off.has_value());
    ASSERT_EQ(on->status, 200);
    ASSERT_EQ(off->status, 200);
    // Byte-equal bodies: tracing must be observationally free.
    EXPECT_EQ(on->body, off->body) << text;
    EXPECT_EQ(on->trace_id().size(), 32u);
    EXPECT_EQ(off->trace_id(), "");  // header absent with tracing off
  }
}

TEST(TraceEndToEndTest, DebugRoutesAre404WhenTracingDisabled) {
  net::RouterConfig config;
  config.tracing.enabled = false;
  Loopback loop(config);
  net::HttpClient client = loop.Client();
  for (const char* path :
       {"/debug/requests", "/debug/flight_recorder",
        "/debug/trace/0af7651916cd43dd8448eb211c80319c"}) {
    auto response = client.Get(path);
    ASSERT_TRUE(response.has_value()) << client.error();
    EXPECT_EQ(response->status, 404) << path;
  }
}

TEST(TraceEndToEndTest, DebugRequestsAndFlightRecorderListRecent) {
  Loopback loop;
  net::HttpClient client = loop.Client();
  auto response =
      client.Post("/v1/models/beer/predict", PredictBody("list me"));
  ASSERT_TRUE(response.has_value());
  std::string trace_id = response->trace_id();
  ASSERT_EQ(trace_id.size(), 32u);

  auto requests = client.Get("/debug/requests");
  ASSERT_TRUE(requests.has_value());
  ASSERT_EQ(requests->status, 200);
  // The ring is process-global, so other tests' requests may be listed
  // too; ours must be among them.
  EXPECT_NE(requests->body.find(trace_id), std::string::npos);

  auto recorder = client.Get("/debug/flight_recorder");
  ASSERT_TRUE(recorder.has_value());
  ASSERT_EQ(recorder->status, 200);
  std::string error;
  auto info = net::JsonValue::Parse(recorder->body, &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_GT(info->Find("slots")->number_value, 0);
  EXPECT_LE(info->Find("footprint_bytes")->number_value,
            info->Find("budget_bytes")->number_value);
  EXPECT_GT(info->Find("recorded")->number_value, 0);
}

TEST(TraceEndToEndTest, IncomingTraceparentIsAdopted) {
  Loopback loop;
  net::HttpClient client = loop.Client();
  obs::TraceContext upstream = obs::MakeTraceContext();
  client.set_traceparent(obs::FormatTraceparent(upstream));
  auto response =
      client.Post("/v1/models/beer/predict", PredictBody("joined trace"));
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, 200);
  // The server joined our trace instead of minting a new id.
  EXPECT_EQ(response->trace_id(), obs::TraceIdHex(upstream));
  auto debug = client.Get("/debug/trace/" + obs::TraceIdHex(upstream));
  ASSERT_TRUE(debug.has_value());
  EXPECT_EQ(debug->status, 200);
}

TEST(TraceEndToEndTest, MalformedTraceparentFallsBackToFreshId) {
  Loopback loop;
  net::HttpClient client = loop.Client();
  const char* corpus[] = {
      "garbage",
      "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
      "00-00000000000000000000000000000000-b7ad6b7169203331-01",
      "00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01",
  };
  for (const char* bad : corpus) {
    auto response = client.Request(
        "POST", "/v1/models/beer/predict", PredictBody("bad header"),
        {{"Content-Type", "application/json"}, {"traceparent", bad}});
    ASSERT_TRUE(response.has_value()) << client.error();
    // Never an error, never a crash: the request runs under a fresh id.
    EXPECT_EQ(response->status, 200) << bad;
    EXPECT_EQ(response->trace_id().size(), 32u) << bad;
    EXPECT_EQ(response->trace_id().find("0af7651916cd"), std::string::npos);
  }
}

TEST(TraceEndToEndTest, ErroredRequestsAreTailSampled) {
  Loopback loop;
  net::HttpClient client = loop.Client();
  auto response = client.Post("/v1/models/beer/predict", "{not json");
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, 400);
  std::string trace_id = response->trace_id();
  ASSERT_EQ(trace_id.size(), 32u);

  auto debug = client.Get("/debug/trace/" + trace_id);
  ASSERT_TRUE(debug.has_value());
  ASSERT_EQ(debug->status, 200) << debug->body;
  auto trace = net::JsonValue::Parse(debug->body, nullptr);
  ASSERT_TRUE(trace.has_value());
  const net::JsonValue* summary = trace->Find("summary");
  EXPECT_EQ(summary->Find("status")->number_value, 400);
  EXPECT_EQ(summary->Find("tail_reason")->string_value, "error");
  // And the tracer's tail store counts it.
  ASSERT_NE(loop.router->tracer(), nullptr);
  EXPECT_GE(loop.router->tracer()->tail().size(), 1u);
}

TEST(TraceEndToEndTest, ExemplarReachesMetricsEndpoint) {
  Loopback loop;
  net::HttpClient client = loop.Client();
  auto response =
      client.Post("/v1/models/beer/predict", PredictBody("exemplar"));
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->status, 200);
  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.has_value());
  ASSERT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("# {trace_id=\""), std::string::npos);
  // The exemplar hangs off the predict-route latency histogram.
  EXPECT_NE(metrics->body.find("http_request_latency_us_bucket{route="
                               "\"predict\""),
            std::string::npos);
}

TEST(TraceEndToEndTest, EightClientHammerStaysConsistent) {
  Loopback loop;
  constexpr int kClients = 8;
  constexpr int kRequests = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&loop, &failures, c] {
      net::HttpClient client = loop.Client();
      for (int i = 0; i < kRequests; ++i) {
        auto response = client.Post(
            "/v1/models/beer/predict",
            PredictBody("client " + std::to_string(c) + " says beer"));
        if (!response.has_value() || response->status != 200 ||
            response->trace_id().size() != 32) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The global ring absorbed the hammer within its fixed footprint.
  obs::FlightRecorder& ring = obs::FlightRecorder::Global();
  EXPECT_LE(ring.footprint_bytes(), ring.config().budget_bytes);
  EXPECT_GE(ring.recorded(), kClients * kRequests);
  net::HttpClient client = loop.Client();
  auto requests = client.Get("/debug/requests");
  ASSERT_TRUE(requests.has_value());
  EXPECT_EQ(requests->status, 200);
}

// ---------------------------------------------------------------------------
// Sentinel trap path
// ---------------------------------------------------------------------------

TEST(FlightRecorderDeathTest, SentinelTrapDumpsTheRing) {
  const float bad[] = {1.0f, std::numeric_limits<float>::quiet_NaN()};
  EXPECT_DEATH(
      {
        // Give the ring something to say, as a live server would have.
        obs::FlightRecorder::Global().Record(MakeTestTrace(0xdead, 0xbeef));
        check::SetSentinelMode(check::SentinelMode::kTrap);
        check::ScanForNonFinite("serve.forward", "probs", bad, 2);
      },
      "DAR flight recorder begin");
}

}  // namespace
}  // namespace dar

#include "net/routes.h"

#include <chrono>
#include <utility>
#include <vector>

#include "obs/sync_metrics.h"
#include "obs/trace.h"
#include "tensor/check.h"

namespace dar {
namespace net {

namespace {

/// Latency buckets for http.request_latency_us, microseconds. Spans the
/// sub-millisecond /healthz hits through multi-second saturated predicts.
const std::vector<double> kLatencyBoundsUs = {
    100,    250,    500,     1000,    2500,    5000,    10000,
    25000,  50000,  100000,  250000,  500000,  1000000, 2500000};

HttpResponse JsonResponse(int status, const JsonValue& value) {
  HttpResponse response;
  response.status = status;
  response.body = value.Dump();
  return response;
}

HttpResponse JsonError(int status, const std::string& detail) {
  return JsonResponse(status, JsonValue::Object()
                                  .Set("error", JsonValue::Str(
                                                    StatusReason(status)))
                                  .Set("detail", JsonValue::Str(detail)));
}

HttpResponse MethodNotAllowed(const std::string& allow) {
  HttpResponse response =
      JsonError(405, "method not allowed; see the Allow header");
  response.extra_headers.push_back({"Allow", allow});
  return response;
}

/// Splits "/v1/models/<name>/predict" -> <name>; empty when the path is
/// not of that shape. Model names may contain any byte except '/'.
std::string PredictModelName(const std::string& path) {
  const std::string prefix = "/v1/models/";
  const std::string suffix = "/predict";
  if (path.size() <= prefix.size() + suffix.size()) return "";
  if (path.compare(0, prefix.size(), prefix) != 0) return "";
  if (path.compare(path.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return "";
  }
  std::string name = path.substr(
      prefix.size(), path.size() - prefix.size() - suffix.size());
  if (name.find('/') != std::string::npos) return "";
  return name;
}

JsonValue ResultToJson(const std::string& model,
                       const serve::InferenceResult& result) {
  JsonValue probs = JsonValue::Array();
  for (float p : result.probs) probs.Push(JsonValue::Number(p));
  JsonValue tokens = JsonValue::Array();
  for (const auto& t : result.tokens) tokens.Push(JsonValue::Str(t));
  JsonValue mask = JsonValue::Array();
  for (uint8_t m : result.mask) mask.Push(JsonValue::Int(m));
  JsonValue spans = JsonValue::Array();
  for (const auto& span : result.spans) {
    spans.Push(JsonValue::Object()
                   .Set("begin", JsonValue::Int(span.begin))
                   .Set("end", JsonValue::Int(span.end)));
  }
  return JsonValue::Object()
      .Set("model", JsonValue::Str(model))
      .Set("label", JsonValue::Int(result.label))
      .Set("confidence", JsonValue::Number(result.confidence))
      .Set("probs", std::move(probs))
      .Set("tokens", std::move(tokens))
      .Set("rationale", JsonValue::Object()
                            .Set("mask", std::move(mask))
                            .Set("spans", std::move(spans))
                            .Set("text", JsonValue::Str(
                                             result.rationale_text)));
}

}  // namespace

Router::Router(serve::ModelRegistry& registry, RouterConfig config)
    : registry_(&registry), config_(std::move(config)) {
  if (config_.serve.cache.enabled) {
    cache_ =
        std::make_unique<serve::ServeCache>(config_.serve.cache, &metrics_);
  }
  if (config_.tracing.enabled) {
    tracer_ = std::make_unique<obs::RequestTracer>(config_.tracing);
  }
}

Router::~Router() {
  // The server feeding Handle() has stopped. The registry may outlive the
  // router, so the models it served leave it: their stats and cache
  // entries die with the router.
  std::map<std::string, std::shared_ptr<Endpoint>> endpoints;
  {
    sync::MutexLock lock(mu_);
    endpoints.swap(endpoints_);
  }
  for (const auto& [name, endpoint] : endpoints) {
    endpoint->batcher->Shutdown();
    if (registry_->Get(name) == endpoint->session) registry_->Unregister(name);
  }
}

void Router::ServeModel(const std::string& name,
                        std::shared_ptr<serve::InferenceSession> session) {
  DAR_CHECK(session != nullptr);
  // Bind first, so no request reaches the session, through the registry
  // or the endpoint map, before its stats and cache are this router's.
  session->BindStats(&metrics_, name);
  if (cache_ != nullptr) session->EnableCache(cache_.get(), name);
  registry_->Register(name, session);
  auto endpoint = std::make_shared<Endpoint>();
  endpoint->session = session;
  endpoint->batcher =
      std::make_unique<serve::MicroBatcher>(*session, config_.batcher);
  std::shared_ptr<Endpoint> replaced;
  {
    sync::MutexLock lock(mu_);
    replaced = std::exchange(endpoints_[name], std::move(endpoint));
  }
  // Hot swap: the new session writes under a fresh cache model id, so the
  // old one's entries are dead bytes. Reclaim them now and drop the late
  // inserts of its in-flight requests (they finish against the old
  // endpoint, which the last of them frees).
  if (replaced != nullptr && cache_ != nullptr) {
    cache_->InvalidateModel(replaced->session->cache_model_id());
  }
}

std::shared_ptr<Router::Endpoint> Router::FindEndpoint(
    const std::string& name) {
  sync::MutexLock lock(mu_);
  auto it = endpoints_.find(name);
  return it == endpoints_.end() ? nullptr : it->second;
}

std::function<HttpResponse(const HttpRequest&)> Router::AsHandler() {
  return [this](const HttpRequest& request) { return Handle(request); };
}

HttpResponse Router::Handle(const HttpRequest& request) {
  auto start = std::chrono::steady_clock::now();
  std::string route = "unmatched";
  std::string model;

  // Trace identity: adopt a well-formed incoming traceparent, mint fresh
  // otherwise. A malformed header is not an error — the request proceeds
  // under its own id.
  obs::TraceContext ctx;
  std::shared_ptr<obs::TraceCollector> collector;
  if (tracer_ != nullptr) {
    const std::string* incoming = request.FindHeader("traceparent");
    if (incoming == nullptr || !obs::ParseTraceparent(*incoming, &ctx)) {
      ctx = obs::MakeTraceContext();
    }
    collector = std::make_shared<obs::TraceCollector>(ctx);
  }

  HttpResponse response;
  if (collector != nullptr) {
    obs::ScopedRequestTrace trace_guard(collector);
    obs::Span router_span("http.router");
    response = Dispatch(request, route, model);
  } else {
    response = Dispatch(request, route, model);
  }

  double elapsed_us =
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          std::chrono::steady_clock::now() - start)
          .count();
  std::vector<std::pair<std::string, std::string>> labels = {
      {"route", route}, {"code", std::to_string(response.status)}};
  if (!model.empty()) labels.insert(labels.begin() + 1, {"model", model});
  metrics_.GetCounter(obs::LabeledName("http.requests_total", labels))
      .Increment();
  obs::Histogram& latency = metrics_.GetHistogram(
      obs::LabeledName("http.request_latency_us", {{"route", route}}),
      kLatencyBoundsUs);
  if (collector != nullptr) {
    latency.ObserveWithExemplar(elapsed_us, ctx.trace_id_hi, ctx.trace_id_lo);
    tracer_->Complete(collector->Finish(route, model, response.status));
    response.extra_headers.push_back({"X-DAR-Trace-Id", obs::TraceIdHex(ctx)});
  } else {
    latency.Observe(elapsed_us);
  }
  return response;
}

HttpResponse Router::Dispatch(const HttpRequest& request, std::string& route,
                              std::string& model) {
  const std::string path = request.Path();

  if (path == "/healthz") {
    route = "healthz";
    if (request.method != "GET") return MethodNotAllowed("GET");
    return HandleHealthz();
  }
  if (path == "/metrics") {
    route = "metrics";
    if (request.method != "GET") return MethodNotAllowed("GET");
    return HandleMetrics();
  }
  if (path == "/v1/models") {
    route = "models";
    if (request.method != "GET") return MethodNotAllowed("GET");
    return HandleModels();
  }
  const std::string debug_trace_prefix = "/debug/trace/";
  if (path == "/debug/requests" || path == "/debug/flight_recorder" ||
      path.compare(0, debug_trace_prefix.size(), debug_trace_prefix) == 0) {
    route = "debug";
    if (request.method != "GET") return MethodNotAllowed("GET");
    // Compiled in but disabled by flag: the routes do not exist.
    if (tracer_ == nullptr) {
      return JsonError(404, "request tracing is disabled");
    }
    if (path == "/debug/requests") return HandleDebugRequests();
    if (path == "/debug/flight_recorder") return HandleDebugFlightRecorder();
    return HandleDebugTrace(path.substr(debug_trace_prefix.size()));
  }
  std::string name = PredictModelName(path);
  if (!name.empty()) {
    route = "predict";
    model = name;
    if (request.method != "POST") return MethodNotAllowed("POST");
    return HandlePredict(name, request);
  }
  return JsonError(404, "no route for " + path);
}

HttpResponse Router::HandleHealthz() {
  size_t models;
  {
    sync::MutexLock lock(mu_);
    models = endpoints_.size();
  }
  return JsonResponse(200, JsonValue::Object()
                               .Set("status", JsonValue::Str("ok"))
                               .Set("models", JsonValue::Int(
                                                  static_cast<int64_t>(
                                                      models))));
}

HttpResponse Router::HandleMetrics() {
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4";
  // Bring the sync layer's contention counts and the process's faults and
  // CPU time up to date first, so the scrape that follows a burst sees it.
  obs::PublishSyncContentionMetrics(metrics_);
  obs::PublishProcessMetrics(metrics_);
  response.body = metrics_.ExportPrometheus();
  return response;
}

HttpResponse Router::HandleModels() {
  std::map<std::string, std::shared_ptr<Endpoint>> endpoints;
  {
    sync::MutexLock lock(mu_);
    endpoints = endpoints_;
  }
  JsonValue models = JsonValue::Array();
  for (const auto& [name, endpoint] : endpoints) {
    const serve::InferenceSession* session = endpoint->session.get();
    models.Push(
        JsonValue::Object()
            .Set("name", JsonValue::Str(name))
            .Set("method", JsonValue::Str(session->model().name()))
            .Set("vocab_size", JsonValue::Int(session->vocab().size()))
            .Set("predict_path", JsonValue::Str("/v1/models/" + name +
                                                "/predict")));
  }
  return JsonResponse(200,
                      JsonValue::Object().Set("models", std::move(models)));
}

namespace {

const char* TailReasonName(uint8_t reason) {
  switch (static_cast<obs::TailReason>(reason)) {
    case obs::TailReason::kSlow:
      return "slow";
    case obs::TailReason::kError:
      return "error";
    default:
      return "none";
  }
}

JsonValue SummaryToJson(const obs::RequestSummary& summary) {
  return JsonValue::Object()
      .Set("trace_id", JsonValue::Str(summary.trace_id))
      .Set("route", JsonValue::Str(summary.route))
      .Set("model", JsonValue::Str(summary.model))
      .Set("status", JsonValue::Int(summary.status))
      .Set("latency_us", JsonValue::Int(summary.latency_us))
      .Set("start_unix_us", JsonValue::Int(summary.start_unix_us))
      .Set("total_spans",
           JsonValue::Int(static_cast<int64_t>(summary.total_spans)))
      .Set("tail_reason", JsonValue::Str(TailReasonName(summary.tail_reason)));
}

JsonValue TraceToJson(const obs::CompletedTrace& trace) {
  JsonValue spans = JsonValue::Array();
  for (const obs::SpanRecord& span : trace.spans) {
    spans.Push(JsonValue::Object()
                   .Set("name", JsonValue::Str(span.name))
                   .Set("span_id", JsonValue::Str(obs::SpanIdHex(span.span_id)))
                   .Set("parent", JsonValue::Str(
                                      obs::SpanIdHex(span.parent_span_id)))
                   .Set("start_us", JsonValue::Int(span.start_us))
                   .Set("duration_us", JsonValue::Int(span.duration_us))
                   .Set("batch_size", JsonValue::Int(span.batch_size)));
  }
  JsonValue links = JsonValue::Array();
  for (const std::string& link : trace.batch_links) {
    links.Push(JsonValue::Str(link));
  }
  return JsonValue::Object()
      .Set("summary", SummaryToJson(trace.summary))
      .Set("spans", std::move(spans))
      .Set("batch_links", std::move(links))
      .Set("total_links",
           JsonValue::Int(static_cast<int64_t>(trace.total_links)));
}

}  // namespace

HttpResponse Router::HandleDebugRequests() {
  obs::FlightRecorder& ring = tracer_->ring();
  JsonValue requests = JsonValue::Array();
  for (const obs::CompletedTrace& trace : ring.Snapshot()) {
    requests.Push(SummaryToJson(trace.summary));
  }
  return JsonResponse(200, JsonValue::Object()
                               .Set("requests", std::move(requests))
                               .Set("recorded", JsonValue::Int(
                                                    ring.recorded()))
                               .Set("dropped", JsonValue::Int(
                                                   ring.dropped())));
}

HttpResponse Router::HandleDebugTrace(const std::string& trace_id) {
  uint64_t hi = 0;
  uint64_t lo = 0;
  if (!obs::ParseTraceIdHex(trace_id, &hi, &lo)) {
    return JsonError(404, "not a trace id: expected 32 hex characters");
  }
  obs::CompletedTrace trace;
  // Canonical lowercase form — FindTrace keys exact strings.
  if (!tracer_->FindTrace(obs::TraceIdHex(hi, lo), &trace)) {
    return JsonError(404, "trace '" + trace_id +
                              "' is not in the tail store or the "
                              "flight recorder ring (it may have aged out)");
  }
  return JsonResponse(200, TraceToJson(trace));
}

HttpResponse Router::HandleDebugFlightRecorder() {
  obs::FlightRecorder& ring = tracer_->ring();
  JsonValue trace_ids = JsonValue::Array();
  for (const obs::CompletedTrace& trace : ring.Snapshot()) {
    trace_ids.Push(JsonValue::Str(trace.summary.trace_id));
  }
  return JsonResponse(
      200,
      JsonValue::Object()
          .Set("slots", JsonValue::Int(static_cast<int64_t>(ring.num_slots())))
          .Set("budget_bytes",
               JsonValue::Int(
                   static_cast<int64_t>(ring.config().budget_bytes)))
          .Set("footprint_bytes",
               JsonValue::Int(static_cast<int64_t>(ring.footprint_bytes())))
          .Set("recorded", JsonValue::Int(ring.recorded()))
          .Set("dropped", JsonValue::Int(ring.dropped()))
          .Set("tail_sampled",
               JsonValue::Int(static_cast<int64_t>(tracer_->tail().size())))
          .Set("tail_threshold_us",
               JsonValue::Int(tracer_->tail().config().latency_threshold_us))
          .Set("trace_ids", std::move(trace_ids)));
}

HttpResponse Router::HandlePredict(const std::string& name,
                                   const HttpRequest& request) {
  auto endpoint = FindEndpoint(name);
  if (endpoint == nullptr) {
    return JsonError(404, "model '" + name + "' is not registered");
  }

  std::string parse_error;
  auto payload = JsonValue::Parse(request.body, &parse_error);
  if (!payload.has_value()) {
    return JsonError(400, "request body is not valid JSON: " + parse_error);
  }
  const JsonValue* text = payload->Find("text");
  if (text == nullptr || !text->is_string()) {
    return JsonError(400, "request body must be {\"text\": \"...\"}");
  }

  auto future = endpoint->batcher->TrySubmit(text->string_value);
  if (!future.has_value()) {
    // The batching queue is at capacity: shed immediately instead of
    // parking a connection thread behind the model (the acceptance bar —
    // saturation must answer 503, never hang).
    HttpResponse response =
        JsonError(503, "model '" + name + "' queue is full, retry later");
    response.extra_headers.push_back({"Retry-After", "1"});
    return response;
  }
  serve::InferenceResult result = future->get();
  HttpResponse response = JsonResponse(200, ResultToJson(name, result));
  if (result.cache != serve::CacheOutcome::kUncached) {
    // Header only — the body stays bit-identical to the uncached path.
    response.extra_headers.push_back(
        {"X-DAR-Cache", serve::CacheOutcomeName(result.cache)});
  }
  return response;
}

}  // namespace net
}  // namespace dar

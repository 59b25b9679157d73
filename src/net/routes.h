// The serving API surface: request routing over the model registry.
//
//   POST /v1/models/<name>/predict   {"text": "..."} ->
//       {"model","label","confidence","probs","tokens","rationale":
//        {"mask","spans":[{"begin","end"}],"text"}}
//       Requests flow through the model's MicroBatcher (TrySubmit), so
//       concurrent clients coalesce into padded batches exactly like the
//       in-process serving path — responses are bit-identical to
//       InferenceSession::Predict. A full batching queue answers 503.
//   GET  /v1/models                  the models ServeModel put behind this
//                                    router (name, method, ...): the same
//                                    set /healthz counts and predict routes
//   GET  /metrics                    Prometheus text exposition of the
//                                    shared registry: per-model serving
//                                    counters (serve_requests_total{model=...})
//                                    plus the per-route HTTP metrics below
//   GET  /healthz                    liveness + served model count
//   GET  /debug/requests             recent completed requests (the flight
//                                    recorder ring, newest first)
//   GET  /debug/trace/<id>           one request's span tree by trace id
//   GET  /debug/flight_recorder      ring configuration + occupancy
//
// Every handled request records http.requests_total{route=...,code=...}
// (predict adds model=...) and an http.request_latency_us{route=...}
// histogram into the same metrics registry /metrics exports.
//
// With tracing enabled (RouterConfig::tracing, the default) each request
// additionally gets a TraceContext — parsed from an incoming W3C
// `traceparent` header when present and well-formed, freshly minted
// otherwise — whose id is returned as `X-DAR-Trace-Id` and resolvable via
// /debug/trace/<id> while it remains in the tail store or the flight
// recorder ring. The /debug routes answer 404 when tracing is disabled.
#ifndef DAR_NET_ROUTES_H_
#define DAR_NET_ROUTES_H_

#include <map>
#include <memory>
#include <string>

#include "net/http.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "serve/batcher.h"
#include "serve/cache.h"
#include "serve/registry.h"
#include "serve/session.h"
#include "sync/mutex.h"

namespace dar {
namespace net {

struct RouterConfig {
  /// Batcher settings applied to every model endpoint. max_queue bounds
  /// the queue so saturation becomes 503 (TrySubmit) instead of blocked
  /// connection threads; 0 would mean "never reject".
  serve::BatcherConfig batcher = {
      .max_batch = 16, .num_workers = 2, .max_queue = 128};
  /// Serving-stack configuration. When serve.cache.enabled the Router
  /// owns a ServeCache publishing into its metrics registry, every model
  /// ServeModel serves joins it, and each predict response is stamped with
  /// an X-DAR-Cache: hit|miss header. Off by default: responses
  /// are bit-identical either way, the header and the serve_cache_* series
  /// are the only observable difference.
  serve::ServeConfig serve;
  /// Request tracing (on by default). tracing.enabled=false removes the
  /// X-DAR-Trace-Id header, turns the /debug routes into 404s, and reduces
  /// the per-request cost to the untraced PR 5 path. Response bodies are
  /// bit-identical either way.
  obs::TracerConfig tracing;
};

/// Thread-safe request handler over a ModelRegistry. Pass
/// [&router](const HttpRequest& r) { return router.Handle(r); } (or
/// Router::AsHandler) to HttpServer.
///
/// The Router owns what it serves: ServeModel binds each session to this
/// router's metrics registry and cache before registering it. Sessions
/// registered straight into the registry stay unbound, and any number of
/// Routers may share one registry. A session served through a Router must
/// not serve after that Router is destroyed (its stats and cache entries
/// lived in the router).
class Router {
 public:
  /// Fronts `registry` (not owned, must outlive the router).
  Router(serve::ModelRegistry& registry, RouterConfig config = {});

  /// Drains and joins every model's batcher, and unregisters each model it
  /// served that the registry still maps to its session.
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds `session` to this router — its stats publish under
  /// `{model=name}` into metrics(), and it joins cache() cold when one is
  /// on — then registers it under `name` in the model registry and spins
  /// up its micro-batcher. The session must not have served traffic yet.
  /// Re-serving an existing name hot-swaps: new requests route to the new
  /// session while in-flight ones finish against the old endpoint, which
  /// is destroyed (batcher drained) when the last of them releases it; the
  /// old session's cache entries are swept.
  void ServeModel(const std::string& name,
                  std::shared_ptr<serve::InferenceSession> session);

  /// Routes one request. Thread-safe; called from server pool workers.
  HttpResponse Handle(const HttpRequest& request);

  /// Convenience adapter for HttpServer's constructor.
  std::function<HttpResponse(const HttpRequest&)> AsHandler();

  /// The registry /metrics exports, owned by the router.
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// The serving cache, or nullptr when config.serve.cache is disabled.
  serve::ServeCache* cache() { return cache_.get(); }

  /// The request tracer, or nullptr when config.tracing is disabled. The
  /// serving example drains its tail sampler to log slow requests.
  obs::RequestTracer* tracer() { return tracer_.get(); }

 private:
  /// A served model: the session plus its batching front. shared_ptr so a
  /// hot-swap cannot pull either from under an in-flight request.
  struct Endpoint {
    std::shared_ptr<serve::InferenceSession> session;
    std::unique_ptr<serve::MicroBatcher> batcher;
  };

  std::shared_ptr<Endpoint> FindEndpoint(const std::string& name);
  HttpResponse HandlePredict(const std::string& model,
                             const HttpRequest& request);
  HttpResponse HandleModels();
  HttpResponse HandleMetrics();
  HttpResponse HandleHealthz();
  HttpResponse HandleDebugRequests();
  HttpResponse HandleDebugTrace(const std::string& trace_id);
  HttpResponse HandleDebugFlightRecorder();
  /// Wraps dispatch with the per-route counter/latency recording.
  HttpResponse Dispatch(const HttpRequest& request, std::string& route,
                        std::string& model);

  serve::ModelRegistry* registry_;
  RouterConfig config_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<serve::ServeCache> cache_;
  std::unique_ptr<obs::RequestTracer> tracer_;

  /// kRegistry band, like the model registry it fronts: ServeModel holds
  /// mu_ only around the map swap — never across registry or batcher
  /// calls — so no higher-rank lock is ever taken under it.
  sync::Mutex mu_{sync::Rank::kRegistry, "net.router"};
  std::map<std::string, std::shared_ptr<Endpoint>> endpoints_
      DAR_GUARDED_BY(mu_);
};

}  // namespace net
}  // namespace dar

#endif  // DAR_NET_ROUTES_H_

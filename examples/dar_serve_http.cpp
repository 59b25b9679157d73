// The serving deployment entry point: train (or restore) a rationalizer,
// publish it through the model registry, and serve it over HTTP.
//
//   ./build/examples/dar_serve_http [--port N] [--epochs N] [--train N]
//                                   [--cache-mb N] [--slow-ms N]
//                                   [--no-tracing]
//
// then, from another terminal:
//
//   curl -s localhost:8080/healthz
//   curl -s localhost:8080/v1/models
//   curl -s -X POST localhost:8080/v1/models/beer-appearance/predict
//        -d '{"text": "the pour is a hazy golden with a thick head"}'
//   curl -s localhost:8080/metrics | grep serve_requests_total
//   curl -s localhost:8080/debug/requests
//   curl -s localhost:8080/debug/trace/<id from X-DAR-Trace-Id>
//
// The model goes through the full deployment path — train, save a
// checkpoint bundle, restore it into a fresh InferenceSession — so what
// serves is what a production restore would serve. Training defaults to
// the quick bench profile (batch 32, lr 2e-3, 8 epochs, 4 of them
// pretraining the discriminator), which on the default 400/80/100 splits
// selects ~14 % of tokens at a test F1 of ~87; the test F1 and label
// accuracy are printed before the server listens. SIGINT/SIGTERM drain
// gracefully: in-flight requests finish, then the process exits.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "core/dar.h"
#include "core/trainer.h"
#include "datasets/beer.h"
#include "eval/experiment.h"
#include "net/routes.h"
#include "net/server.h"
#include "serve/registry.h"
#include "serve/session.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace dar;

  int port = 8080;
  int epochs = 8;
  int train_examples = 400;
  // Serving-cache budget in MiB; 0 disables. On by default here — the
  // deployment entry point should demonstrate the deployed configuration
  // (responses are bit-identical either way; see src/serve/cache.h).
  int cache_mb = 64;
  // Tail-sampling threshold: requests slower than this are retained with
  // their full span tree and reported on stdout with the trace id to paste
  // into /debug/trace/<id>.
  int slow_ms = 250;
  bool tracing = true;
  for (int i = 1; i < argc; ++i) {
    auto int_flag = [&](const char* flag, int* out) {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
        *out = std::atoi(argv[++i]);
        return true;
      }
      return false;
    };
    if (int_flag("--port", &port) || int_flag("--epochs", &epochs) ||
        int_flag("--train", &train_examples) ||
        int_flag("--cache-mb", &cache_mb) ||
        int_flag("--slow-ms", &slow_ms)) {
      continue;
    }
    if (std::strcmp(argv[i], "--no-tracing") == 0) {
      tracing = false;
      continue;
    }
    std::fprintf(stderr,
                 "usage: %s [--port N] [--epochs N] [--train N] "
                 "[--cache-mb N] [--slow-ms N] [--no-tracing]\n",
                 argv[0]);
    return 2;
  }

  // 1. Train a small DAR model on the synthetic beer-appearance aspect.
  datasets::SyntheticDataset dataset = datasets::MakeBeerDataset(
      datasets::BeerAspect::kAppearance,
      {.train = train_examples, .dev = 80, .test = 100}, /*seed=*/42);
  core::TrainConfig config;
  config.batch_size = 32;
  config.lr = 2e-3f;
  config.epochs = epochs;
  config.pretrain_epochs = epochs / 2;
  config = config.WithSparsityTarget(dataset.AnnotationSparsity());
  auto trained = std::make_unique<core::DarModel>(
      eval::BuildEmbeddings(dataset, config), config);
  std::printf("training DAR (%lld examples, %lld epochs)...\n",
              static_cast<long long>(dataset.train.size()),
              static_cast<long long>(config.epochs));
  std::fflush(stdout);
  core::Fit(*trained, dataset);
  eval::MethodResult result = eval::EvaluateOnTest(*trained, dataset);
  std::printf("test F1 %.2f, label accuracy %.1f %% (%lld reviews, %.1f %% "
              "of tokens selected)\n",
              100.0 * result.rationale.f1, 100.0 * result.rationale_acc,
              static_cast<long long>(dataset.test.size()),
              100.0 * result.rationale.sparsity);
  std::fflush(stdout);

  // 2. Deployment path: save the checkpoint bundle, restore it fresh.
  const char* path = "/tmp/dar_serve_http.ckpt";
  if (!core::SaveRationalizer(*trained, path)) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  auto fresh = std::make_unique<core::DarModel>(
      eval::BuildEmbeddings(dataset, config), config);
  std::string error;
  std::shared_ptr<serve::InferenceSession> session =
      serve::InferenceSession::FromCheckpoint(std::move(fresh), dataset.vocab,
                                              path, &error);
  std::remove(path);
  if (session == nullptr) {
    std::fprintf(stderr, "restore failed: %s\n", error.c_str());
    return 1;
  }

  // 3. Registry + router + server. The router owns the metrics registry;
  //    the server shares it so /metrics also carries connection counters.
  serve::ModelRegistry registry;
  net::RouterConfig router_config;
  router_config.tracing.enabled = tracing;
  router_config.tracing.tail.latency_threshold_us =
      static_cast<int64_t>(slow_ms) * 1000;
  if (cache_mb > 0) {
    router_config.serve.cache.enabled = true;
    router_config.serve.cache.capacity_bytes =
        static_cast<size_t>(cache_mb) << 20;
  }
  net::Router router(registry, router_config);
  router.ServeModel("beer-appearance", session);

  net::ServerConfig server_config;
  server_config.port = port;
  server_config.metrics = &router.metrics();
  net::HttpServer server(router.AsHandler(), server_config);
  if (!server.Start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    return 1;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::printf("listening on port %d\n", server.port());
  std::printf("  curl -s -X POST localhost:%d/v1/models/beer-appearance/predict"
              " -d '{\"text\": \"...\"}'\n", server.port());
  if (tracing) {
    std::printf("tracing on: slow (>%d ms) and errored requests are "
                "reported below; inspect any of them with\n"
                "  curl -s localhost:%d/debug/trace/<trace_id>\n",
                slow_ms, server.port());
  }
  std::fflush(stdout);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (router.tracer() == nullptr) continue;
    // Surface what the tail sampler caught since the last tick: the trace
    // id printed here is live — /debug/trace/<id> returns the span tree.
    for (const obs::RequestSummary& summary :
         router.tracer()->DrainTailSampled()) {
      std::printf("[%s] trace %s: %s /%s status=%d latency=%lld us "
                  "spans=%u\n",
                  summary.tail_reason ==
                          static_cast<uint8_t>(obs::TailReason::kError)
                      ? "error"
                      : "slow",
                  summary.trace_id, summary.route, summary.model,
                  summary.status,
                  static_cast<long long>(summary.latency_us),
                  summary.total_spans);
      std::fflush(stdout);
    }
  }
  std::printf("draining...\n");
  std::fflush(stdout);
  server.Stop();  // graceful: in-flight requests finish before this returns
  std::printf("stopped\n");
  return 0;
}

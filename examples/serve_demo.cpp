// End-to-end serving walkthrough: train DAR -> save checkpoint -> restore
// into an InferenceSession -> register it -> serve concurrent requests
// through the micro-batcher and print rationales + serving stats.
//
//   ./build/examples/serve_demo
#include <cstdio>
#include <future>
#include <memory>

#include "core/dar.h"
#include "core/trainer.h"
#include "datasets/beer.h"
#include "eval/experiment.h"
#include "serve/batcher.h"
#include "serve/registry.h"
#include "serve/session.h"

int main() {
  using namespace dar;

  // 1. Train a small DAR model on the synthetic beer-appearance aspect.
  datasets::SyntheticDataset dataset = datasets::MakeBeerDataset(
      datasets::BeerAspect::kAppearance, {.train = 600, .dev = 120, .test = 150},
      /*seed=*/42);
  core::TrainConfig config;
  config.epochs = 9;
  config.pretrain_epochs = 5;
  config = config.WithSparsityTarget(dataset.AnnotationSparsity());
  auto trained = std::make_unique<core::DarModel>(
      eval::BuildEmbeddings(dataset, config), config);
  std::printf("training DAR (%lld examples, %lld epochs)...\n",
              static_cast<long long>(dataset.train.size()),
              static_cast<long long>(config.epochs));
  core::Fit(*trained, dataset);

  // 2. Save the trained model, then restore it into a serving session —
  //    the exact deployment path (checkpoints restore bit-exactly).
  const char* path = "/tmp/dar_serve_demo.ckpt";
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
  if (session == nullptr) {
    std::fprintf(stderr, "restore failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("checkpoint restored from %s\n\n", path);

  // 3. Register the session under its aspect name (a production deployment
  //    registers one model per aspect and routes by name).
  serve::ModelRegistry registry;
  registry.Register("beer-appearance", session);

  // 4. Serve requests through the micro-batcher.
  serve::BatcherConfig batcher_config;
  batcher_config.max_batch = 8;
  batcher_config.num_workers = 2;
  serve::MicroBatcher batcher(*registry.Get("beer-appearance"), batcher_config);

  std::vector<std::string> requests;
  {
    // Build requests from real test examples so the rationales are
    // meaningful (served text = the example's tokens).
    for (size_t i = 0; i < 6 && i < dataset.test.size(); ++i) {
      std::string text;
      for (int64_t id : dataset.test[i].tokens) {
        if (!text.empty()) text += ' ';
        text += dataset.vocab.Token(id);
      }
      requests.push_back(text);
    }
  }

  std::vector<std::future<serve::InferenceResult>> futures;
  for (const std::string& text : requests) {
    futures.push_back(batcher.Submit(text));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    serve::InferenceResult result = futures[i].get();
    std::printf("request %zu: label=%lld confidence=%.3f\n", i,
                static_cast<long long>(result.label), result.confidence);
    std::printf("  text:      %.80s...\n", requests[i].c_str());
    std::printf("  rationale: %s\n", result.rationale_text.c_str());
    std::printf("  spans:    ");
    for (const serve::RationaleSpan& span : result.spans) {
      std::printf(" [%lld, %lld)", static_cast<long long>(span.begin),
                  static_cast<long long>(span.end));
    }
    std::printf("\n");
  }

  // 5. Serving stats: the one-line snapshot plus the Prometheus text
  //    exposition a scrape endpoint would return (CI greps a line of it).
  std::printf("\nserving stats: %s\n",
              session->stats().Snapshot().ToString().c_str());
  std::printf("\nprometheus exposition:\n%s",
              session->stats().ExportPrometheus().c_str());
  std::remove(path);
  return 0;
}

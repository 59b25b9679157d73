// Tests for the serving subsystem (src/serve/): session, micro-batcher,
// registry, stats, thread pool, and checkpoint-restored serving.
#include <atomic>
#include <cstring>
#include <future>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "core/dar.h"
#include "core/rnp.h"
#include "datasets/beer.h"
#include "eval/experiment.h"
#include "gated_model.h"
#include "obs/recorder.h"
#include "obs/trace_context.h"
#include "serve/batcher.h"
#include "serve/cache.h"
#include "serve/registry.h"
#include "serve/session.h"
#include "serve/thread_pool.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace serve {
namespace {

/// A tiny dataset + untrained RNP model: serving correctness (batched ==
/// unbatched, determinism, routing) does not require a trained model, and
/// random weights still produce non-trivial masks and logits.
datasets::SyntheticDataset TinyDataset(uint64_t seed = 3) {
  return datasets::MakeBeerDataset(datasets::BeerAspect::kAppearance,
                                   {.train = 40, .dev = 10, .test = 10}, seed);
}

core::TrainConfig TinyConfig() {
  core::TrainConfig config;
  config.embedding_dim = 16;
  config.hidden_dim = 8;
  return config;
}

/// With a `gate`, every forward waits until the test opens it
/// (gated_model.h); the weights are the same either way.
std::unique_ptr<InferenceSession> MakeSession(
    uint64_t seed = 3, std::shared_ptr<ForwardGate> gate = nullptr) {
  datasets::SyntheticDataset dataset = TinyDataset(seed);
  core::TrainConfig config = TinyConfig();
  config.seed = seed;
  auto model = MakeRnpModel(eval::BuildEmbeddings(dataset, config), config,
                            std::move(gate));
  return std::make_unique<InferenceSession>(std::move(model), dataset.vocab);
}

/// Counts of each batch size a session has served: entry b-1 counts
/// batches of b requests (serve.batch_size has unit-width buckets).
std::vector<int64_t> BatchSizeCounts(const InferenceSession& session) {
  return session.stats()
      .registry()
      .GetHistogram("serve.batch_size", {})
      .BucketCounts();
}

/// Sample request texts built from dataset vocabulary tokens (so they
/// exercise real embeddings) with varying lengths.
std::vector<std::string> SampleTexts(const datasets::SyntheticDataset& dataset,
                                     size_t count) {
  std::vector<std::string> texts;
  Pcg32 rng(99);
  for (size_t i = 0; i < count; ++i) {
    int len = 3 + static_cast<int>(rng.Below(12));
    std::string text;
    for (int t = 0; t < len; ++t) {
      if (t) text += ' ';
      // Skip <pad>/<unk>: real requests carry real words.
      int64_t id = 2 + static_cast<int64_t>(
                           rng.Below(static_cast<uint32_t>(
                               dataset.vocab.size() - 2)));
      text += dataset.vocab.Token(id);
    }
    texts.push_back(text);
  }
  return texts;
}

void ExpectSameResult(const InferenceResult& a, const InferenceResult& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_FLOAT_EQ(a.confidence, b.confidence);
  ASSERT_EQ(a.mask.size(), b.mask.size());
  EXPECT_EQ(a.mask, b.mask);
  EXPECT_EQ(a.tokens, b.tokens);
  EXPECT_EQ(a.rationale_text, b.rationale_text);
  ASSERT_EQ(a.spans.size(), b.spans.size());
  for (size_t s = 0; s < a.spans.size(); ++s) {
    EXPECT_TRUE(a.spans[s] == b.spans[s]);
  }
}

TEST(MaskToSpansTest, CollapsesRuns) {
  EXPECT_TRUE(MaskToSpans({}).empty());
  EXPECT_TRUE(MaskToSpans({0, 0, 0}).empty());

  std::vector<RationaleSpan> spans = MaskToSpans({1, 1, 0, 1, 0, 0, 1});
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_TRUE((spans[0] == RationaleSpan{0, 2}));
  EXPECT_TRUE((spans[1] == RationaleSpan{3, 4}));
  EXPECT_TRUE((spans[2] == RationaleSpan{6, 7}));

  spans = MaskToSpans({1, 1, 1});
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE((spans[0] == RationaleSpan{0, 3}));
}

TEST(InferenceSessionTest, PredictReturnsConsistentFields) {
  auto session = MakeSession();
  InferenceResult r = session->Predict("the beer looks great great great");
  EXPECT_GE(r.label, 0);
  EXPECT_LT(r.label, 2);
  EXPECT_GT(r.confidence, 0.0f);
  EXPECT_LE(r.confidence, 1.0f);
  ASSERT_EQ(r.probs.size(), 2u);
  EXPECT_NEAR(r.probs[0] + r.probs[1], 1.0f, 1e-5f);
  EXPECT_EQ(r.tokens.size(), 6u);
  EXPECT_EQ(r.mask.size(), 6u);
  // Spans and rationale text are consistent with the mask.
  size_t selected = 0;
  for (uint8_t m : r.mask) selected += m;
  size_t span_tokens = 0;
  for (const RationaleSpan& s : r.spans) {
    span_tokens += static_cast<size_t>(s.end - s.begin);
  }
  EXPECT_EQ(selected, span_tokens);
}

TEST(InferenceSessionTest, EmptyTextServable) {
  auto session = MakeSession();
  InferenceResult r = session->Predict("");
  EXPECT_EQ(r.tokens.size(), 1u);
  EXPECT_EQ(r.tokens[0], "<unk>");
}

TEST(InferenceSessionTest, OutOfVocabularyMapsToUnk) {
  auto session = MakeSession();
  InferenceResult r = session->Predict("zzzzqqqq_not_a_word");
  ASSERT_EQ(r.tokens.size(), 1u);
  EXPECT_EQ(r.tokens[0], "<unk>");
}

TEST(InferenceSessionTest, PredictIsDeterministic) {
  auto session = MakeSession();
  std::string text = "smells of citrus and pine with a thin head";
  InferenceResult a = session->Predict(text);
  InferenceResult b = session->Predict(text);
  ExpectSameResult(a, b);
}

TEST(InferenceSessionTest, BatchedForwardMatchesSingleRequests) {
  datasets::SyntheticDataset dataset = TinyDataset();
  auto session = MakeSession();
  std::vector<std::string> texts = SampleTexts(dataset, 17);
  std::vector<std::vector<int64_t>> sequences;
  for (const std::string& text : texts) {
    sequences.push_back(session->Encode(text));
  }
  std::vector<InferenceResult> batched = session->PredictTokenBatch(sequences);
  ASSERT_EQ(batched.size(), texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    InferenceResult single = session->Predict(texts[i]);
    ExpectSameResult(batched[i], single);
  }
}

TEST(InferenceSessionTest, ServedModelIsFrozenAndServesTheUnfrozenBits) {
  // A session freezes every parameter of its model, so a served forward
  // records no backward closure and keeps no BPTT state; the answers keep
  // the bits of the same weights left trainable.
  datasets::SyntheticDataset dataset = TinyDataset();
  core::TrainConfig config = TinyConfig();
  const Tensor embeddings = eval::BuildEmbeddings(dataset, config);
  auto served = std::make_unique<core::DarModel>(embeddings, config);
  core::DarModel* served_model = served.get();
  core::DarModel twin(embeddings, config);
  twin.SetTraining(false);
  InferenceSession session(std::move(served), dataset.vocab);
  int64_t frozen = 0;
  for (const nn::NamedModule& module : served_model->CheckpointModules()) {
    for (const nn::NamedParameter& p : module.module->Parameters()) {
      EXPECT_FALSE(p.variable.requires_grad()) << module.name << " " << p.name;
      ++frozen;
    }
  }
  EXPECT_GT(frozen, 0);
  EXPECT_FALSE(twin.TrainableParameters().empty());
  for (const ag::Variable& p : twin.TrainableParameters()) {
    EXPECT_TRUE(p.requires_grad());
  }

  std::vector<std::vector<int64_t>> sequences;
  for (const std::string& text : SampleTexts(dataset, 9)) {
    sequences.push_back(session.Encode(text));
  }
  const std::vector<InferenceResult> results =
      session.PredictTokenBatch(sequences);
  const data::Batch batch =
      data::Batch::FromTokenSequences(sequences, data::Vocabulary::kPadId);
  const Tensor mask = twin.EvalMask(batch);
  const Tensor probs = SoftmaxRows(twin.PredictLogits(batch, mask));
  ASSERT_EQ(results.size(), sequences.size());
  for (size_t i = 0; i < results.size(); ++i) {
    const int64_t row = static_cast<int64_t>(i);
    for (size_t t = 0; t < results[i].mask.size(); ++t) {
      EXPECT_EQ(results[i].mask[t],
                mask.at(row, static_cast<int64_t>(t)) > 0.5f ? 1 : 0);
    }
    ASSERT_EQ(results[i].probs.size(), static_cast<size_t>(probs.size(1)));
    EXPECT_EQ(std::memcmp(results[i].probs.data(),
                          probs.data() + row * probs.size(1),
                          results[i].probs.size() * sizeof(float)),
              0)
        << "row " << i;
  }
}

TEST(InferenceSessionTest, FromCheckpointRestoresExactModel) {
  datasets::SyntheticDataset dataset = TinyDataset();
  core::TrainConfig config = TinyConfig();
  Tensor embeddings = eval::BuildEmbeddings(dataset, config);

  auto trained = std::make_unique<core::DarModel>(embeddings, config);
  std::string path = ::testing::TempDir() + "/serve_session_test.ckpt";
  ASSERT_TRUE(core::SaveRationalizer(*trained, path));

  config.seed = 1234;  // fresh model starts from different random weights
  auto fresh = std::make_unique<core::DarModel>(embeddings, config);
  std::string error;
  auto restored = InferenceSession::FromCheckpoint(
      std::move(fresh), dataset.vocab, path, &error);
  ASSERT_NE(restored, nullptr) << error;

  InferenceSession original(std::move(trained), dataset.vocab);
  for (const std::string& text : SampleTexts(dataset, 5)) {
    ExpectSameResult(original.Predict(text), restored->Predict(text));
  }
  std::remove(path.c_str());
}

TEST(InferenceSessionTest, FromCheckpointRejectsMissingFile) {
  datasets::SyntheticDataset dataset = TinyDataset();
  core::TrainConfig config = TinyConfig();
  auto model = std::make_unique<core::RnpModel>(
      eval::BuildEmbeddings(dataset, config), config);
  std::string error;
  auto session = InferenceSession::FromCheckpoint(
      std::move(model), dataset.vocab, "/nonexistent/model.ckpt", &error);
  EXPECT_EQ(session, nullptr);
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(MicroBatcherTest, BatchedResultsEqualSingleRequestPath) {
  datasets::SyntheticDataset dataset = TinyDataset();
  auto session = MakeSession();
  std::vector<std::string> texts = SampleTexts(dataset, 40);

  BatcherConfig config;
  config.max_batch = 8;
  config.num_workers = 2;
  MicroBatcher batcher(*session, config);

  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(texts.size());
  for (const std::string& text : texts) futures.push_back(batcher.Submit(text));
  for (size_t i = 0; i < texts.size(); ++i) {
    InferenceResult batched = futures[i].get();
    InferenceResult single = session->Predict(texts[i]);
    ExpectSameResult(batched, single);
  }
}

TEST(MicroBatcherTest, CachedSessionBatchesMisses) {
  datasets::SyntheticDataset dataset = TinyDataset();
  auto gate = std::make_shared<ForwardGate>();
  auto session = MakeSession(3, gate);
  auto uncached = MakeSession();
  CacheConfig cache_config;
  cache_config.enabled = true;
  ServeCache cache(cache_config);
  session->EnableCache(&cache, "batched");
  std::vector<std::string> texts = SampleTexts(dataset, 32);
  // Distinct texts: every request misses the encoder tier, so only
  // batching the misses can put more than one request in a forward.
  ASSERT_EQ(std::set<std::string>(texts.begin(), texts.end()).size(),
            texts.size());

  BatcherConfig config;
  config.max_batch = 8;
  config.num_workers = 1;
  {
    MicroBatcher batcher(*session, config);
    OpenOnExit release(gate);
    // The gate holds the lone worker on the first request, so the other
    // 31 queue up behind it and drain as full batches.
    std::vector<std::future<InferenceResult>> futures;
    futures.push_back(batcher.Submit(texts[0]));
    gate->AwaitEntered();
    for (size_t i = 1; i < texts.size(); ++i) {
      futures.push_back(batcher.Submit(texts[i]));
    }
    gate->Open();
    for (size_t i = 0; i < texts.size(); ++i) {
      InferenceResult batched = futures[i].get();
      EXPECT_NE(batched.cache, CacheOutcome::kHit);
      ExpectSameResult(batched, uncached->Predict(texts[i]));
    }
  }
  StatsSnapshot stats = session->stats().Snapshot();
  EXPECT_EQ(stats.requests, static_cast<int64_t>(texts.size()));
  EXPECT_LT(stats.batches, stats.requests);
  EXPECT_GT(stats.mean_batch_size, 1.0);
  // 1 + 8 + 8 + 8 + 7.
  EXPECT_EQ(stats.batches, 5);
  std::vector<int64_t> sizes = BatchSizeCounts(*session);
  EXPECT_EQ(sizes[0], 1);
  EXPECT_EQ(sizes[6], 1);
  EXPECT_EQ(sizes[7], 3);
}

TEST(MicroBatcherTest, ConcurrentProducersAllResolve) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 30;
  datasets::SyntheticDataset dataset = TinyDataset();
  auto session = MakeSession();
  std::vector<std::string> texts =
      SampleTexts(dataset, kProducers * kPerProducer);

  BatcherConfig config;
  config.max_batch = 16;
  config.num_workers = 3;
  std::atomic<int> resolved{0};
  {
    MicroBatcher batcher(*session, config);
    std::vector<std::thread> producers;
    std::vector<std::vector<std::future<InferenceResult>>> futures(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          futures[static_cast<size_t>(p)].push_back(
              batcher.Submit(texts[static_cast<size_t>(p * kPerProducer + i)]));
        }
      });
    }
    for (std::thread& t : producers) t.join();
    for (int p = 0; p < kProducers; ++p) {
      for (int i = 0; i < kPerProducer; ++i) {
        InferenceResult batched = futures[static_cast<size_t>(p)]
                                      [static_cast<size_t>(i)].get();
        InferenceResult single =
            session->Predict(texts[static_cast<size_t>(p * kPerProducer + i)]);
        ExpectSameResult(batched, single);
        ++resolved;
      }
    }
  }
  EXPECT_EQ(resolved.load(), kProducers * kPerProducer);
}

TEST(MicroBatcherTest, ShutdownDrainsQueue) {
  auto session = MakeSession();
  BatcherConfig config;
  config.max_batch = 4;
  config.num_workers = 1;
  std::vector<std::future<InferenceResult>> futures;
  {
    MicroBatcher batcher(*session, config);
    for (int i = 0; i < 10; ++i) {
      futures.push_back(batcher.Submit("a beer with some hops"));
    }
    // Destructor shuts down; every future must still resolve.
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  }
}

TEST(MicroBatcherTest, CoalescesUnderConcurrentLoad) {
  auto gate = std::make_shared<ForwardGate>();
  auto session = MakeSession(3, gate);
  BatcherConfig config;
  config.max_batch = 8;
  config.num_workers = 1;
  {
    MicroBatcher batcher(*session, config);
    OpenOnExit release(gate);
    std::vector<std::future<InferenceResult>> futures;
    futures.push_back(batcher.Submit("crisp golden lager"));
    gate->AwaitEntered();
    for (int i = 1; i < 32; ++i) {
      futures.push_back(batcher.Submit("crisp golden lager"));
    }
    gate->Open();
    for (auto& f : futures) f.get();
  }
  StatsSnapshot snapshot = session->stats().Snapshot();
  EXPECT_EQ(snapshot.requests, 32);
  // The first request runs alone while the other 31 queue behind it; the
  // free worker then takes them greedily, max_batch at a time: far fewer
  // forwards than requests, exactly 1 + 8 + 8 + 8 + 7.
  EXPECT_LT(snapshot.batches, 32);
  EXPECT_GT(snapshot.mean_batch_size, 1.0);
  EXPECT_EQ(snapshot.batches, 5);
  std::vector<int64_t> sizes = BatchSizeCounts(*session);
  EXPECT_EQ(sizes[0], 1);
  EXPECT_EQ(sizes[6], 1);
  EXPECT_EQ(sizes[7], 3);
}

TEST(MicroBatcherTest, GreedyDrainServesQueuedRequestsAsOneLinkedBatch) {
  datasets::SyntheticDataset dataset = TinyDataset();
  std::vector<std::string> texts = SampleTexts(dataset, 4);
  auto gate = std::make_shared<ForwardGate>();
  auto session = MakeSession(3, gate);
  auto twin = MakeSession();
  BatcherConfig config;
  config.max_batch = 8;
  config.num_workers = 1;
  MicroBatcher batcher(*session, config);
  OpenOnExit release(gate);

  // A holds the worker; B, C and D queue behind it, each traced.
  std::future<InferenceResult> held = batcher.Submit(texts[0]);
  gate->AwaitEntered();
  std::vector<std::shared_ptr<obs::TraceCollector>> traces;
  std::vector<std::future<InferenceResult>> queued;
  for (size_t i = 1; i < texts.size(); ++i) {
    traces.push_back(
        std::make_shared<obs::TraceCollector>(obs::MakeTraceContext()));
    obs::ScopedRequestTrace scope(traces.back());
    queued.push_back(batcher.Submit(texts[i]));
  }
  gate->Open();

  ExpectSameResult(held.get(), twin->Predict(texts[0]));
  for (size_t i = 0; i < queued.size(); ++i) {
    ExpectSameResult(queued[i].get(), twin->Predict(texts[i + 1]));
  }
  // Two forwards: A alone, then B, C and D together.
  EXPECT_EQ(session->stats().Snapshot().batches, 2);
  std::vector<int64_t> sizes = BatchSizeCounts(*session);
  EXPECT_EQ(sizes[0], 1);
  EXPECT_EQ(sizes[2], 1);
  // Each co-batched trace links exactly the other two.
  for (size_t i = 0; i < traces.size(); ++i) {
    obs::CompletedTrace trace = traces[i]->Finish("predict", "beer", 200);
    std::set<std::string> peers;
    for (size_t j = 0; j < traces.size(); ++j) {
      if (j != i) peers.insert(obs::TraceIdHex(traces[j]->context()));
    }
    EXPECT_EQ(std::set<std::string>(trace.batch_links.begin(),
                                    trace.batch_links.end()),
              peers);
    EXPECT_EQ(trace.batch_links.size(), 2u);
    EXPECT_EQ(trace.total_links, 2u);
  }
}

TEST(MicroBatcherTest, BoundedQueueStillServesEverything) {
  datasets::SyntheticDataset dataset = TinyDataset();
  auto session = MakeSession();
  std::vector<std::string> texts = SampleTexts(dataset, 48);

  BatcherConfig config;
  config.max_batch = 4;
  config.num_workers = 1;
  config.max_queue = 6;  // far fewer slots than in-flight submissions
  MicroBatcher batcher(*session, config);

  constexpr int kProducers = 3;
  std::vector<std::thread> producers;
  std::vector<std::vector<std::future<InferenceResult>>> futures(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = static_cast<size_t>(p); i < texts.size();
           i += kProducers) {
        futures[static_cast<size_t>(p)].push_back(batcher.Submit(texts[i]));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  // Backpressure may block submitters but must never drop or corrupt a
  // request: every future resolves to the single-request result.
  for (int p = 0; p < kProducers; ++p) {
    size_t slot = 0;
    for (size_t i = static_cast<size_t>(p); i < texts.size();
         i += kProducers, ++slot) {
      InferenceResult batched = futures[static_cast<size_t>(p)][slot].get();
      ExpectSameResult(batched, session->Predict(texts[i]));
    }
  }
}

TEST(MicroBatcherTest, TrySubmitRejectsAtQueueBound) {
  auto gate = std::make_shared<ForwardGate>();
  auto session = MakeSession(3, gate);
  BatcherConfig config;
  config.max_batch = 8;
  config.num_workers = 1;
  config.max_queue = 1;
  MicroBatcher batcher(*session, config);
  OpenOnExit release(gate);

  // The gate holds the lone worker mid-forward on the first request, so
  // the second deterministically occupies the one queue slot while we
  // probe the bound.
  auto held = batcher.TrySubmit("first request holds the worker");
  ASSERT_TRUE(held.has_value());
  gate->AwaitEntered();
  auto accepted = batcher.TrySubmit("second request fills the queue");
  ASSERT_TRUE(accepted.has_value());
  auto rejected = batcher.TrySubmit("third request must shed");
  EXPECT_FALSE(rejected.has_value());
  gate->Open();

  // The admitted requests are served normally once the gate opens, and
  // rejection never corrupted them.
  ExpectSameResult(held->get(),
                   session->Predict("first request holds the worker"));
  ExpectSameResult(accepted->get(),
                   session->Predict("second request fills the queue"));
  // With the queue drained, admission reopens.
  auto after = batcher.TrySubmit("fourth request fits again");
  ASSERT_TRUE(after.has_value());
  ExpectSameResult(after->get(),
                   session->Predict("fourth request fits again"));
}

TEST(MicroBatcherTest, TrySubmitUnboundedNeverRejects) {
  auto session = MakeSession();
  BatcherConfig config;
  config.max_batch = 2;
  config.num_workers = 1;
  config.max_queue = 0;  // unbounded
  MicroBatcher batcher(*session, config);
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 32; ++i) {
    auto future = batcher.TrySubmit("always admitted");
    ASSERT_TRUE(future.has_value()) << i;
    futures.push_back(std::move(*future));
  }
  InferenceResult direct = session->Predict("always admitted");
  for (auto& future : futures) ExpectSameResult(future.get(), direct);
}

TEST(ServingStatsTest, SnapshotAggregates) {
  ServingStats stats;
  stats.RecordBatch(1);
  stats.RecordBatch(3);
  stats.RecordBatch(4);
  for (int64_t us : {100, 200, 300, 400, 500, 600, 700, 800}) {
    stats.RecordLatencyUs(us);
  }
  StatsSnapshot snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.requests, 8);
  EXPECT_EQ(snapshot.batches, 3);
  EXPECT_DOUBLE_EQ(snapshot.mean_batch_size, 8.0 / 3.0);
  // serve.batch_size has unit-width buckets: bucket b-1 counts size b.
  std::vector<int64_t> sizes =
      stats.registry().GetHistogram("serve.batch_size", {}).BucketCounts();
  EXPECT_EQ(sizes[0], 1);
  EXPECT_EQ(sizes[2], 1);
  EXPECT_EQ(sizes[3], 1);
  EXPECT_EQ(snapshot.latency_p50_us, 400);
  EXPECT_EQ(snapshot.latency_p95_us, 800);
  EXPECT_EQ(snapshot.latency_p99_us, 800);
  EXPECT_EQ(snapshot.latency_max_us, 800);
  EXPECT_FALSE(snapshot.ToString().empty());

  // The registry is the only store: zeroing it zeroes the snapshot.
  stats.registry().ResetAll();
  snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.requests, 0);
  EXPECT_EQ(snapshot.latency_p99_us, 0);
}

TEST(ModelRegistryTest, RoutesByName) {
  ModelRegistry registry;
  EXPECT_FALSE(registry.Contains("beer"));
  EXPECT_EQ(registry.Predict("beer", "some text"), std::nullopt);

  std::shared_ptr<InferenceSession> beer = MakeSession(3);
  std::shared_ptr<InferenceSession> hotel = MakeSession(7);
  registry.Register("beer", beer);
  registry.Register("hotel", hotel);

  EXPECT_EQ(registry.Get("beer"), beer);
  EXPECT_EQ(registry.Get("hotel"), hotel);

  // Routing reaches the right model: each session records its own stats.
  ASSERT_TRUE(registry.Predict("beer", "pours a hazy amber").has_value());
  EXPECT_EQ(beer->stats().Snapshot().requests, 1);
  EXPECT_EQ(hotel->stats().Snapshot().requests, 0);

  EXPECT_TRUE(registry.Unregister("hotel"));
  EXPECT_FALSE(registry.Unregister("hotel"));
  EXPECT_FALSE(registry.Contains("hotel"));
}

TEST(ModelRegistryTest, HotSwapAndUnregisterKeepPrivateStatsPrivate) {
  // The registry binds nothing: sessions keep their private stats across
  // hot swap, unregister and registry destruction, and keep serving once
  // the registry is gone.
  std::shared_ptr<InferenceSession> first = MakeSession(3);
  std::shared_ptr<InferenceSession> second = MakeSession(7);
  {
    ModelRegistry registry;
    registry.Register("beer", first);
    ASSERT_TRUE(registry.Predict("beer", "pours a hazy amber").has_value());
    registry.Register("beer", second);  // hot swap
    ASSERT_TRUE(registry.Predict("beer", "thin head but clear").has_value());
    EXPECT_TRUE(registry.Unregister("beer"));
  }
  EXPECT_EQ(first->stats().Snapshot().requests, 1);
  EXPECT_EQ(second->stats().Snapshot().requests, 1);
  ASSERT_FALSE(
      second->Predict("still serving after the registry died").mask.empty());
  EXPECT_EQ(second->stats().Snapshot().requests, 2);
  EXPECT_EQ(first->stats().Snapshot().requests, 1);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { ++counter; });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), 100);
    // Pool is reusable after Wait.
    pool.Submit([&counter] { ++counter; });
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 101);
}

}  // namespace
}  // namespace serve
}  // namespace dar

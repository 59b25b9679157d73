// The predict workloads. This process is the serving process: it trains
// the served model in a child process (setup), restores the checkpoint
// into the deployment examples/dar_serve_http runs and serves it over
// loopback. A second child, the load generator, drives 4 keep-alive
// connections in a closed loop, then checks every response against an
// in-process InferenceSession::Predict reference of its own. In a traced
// run this process finally replays the request sequence through the
// serving layers' public functions to build the per-layer ledger.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "eval/experiment.h"
#include "ledger.h"
#include "net/client.h"
#include "net/http.h"
#include "net/routes.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/cache.h"
#include "serve/registry.h"
#include "serve/session.h"
#include "workload.h"

namespace dar {
namespace e2e {

namespace {

constexpr char kModelName[] = "beer-appearance";
constexpr char kPredictPath[] = "/v1/models/beer-appearance/predict";
/// Keep-alive connections, one client thread each (= nproc on the 4-vCPU
/// host the bounds were measured on; see README.md).
constexpr int kConnections = 4;
/// Setups per end-to-end run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Untimed requests per connection before the timed phase (connections
/// open, first-touch allocations settle).
constexpr int kWarmupPerConnection = 25;
/// Requests the traced probes replay: past the ~2.2k entries the encoder
/// tier holds, so the unique replay evicts too.
constexpr int64_t kProbeRequests = 2500;
/// Request rate the unique corpus is sized for; a run that outpaces it
/// ends its timed phase when the corpus runs out.
constexpr int64_t kCorpusRatePerSecond = 8000;
/// Untraced/traced slice pairs of a traced run.
constexpr int kTraceSlices = 5;

/// The serving configuration examples/dar_serve_http deploys: 64 MiB
/// serving cache, request tracing with the 250 ms slow-request threshold,
/// default batcher.
net::RouterConfig DeployedRouterConfig() {
  net::RouterConfig config;
  config.tracing.enabled = true;
  config.tracing.tail.latency_threshold_us = 250 * 1000;
  config.serve.cache.enabled = true;
  config.serve.cache.capacity_bytes = size_t{64} << 20;
  return config;
}

std::shared_ptr<serve::InferenceSession> RestoreServed(const std::string& ckpt,
                                                       std::string* error) {
  datasets::SyntheticDataset dataset = ServedDataset();
  core::TrainConfig config = ServedConfig(dataset.AnnotationSparsity());
  return serve::InferenceSession::FromCheckpoint(
      eval::MakeMethod("DAR", dataset, config), dataset.vocab, ckpt, error);
}

/// Handler spans of the traced phase: time inside Router::Handle per
/// request, recorded only while `on`.
struct HandlerTrace {
  std::atomic<bool> on{false};
  std::atomic<int64_t> next_request{0};
  SpanLog* spans = nullptr;
};

/// The deployed stack. Members are destroyed bottom-up: the server stops
/// before the router it calls, the router before the registry it fronts.
struct ServingStack {
  std::shared_ptr<serve::InferenceSession> session;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<net::Router> router;
  std::unique_ptr<net::HttpServer> server;
};

/// Restores `ckpt` and serves it on a kernel-chosen loopback port. With
/// `trace`, the server's handler wraps Router::Handle in a span.
std::unique_ptr<ServingStack> StartServing(const std::string& ckpt,
                                           HandlerTrace* trace,
                                           std::string* error) {
  auto stack = std::make_unique<ServingStack>();
  stack->session = RestoreServed(ckpt, error);
  if (stack->session == nullptr) return nullptr;
  stack->registry = std::make_unique<serve::ModelRegistry>();
  stack->router = std::make_unique<net::Router>(*stack->registry,
                                                DeployedRouterConfig());
  stack->router->ServeModel(kModelName, stack->session);
  net::HttpHandler handler = stack->router->AsHandler();
  if (trace != nullptr) {
    net::Router* router = stack->router.get();
    handler = [router, trace](const net::HttpRequest& request) {
      if (!trace->on.load(std::memory_order_relaxed)) {
        return router->Handle(request);
      }
      const int64_t start = NowNs();
      net::HttpResponse response = router->Handle(request);
      trace->spans->Record("http.handle", trace->next_request.fetch_add(1),
                           start, NowNs());
      return response;
    };
  }
  net::ServerConfig server_config;
  server_config.metrics = &stack->router->metrics();
  stack->server =
      std::make_unique<net::HttpServer>(std::move(handler), server_config);
  if (!stack->server->Start(error)) return nullptr;
  return stack;
}

/// Serves each review once over one connection (the repeat workload's
/// hot-set pass); false on any non-200.
bool ServeOnce(int port, const std::vector<Review>& reviews) {
  net::HttpClient client("127.0.0.1", port);
  for (const Review& review : reviews) {
    auto response = client.Post(kPredictPath, PredictBody(review.text));
    if (!response.has_value() || response->status != 200) return false;
  }
  return true;
}

/// Process and serving counters, read before and after a timed phase.
struct Counters {
  int64_t voluntary_switches = 0;
  double cpu_us = 0.0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t stats_requests = 0;
  int64_t stats_batches = 0;
  int64_t matmul_flops = 0;
  int64_t allocations = 0;
};

Counters ReadCounters(ServingStack& stack) {
  Counters c;
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  c.voluntary_switches = usage.ru_nvcsw;
  c.cpu_us = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) *
                 1e6 +
             static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  const serve::CacheTierStats cache = stack.router->cache()->Stats(
      stack.session->cache_model_id(), serve::ServeCache::kEncoderTierName);
  c.cache_hits = cache.hits;
  c.cache_misses = cache.misses;
  c.cache_evictions = cache.evictions;
  const serve::StatsSnapshot stats = stack.session->stats().Snapshot();
  c.stats_requests = stats.requests;
  c.stats_batches = stats.batches;
  c.matmul_flops =
      obs::MetricsRegistry::Global().GetCounter("matmul_flops_total").value();
  c.allocations = AllocationCount();
  return c;
}

/// Adds `after - before` into `sum`.
void AddDelta(const Counters& before, const Counters& after, Counters* sum) {
  sum->voluntary_switches += after.voluntary_switches - before.voluntary_switches;
  sum->cpu_us += after.cpu_us - before.cpu_us;
  sum->cache_hits += after.cache_hits - before.cache_hits;
  sum->cache_misses += after.cache_misses - before.cache_misses;
  sum->cache_evictions += after.cache_evictions - before.cache_evictions;
  sum->stats_requests += after.stats_requests - before.stats_requests;
  sum->stats_batches += after.stats_batches - before.stats_batches;
  sum->matmul_flops += after.matmul_flops - before.matmul_flops;
  sum->allocations += after.allocations - before.allocations;
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// "key=value key=value ..." -> map.
std::map<std::string, double> ParseFields(const std::string& line) {
  std::map<std::string, double> fields;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    fields[token.substr(0, eq)] = std::strtod(token.c_str() + eq + 1, nullptr);
  }
  return fields;
}

/// Sends one command line to the load generator and reads its reply.
bool Command(Child& load, const std::string& command, std::string* reply) {
  return load.WriteLine(command) && load.ReadLine(reply) &&
         reply->rfind("done", 0) == 0;
}

int64_t RepliedCount(const std::string& reply) {
  return ParseFields(reply.substr(std::min<size_t>(reply.size(), 5)))["n"];
}

// ---- Traced probes -----------------------------------------------------------

/// One probe stack: a session restored from the served checkpoint with a
/// serving cache of its own, so it sees the same hit/miss sequence as the
/// served session when fed the same requests.
struct ProbeSession {
  std::unique_ptr<serve::ServeCache> cache;
  std::shared_ptr<serve::InferenceSession> session;
};

std::optional<ProbeSession> MakeProbeSession(const std::string& ckpt,
                                             const std::string& label) {
  ProbeSession probe;
  std::string error;
  probe.session = RestoreServed(ckpt, &error);
  if (probe.session == nullptr) return std::nullopt;
  probe.cache =
      std::make_unique<serve::ServeCache>(DeployedRouterConfig().serve.cache);
  probe.session->EnableCache(probe.cache.get(), label);
  return probe;
}

bool SameResult(const serve::InferenceResult& a,
                const serve::InferenceResult& b) {
  return a.label == b.label && a.mask == b.mask &&
         a.probs.size() == b.probs.size() &&
         std::memcmp(a.probs.data(), b.probs.data(),
                     a.probs.size() * sizeof(float)) == 0;
}

/// Calls `serve(i)` for every i in [0, n) from kConnections threads, each
/// taking the next i as soon as its previous call returns (a closed loop,
/// like the load generator's connections).
template <typename Fn>
void ForEachConcurrently(size_t n, Fn serve) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        serve(i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

/// Replays `texts` (after an untimed pass over `warm`, as setup serves the
/// hot set) through three equivalent stacks and the model's stage
/// functions, recording per request:
///   probe.handle    Router::Handle on a probe router, 4 concurrent callers
///   probe.batcher   MicroBatcher::Submit -> get on a probe batcher, 4
///                   concurrent callers (so it queues as the served one does)
///   serve.encode    InferenceSession::Encode, one request at a time
///   serve.forward   InferenceSession::PredictTokenBatch through the cache,
///                   one request at a time
///   core.*          the four forward stages; the encoders only when the
///                   forward missed the cache, the heads on the cached
///                   states when it hit
/// Returns the number of requests on which the stacks disagreed (-1 when
/// a stack could not be built).
int64_t RunProbes(const std::string& ckpt, const std::vector<std::string>& warm,
                  const std::vector<std::string>& texts, SpanLog& spans) {
  serve::ModelRegistry registry;
  net::Router router(registry, DeployedRouterConfig());
  std::string error;
  std::shared_ptr<serve::InferenceSession> routed = RestoreServed(ckpt, &error);
  std::optional<ProbeSession> batched = MakeProbeSession(ckpt, "probe.batcher");
  std::optional<ProbeSession> direct = MakeProbeSession(ckpt, "probe.forward");
  if (routed == nullptr || !batched.has_value() || !direct.has_value()) {
    return -1;
  }
  router.ServeModel(kModelName, routed);
  serve::MicroBatcher batcher(*batched->session, DeployedRouterConfig().batcher);
  const serve::InferenceSession& session = *direct->session;
  const core::RationalizerBase& model = session.model();

  auto request_for = [](const std::string& text) {
    net::HttpRequest request;
    request.method = "POST";
    request.target = kPredictPath;
    request.version = "HTTP/1.1";
    request.headers = {{"content-type", "application/json"}};
    request.body = PredictBody(text);
    return request;
  };
  for (const std::string& text : warm) {
    router.Handle(request_for(text));
    batcher.Submit(text).get();
    session.PredictTokenBatch({session.Encode(text)});
  }

  std::atomic<int64_t> disagreements{0};
  ForEachConcurrently(texts.size(), [&](size_t i) {
    const net::HttpRequest request = request_for(texts[i]);
    const int64_t t = NowNs();
    const net::HttpResponse response = router.Handle(request);
    spans.Record("probe.handle", static_cast<int64_t>(i), t, NowNs());
    if (response.status != 200) ++disagreements;
  });
  std::vector<serve::InferenceResult> via_batcher(texts.size());
  ForEachConcurrently(texts.size(), [&](size_t i) {
    const int64_t t = NowNs();
    via_batcher[i] = batcher.Submit(texts[i]).get();
    spans.Record("probe.batcher", static_cast<int64_t>(i), t, NowNs());
  });

  // Per chunk of requests, pass 1 runs the forward as served and pass 2
  // its four stages one by one, so each stage meets data about as cold as
  // the forward met it (the chunk is the hot set's size, the repeat
  // workload's reuse distance) while both passes see the same minute of
  // host speed.
  std::vector<serve::CacheOutcome> outcomes(texts.size());
  std::vector<std::vector<int64_t>> encoded(texts.size());
  for (size_t begin = 0; begin < texts.size(); begin += kHotSetSize) {
    const size_t end =
        std::min(texts.size(), begin + static_cast<size_t>(kHotSetSize));
    for (size_t i = begin; i < end; ++i) {
      const int64_t id = static_cast<int64_t>(i);
      int64_t t = NowNs();
      encoded[i] = session.Encode(texts[i]);
      spans.Record("serve.encode", id, t, NowNs());
      t = NowNs();
      const std::vector<serve::InferenceResult> results =
          session.PredictTokenBatch({encoded[i]});
      spans.Record("serve.forward", id, t, NowNs());
      outcomes[i] = results[0].cache;
      if (!SameResult(via_batcher[i], results[0])) ++disagreements;
    }
    for (size_t i = begin; i < end; ++i) {
      const int64_t id = static_cast<int64_t>(i);
      const data::Batch batch = data::Batch::FromTokenSequences(
          {encoded[i]}, data::Vocabulary::kPadId);
      std::shared_ptr<const serve::EncoderStatesEntry> cached;
      if (outcomes[i] == serve::CacheOutcome::kHit) {
        // A hit skips both encoders: replay the heads on the cached states.
        cached = direct->cache->LookupEncoderStates(session.cache_model_id(),
                                                    encoded[i]);
      }
      if (cached != nullptr) {
        int64_t t = NowNs();
        model.EvalMaskFromStatesConst(batch, cached->gen_states);
        spans.Record("core.select", id, t, NowNs());
        t = NowNs();
        model.PredictLogitsFromStatesConst(batch, cached->pred_states);
        spans.Record("core.head", id, t, NowNs());
        continue;
      }
      int64_t t = NowNs();
      const Tensor gen = model.GenEncoderStatesConst(batch);
      spans.Record("core.gen_encoder", id, t, NowNs());
      t = NowNs();
      const Tensor mask = model.EvalMaskFromStatesConst(batch, gen);
      spans.Record("core.select", id, t, NowNs());
      t = NowNs();
      const Tensor pred = model.PredEncoderStatesConst(batch, mask);
      spans.Record("core.pred_encoder", id, t, NowNs());
      t = NowNs();
      model.PredictLogitsFromStatesConst(batch, pred);
      spans.Record("core.head", id, t, NowNs());
    }
  }
  return disagreements.load();
}

// ---- Load generator ----------------------------------------------------------

/// One request as the load generator saw it.
struct Record {
  int64_t index = 0;  // position in the request list
  int status = 0;     // 0 = transport error
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::string body;
};

struct Phase {
  std::string name;
  bool quality = false;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<Record> records;
};

/// Runs one closed-loop phase over `clients`: each connection sends its
/// next request as soon as the previous reply is in, taking requests from
/// `cursor` (modulo `bodies` when `cycle`), until `deadline_ns`, until it
/// has sent `per_connection` requests, or until the list runs out.
void RunPhase(std::vector<std::unique_ptr<net::HttpClient>>& clients,
              const std::vector<std::string>& bodies, bool cycle,
              std::atomic<int64_t>& cursor, int64_t deadline_ns,
              int64_t per_connection, Phase* phase) {
  std::vector<std::vector<Record>> per_client(clients.size());
  std::vector<int64_t> last_end(clients.size(), 0);
  phase->start_ns = NowNs();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      net::HttpClient& client = *clients[c];
      for (int64_t sent = 0; sent < per_connection; ++sent) {
        if (deadline_ns > 0 && NowNs() >= deadline_ns) break;
        const int64_t index = cursor.fetch_add(1);
        if (!cycle && index >= static_cast<int64_t>(bodies.size())) break;
        const std::string& body = bodies[static_cast<size_t>(
            index % static_cast<int64_t>(bodies.size()))];
        Record record;
        record.index = index;
        record.start_ns = NowNs();
        std::optional<net::ClientResponse> response =
            client.Post(kPredictPath, body);
        record.end_ns = NowNs();
        if (response.has_value()) {
          record.status = response->status;
          record.body = std::move(response->body);
        }
        last_end[c] = record.end_ns;
        per_client[c].push_back(std::move(record));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  phase->end_ns = *std::max_element(last_end.begin(), last_end.end());
  for (std::vector<Record>& records : per_client) {
    for (Record& record : records) phase->records.push_back(std::move(record));
  }
}

/// Checks one served body against the reference: label, mask and probs
/// bit for bit. Fills the served mask and label.
bool MatchesReference(const std::string& body,
                      const serve::InferenceResult& reference,
                      std::vector<uint8_t>* mask, int64_t* label) {
  std::optional<net::JsonValue> json = net::JsonValue::Parse(body);
  if (!json.has_value() || !json->is_object()) return false;
  const net::JsonValue* label_json = json->Find("label");
  const net::JsonValue* probs = json->Find("probs");
  const net::JsonValue* rationale = json->Find("rationale");
  const net::JsonValue* mask_json =
      rationale != nullptr ? rationale->Find("mask") : nullptr;
  if (label_json == nullptr || !label_json->is_number() || probs == nullptr ||
      !probs->is_array() || mask_json == nullptr || !mask_json->is_array()) {
    return false;
  }
  *label = static_cast<int64_t>(label_json->number_value);
  if (*label != reference.label ||
      probs->items.size() != reference.probs.size() ||
      mask_json->items.size() != reference.mask.size()) {
    return false;
  }
  for (size_t i = 0; i < reference.probs.size(); ++i) {
    const float served = static_cast<float>(probs->items[i].number_value);
    if (std::memcmp(&served, &reference.probs[i], sizeof(float)) != 0) {
      return false;
    }
  }
  mask->clear();
  for (size_t t = 0; t < reference.mask.size(); ++t) {
    const double m = mask_json->items[t].number_value;
    if (m != static_cast<double>(reference.mask[t])) return false;
    mask->push_back(reference.mask[t]);
  }
  return true;
}

std::vector<double> LatenciesMs(const Phase& phase) {
  std::vector<double> out;
  for (const Record& r : phase.records) {
    if (r.status == 200) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
    }
  }
  return out;
}

}  // namespace

int RunTrainServed(const Options& options) {
  datasets::SyntheticDataset dataset = ServedDataset();
  core::TrainConfig config = ServedConfig(dataset.AnnotationSparsity());
  std::unique_ptr<core::RationalizerBase> model =
      eval::MakeMethod("DAR", dataset, config);
  core::Fit(*model, dataset);
  return core::SaveRationalizer(*model, options.out) ? 0 : 1;
}

int RunLoad(const Options& options) {
  const bool repeat = options.workload == "predict_repeat";
  const int64_t corpus_size =
      repeat ? kHotSetSize
             : kConnections * kWarmupPerConnection +
                   kCorpusRatePerSecond * options.seconds;
  const std::vector<Review> corpus =
      MakeReviews(CorpusSeed(options.workload, options.seed), corpus_size);
  const std::vector<Review> quality = QualityReviews();
  std::vector<std::string> bodies;
  for (const Review& review : corpus) bodies.push_back(PredictBody(review.text));
  std::vector<std::string> quality_bodies;
  for (const Review& review : quality) {
    quality_bodies.push_back(PredictBody(review.text));
  }
  std::vector<std::unique_ptr<net::HttpClient>> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(
        std::make_unique<net::HttpClient>("127.0.0.1", options.port));
  }
  std::printf("ready\n");
  std::fflush(stdout);

  std::atomic<int64_t> cursor{0};
  std::vector<Phase> phases;
  char line[256];
  bool finished = false;
  while (!finished && std::fgets(line, sizeof(line), stdin) != nullptr) {
    std::istringstream command(line);
    std::string verb;
    command >> verb;
    Phase phase;
    if (verb == "warmup") {
      phase.name = "warmup";
      RunPhase(clients, bodies, repeat, cursor, 0, kWarmupPerConnection,
               &phase);
    } else if (verb == "timed") {
      int64_t ms = 0;
      command >> phase.name >> ms;
      RunPhase(clients, bodies, repeat, cursor, NowNs() + ms * 1000000,
               INT64_MAX, &phase);
    } else if (verb == "quality") {
      phase.name = "quality";
      phase.quality = true;
      std::atomic<int64_t> quality_cursor{0};
      RunPhase(clients, quality_bodies, false, quality_cursor, 0, INT64_MAX,
               &phase);
    } else if (verb == "finish") {
      finished = true;
      break;
    } else {
      return 2;
    }
    std::printf("done n=%zu\n", phase.records.size());
    std::fflush(stdout);
    phases.push_back(std::move(phase));
  }
  if (!finished) return 1;

  // Everything below runs after the last timed request: references from a
  // session that shares nothing with the served cache, then parsing and
  // scoring.
  std::string error;
  std::shared_ptr<serve::InferenceSession> reference =
      RestoreServed(options.ckpt, &error);
  if (reference == nullptr) {
    std::fprintf(stderr, "reference restore failed: %s\n", error.c_str());
    return 1;
  }
  const int64_t served = std::min<int64_t>(cursor.load(), corpus_size);
  std::vector<std::string> texts;
  for (int64_t i = 0; i < (repeat ? corpus_size : served); ++i) {
    texts.push_back(corpus[static_cast<size_t>(i)].text);
  }
  std::vector<serve::InferenceResult> expected(texts.size());
  ForEachConcurrently(texts.size(), [&](size_t i) {
    expected[i] = reference->Predict(texts[i]);
  });
  std::vector<serve::InferenceResult> quality_expected(quality.size());
  ForEachConcurrently(quality.size(), [&](size_t i) {
    quality_expected[i] = reference->Predict(quality[i].text);
  });

  int64_t attempted = 0;
  int64_t failed = 0;
  QualityScorer scorer;
  std::vector<std::string> verified(texts.size());  // last body that matched
  std::map<std::string, std::vector<double>> latencies;
  std::map<std::string, double> wall_s;
  std::map<std::string, int64_t> ok;
  SpanLog spans;
  for (const Phase& phase : phases) {
    for (const Record& record : phase.records) {
      ++attempted;
      std::vector<uint8_t> mask;
      int64_t label = -1;
      bool good = record.status == 200;
      if (good && phase.quality) {
        const Review& review = quality[static_cast<size_t>(record.index)];
        good = MatchesReference(record.body,
                                quality_expected[static_cast<size_t>(
                                    record.index)],
                                &mask, &label) &&
               mask.size() == review.rationale.size();
        if (good) scorer.Add(mask, review.rationale, label, review.label);
      } else if (good) {
        const size_t position =
            static_cast<size_t>(record.index % static_cast<int64_t>(
                                                   texts.size()));
        if (record.body != verified[position]) {
          good = MatchesReference(record.body, expected[position], &mask,
                                  &label);
          if (good) verified[position] = record.body;
        }
      }
      if (!good) {
        ++failed;
        continue;
      }
      ++ok[phase.name];
      if (options.trace && !phase.quality) {
        spans.Record("http.round_trip", record.index, record.start_ns,
                     record.end_ns);
      }
    }
    const std::vector<double> phase_latencies = LatenciesMs(phase);
    std::vector<double>& all = latencies[phase.name];
    all.insert(all.end(), phase_latencies.begin(), phase_latencies.end());
    wall_s[phase.name] +=
        static_cast<double>(phase.end_ns - phase.start_ns) / 1e9;
  }
  if (options.trace) spans.WriteJsonl(options.workdir + "/spans_load.jsonl");

  const std::string timed = "untraced";
  std::printf(
      "result attempted=%lld failed=%lld served=%lld "
      "throughput_per_s=%.17g p50_ms=%.17g p90_ms=%.17g traced_p50_ms=%.17g "
      "rationale_f1=%.17g label_acc=%.17g\n",
      static_cast<long long>(attempted), static_cast<long long>(failed),
      static_cast<long long>(served),
      Ratio(static_cast<double>(ok[timed]), wall_s[timed]),
      Percentile(latencies[timed], 50), Percentile(latencies[timed], 90),
      Percentile(latencies["traced"], 50),
      100.0 * static_cast<double>(scorer.f1()),
      100.0 * scorer.label_accuracy());
  std::fflush(stdout);
  return 0;
}

int RunPredict(const Options& options) {
  const bool repeat = options.workload == "predict_repeat";
  const std::vector<Review> hot =
      repeat ? MakeReviews(CorpusSeed(options.workload, options.seed),
                           kHotSetSize)
             : std::vector<Review>{};
  SpanLog spans;
  HandlerTrace handler_trace;
  handler_trace.spans = &spans;
  bool correct = true;

  // Setup, timed from here until the server is ready: train the served
  // model in a child process, restore its checkpoint, start router and
  // server, and (repeat) serve the hot set once. Repeated; the checkpoints
  // must be byte-identical.
  std::vector<double> setup_s;
  std::vector<std::string> ckpts;
  std::unique_ptr<ServingStack> stack;
  for (int k = 0; k < (options.trace ? 1 : kSetupRepeats); ++k) {
    stack.reset();
    const int64_t start_ns = NowNs();
    const std::string ckpt =
        options.workdir + "/served_" + std::to_string(k) + ".ckpt";
    Child trainer({"--role", "train-served", "--out", ckpt}, /*pipes=*/false);
    if (!trainer.Wait()) {
      std::fprintf(stderr, "training the served model failed\n");
      return 1;
    }
    std::string error;
    stack = StartServing(ckpt, options.trace ? &handler_trace : nullptr,
                         &error);
    if (stack == nullptr) {
      std::fprintf(stderr, "serving setup failed: %s\n", error.c_str());
      return 1;
    }
    if (repeat && !ServeOnce(stack->server->port(), hot)) {
      std::fprintf(stderr, "hot-set pass failed\n");
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start_ns) / 1e9);
    ckpts.push_back(ckpt);
  }
  for (const std::string& ckpt : ckpts) {
    if (!FilesEqual(ckpts.front(), ckpt)) {
      std::fprintf(stderr, "served-model training is not deterministic: %s "
                           "differs from %s\n",
                   ckpt.c_str(), ckpts.front().c_str());
      correct = false;
    }
  }

  Child load({"--role", "load", "--workload", options.workload, "--seed",
              std::to_string(options.seed), "--seconds",
              std::to_string(options.seconds), "--trace",
              options.trace ? "1" : "0", "--port",
              std::to_string(stack->server->port()), "--ckpt", ckpts.back(),
              "--workdir", options.workdir},
             /*pipes=*/true);
  std::string reply;
  if (!load.ReadLine(&reply) || reply != "ready" ||
      !Command(load, "warmup", &reply)) {
    std::fprintf(stderr, "load generator failed to start\n");
    return 1;
  }
  // The end-to-end run times one phase of --seconds. The traced run
  // alternates untraced and traced slices, --seconds in all, so both see
  // the same drift; the untraced ones are the overhead baseline.
  const int slices = options.trace ? kTraceSlices : 1;
  const int64_t slice_ms =
      options.seconds * 1000 / (options.trace ? 2 * kTraceSlices : 1);
  Counters traced;  // summed over the traced slices
  int64_t traced_requests = 0;
  for (int slice = 0; slice < slices; ++slice) {
    if (!Command(load, "timed untraced " + std::to_string(slice_ms), &reply)) {
      std::fprintf(stderr, "timed phase failed\n");
      return 1;
    }
    if (!options.trace) break;
    handler_trace.on = true;
    SetAllocationCounting(true);
    const Counters before = ReadCounters(*stack);
    const bool ok =
        Command(load, "timed traced " + std::to_string(slice_ms), &reply);
    AddDelta(before, ReadCounters(*stack), &traced);
    SetAllocationCounting(false);
    handler_trace.on = false;
    if (!ok) {
      std::fprintf(stderr, "traced phase failed\n");
      return 1;
    }
    traced_requests += RepliedCount(reply);
  }
  const double peak_rss_mb = PeakRssMb();
  if (!Command(load, "quality", &reply) || !load.WriteLine("finish") ||
      !load.ReadLine(&reply) || reply.rfind("result ", 0) != 0) {
    std::fprintf(stderr, "load generator failed\n");
    return 1;
  }
  std::map<std::string, double> result = ParseFields(reply.substr(7));
  if (!load.Wait()) correct = false;
  stack.reset();

  const int64_t attempted = static_cast<int64_t>(result["attempted"]);
  const int64_t failed = static_cast<int64_t>(result["failed"]);
  if (failed != 0 || attempted == 0) correct = false;
  if (result["rationale_f1"] < kMinRationaleF1) {
    std::fprintf(stderr, "served rationale F1 %.2f is below %.0f\n",
                 result["rationale_f1"], kMinRationaleF1);
    correct = false;
  }

  std::map<std::string, double> values;
  if (!options.trace) {
    values["setup_s"] = Percentile(setup_s, 50);
    values["p50_ms"] = result["p50_ms"];
    values["rationale_f1"] = result["rationale_f1"];
    values["label_acc"] = result["label_acc"];
    values["peak_rss_mb"] = peak_rss_mb;
    for (const std::string& ckpt : ckpts) std::remove(ckpt.c_str());
    return PrintResult(correct, attempted, failed,
                       NamedMetrics(EndToEndMetricNames(), values),
                       {{"throughput_per_s", result["throughput_per_s"], "1/s"},
                        {"p90_ms", result["p90_ms"], "ms"}});
  }

  // Traced run: replay the served request sequence through the probes.
  std::vector<std::string> warm;
  std::vector<std::string> texts;
  const int64_t probes =
      std::min<int64_t>(static_cast<int64_t>(result["served"]), kProbeRequests);
  if (repeat) {
    for (const Review& review : hot) warm.push_back(review.text);
    for (int64_t i = 0; i < probes; ++i) {
      texts.push_back(hot[static_cast<size_t>(i % kHotSetSize)].text);
    }
  } else {
    for (const Review& review :
         MakeReviews(CorpusSeed(options.workload, options.seed), probes)) {
      texts.push_back(review.text);
    }
  }
  SetAllocationCounting(false);
  const int64_t disagreements = RunProbes(ckpts.back(), warm, texts, spans);
  if (disagreements != 0) {
    std::fprintf(stderr, "probe stacks disagreed on %lld requests\n",
                 static_cast<long long>(disagreements));
    correct = false;
  }
  std::remove(ckpts.back().c_str());

  const double traced_p50_ms = result["traced_p50_ms"];
  auto p50 = [](const std::vector<double>& v) { return Percentile(v, 50); };
  values["trace.p50_ms"] = traced_p50_ms;
  values["trace.overhead_ms"] = traced_p50_ms - result["p50_ms"];
  values["net.socket_us"] =
      traced_p50_ms * 1e3 - p50(spans.DurationsUs("http.handle"));
  // Router and batcher rows are differences between the p50s of nested
  // calls: their concurrent probes cannot be paired request by request.
  values["serve.encode_us"] = p50(spans.DurationsUs("serve.encode"));
  values["serve.forward_us"] = p50(spans.DurationsUs("serve.forward"));
  values["net.router_us"] = p50(spans.DurationsUs("probe.handle")) -
                            p50(spans.DurationsUs("probe.batcher"));
  values["serve.batcher_us"] = p50(spans.DurationsUs("probe.batcher")) -
                               values["serve.forward_us"] -
                               values["serve.encode_us"];
  values["core.gen_encoder_us"] =
      p50(spans.PerRequestUs("core.gen_encoder", "serve.forward"));
  values["core.pred_encoder_us"] =
      p50(spans.PerRequestUs("core.pred_encoder", "serve.forward"));
  values["core.select_us"] =
      p50(spans.PerRequestUs("core.select", "serve.forward"));
  values["core.head_us"] = p50(spans.PerRequestUs("core.head", "serve.forward"));
  values["serve.forward_residual_us"] = p50(spans.DifferenceUs(
      "serve.forward",
      {"core.gen_encoder", "core.select", "core.pred_encoder", "core.head"}));

  Ledger ledger(traced_p50_ms * 1e3, "ledger.residual_us");
  for (const char* row :
       {"net.socket_us", "net.router_us", "serve.batcher_us",
        "serve.encode_us", "core.gen_encoder_us", "core.pred_encoder_us",
        "core.select_us", "core.head_us", "serve.forward_residual_us"}) {
    ledger.Add(row, values[row]);
  }
  values["ledger.residual_us"] = ledger.residual();

  const double n = static_cast<double>(std::max<int64_t>(traced_requests, 1));
  values["serve.batch_size_mean"] =
      Ratio(static_cast<double>(traced.stats_requests),
            static_cast<double>(traced.stats_batches));
  values["serve.cache_hit_ratio"] =
      Ratio(static_cast<double>(traced.cache_hits),
            static_cast<double>(traced.cache_hits + traced.cache_misses));
  values["serve.cache_evictions_per_req"] =
      static_cast<double>(traced.cache_evictions) / n;
  values["proc.vcsw_per_req"] =
      static_cast<double>(traced.voluntary_switches) / n;
  values["proc.cpu_us_per_req"] = traced.cpu_us / n;
  values["alloc.per_req"] = static_cast<double>(traced.allocations) / n;
  values["tensor.matmul_mflop_per_req"] =
      static_cast<double>(traced.matmul_flops) / n / 1e6;

  ledger.Print("predict ledger: traced HTTP p50 by layer", "us");
  std::printf("tracing overhead: traced p50 %.4f ms - untraced p50 %.4f ms = "
              "%.4f ms\n",
              traced_p50_ms, result["p50_ms"], values["trace.overhead_ms"]);
  spans.WriteJsonl(options.workdir + "/spans.jsonl");
  return PrintResult(correct, attempted, failed,
                     NamedMetrics(PerLayerMetricNames(), values));
}

}  // namespace e2e
}  // namespace dar

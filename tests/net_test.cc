// Tests for the HTTP front-end (src/net/): parser conformance against a
// malformed-request corpus, the JSON reader/writer's bit-exact number
// round-trip, and end-to-end loopback serving — bit-identical predict
// responses, 503 load shedding at queue saturation, graceful shutdown
// under in-flight load, and concurrent clients (the TSan lane runs this
// binary to vet the server's threading).
#include <netinet/in.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/rnp.h"
#include "datasets/beer.h"
#include "eval/experiment.h"
#include "gated_model.h"
#include "net/client.h"
#include "net/http.h"
#include "net/routes.h"
#include "net/server.h"
#include "serve/registry.h"
#include "serve/session.h"
#include "tensor/random.h"

namespace dar {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// HttpParser
// ---------------------------------------------------------------------------

/// Feeds the whole wire image at once; the parser must consume exactly one
/// request's worth of bytes.
size_t FeedAll(HttpParser& parser, const std::string& wire) {
  return parser.Feed(wire.data(), wire.size());
}

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpParser parser;
  std::string wire = "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(FeedAll(parser, wire), wire.size());
  ASSERT_TRUE(parser.done());
  const HttpRequest& r = parser.request();
  EXPECT_EQ(r.method, "GET");
  EXPECT_EQ(r.target, "/healthz");
  EXPECT_EQ(r.version, "HTTP/1.1");
  EXPECT_TRUE(r.keep_alive);
  ASSERT_NE(r.FindHeader("host"), nullptr);
  EXPECT_EQ(*r.FindHeader("host"), "localhost");
  EXPECT_TRUE(r.body.empty());
}

TEST(HttpParserTest, ParsesPostBody) {
  HttpParser parser;
  std::string wire =
      "POST /v1/models/beer/predict HTTP/1.1\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 16\r\n\r\n"
      "{\"text\": \"beer\"}";
  EXPECT_EQ(FeedAll(parser, wire), wire.size());
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.request().body, "{\"text\": \"beer\"}");
}

TEST(HttpParserTest, ByteAtATimeFeeding) {
  std::string wire =
      "POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
  HttpParser parser;
  for (char c : wire) {
    ASSERT_FALSE(parser.failed());
    EXPECT_EQ(parser.Feed(&c, 1), 1u);
  }
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.request().body, "abc");
}

TEST(HttpParserTest, PipelinedBytesStayUnconsumed) {
  std::string first = "GET /a HTTP/1.1\r\n\r\n";
  std::string second = "GET /b HTTP/1.1\r\n\r\n";
  std::string wire = first + second;
  HttpParser parser;
  size_t used = FeedAll(parser, wire);
  EXPECT_EQ(used, first.size());
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.request().target, "/a");

  parser.Reset();
  EXPECT_EQ(parser.Feed(wire.data() + used, wire.size() - used),
            second.size());
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.request().target, "/b");
}

TEST(HttpParserTest, KeepAliveSemantics) {
  struct Case {
    const char* wire;
    bool keep_alive;
  };
  const Case cases[] = {
      {"GET / HTTP/1.1\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},
      {"GET / HTTP/1.0\r\n\r\n", false},
      {"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},
      // Connection is a case-insensitive token list.
      {"GET / HTTP/1.0\r\nConnection: Keep-Alive, Upgrade\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nConnection: foo, CLOSE\r\n\r\n", false},
  };
  for (const Case& c : cases) {
    HttpParser parser;
    FeedAll(parser, c.wire);
    ASSERT_TRUE(parser.done()) << c.wire;
    EXPECT_EQ(parser.request().keep_alive, c.keep_alive) << c.wire;
  }
}

TEST(HttpParserTest, BareLfAndHeaderNormalization) {
  HttpParser parser;
  std::string wire = "GET /q?x=1 HTTP/1.1\nX-CusTom:  padded value \n\n";
  EXPECT_EQ(FeedAll(parser, wire), wire.size());
  ASSERT_TRUE(parser.done());
  ASSERT_NE(parser.request().FindHeader("x-custom"), nullptr);
  EXPECT_EQ(*parser.request().FindHeader("x-custom"), "padded value");
  EXPECT_EQ(parser.request().Path(), "/q");  // query stripped for routing
  EXPECT_EQ(parser.request().target, "/q?x=1");
}

TEST(HttpParserTest, ZeroContentLengthCompletesImmediately) {
  HttpParser parser;
  FeedAll(parser, "POST / HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
  ASSERT_TRUE(parser.done());
  EXPECT_TRUE(parser.request().body.empty());
}

TEST(HttpParserTest, MalformedCorpusClassified) {
  struct Case {
    std::string wire;
    int status;
  };
  const std::vector<Case> corpus = {
      {"GET /\r\n\r\n", 400},                         // missing version
      {"GET / HTTP/1.1 junk\r\n\r\n", 400},           // extra field
      {"G(T / HTTP/1.1\r\n\r\n", 400},                // method not a token
      {"GET example.com/x HTTP/1.1\r\n\r\n", 400},    // not origin-form
      {std::string("GET /a\x01") + "b HTTP/1.1\r\n\r\n", 400},  // ctl byte
      {"GET / HTTP/2.0\r\n\r\n", 505},
      {"GET / HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n", 400},  // obs-fold
      {"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n", 400},
      {"GET / HTTP/1.1\r\nBad Name: x\r\n\r\n", 400},  // space before ':'
      {std::string("GET / HTTP/1.1\r\nX: a\x01") + "b\r\n\r\n", 400},
      {"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
      {"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n",
       400},
      {"POST / HTTP/1.1\r\nContent-Length: 5, 6\r\n\r\n", 400},
      {"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400},
      {"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400},
      {"POST / HTTP/1.1\r\nContent-Length:\r\n\r\n", 400},
  };
  for (const Case& c : corpus) {
    HttpParser parser;
    FeedAll(parser, c.wire);
    ASSERT_TRUE(parser.failed()) << c.wire;
    EXPECT_EQ(parser.error_status(), c.status) << c.wire;
    EXPECT_FALSE(parser.error_detail().empty());
  }
}

TEST(HttpParserTest, LimitsEnforcedDuringParsing) {
  HttpLimits tight;
  tight.max_request_line = 24;
  {
    HttpParser parser(tight);
    FeedAll(parser,
            "GET /a/very/long/target/that/keeps/going HTTP/1.1\r\n\r\n");
    ASSERT_TRUE(parser.failed());
    EXPECT_EQ(parser.error_status(), 414);
  }
  {
    HttpLimits limits;
    limits.max_header_bytes = 32;
    HttpParser parser(limits);
    FeedAll(parser,
            "GET / HTTP/1.1\r\nX-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
            "aaaaaaaaaaaaaaaa\r\n\r\n");
    ASSERT_TRUE(parser.failed());
    EXPECT_EQ(parser.error_status(), 431);
  }
  {
    HttpLimits limits;
    limits.max_headers = 2;
    HttpParser parser(limits);
    FeedAll(parser, "GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n");
    ASSERT_TRUE(parser.failed());
    EXPECT_EQ(parser.error_status(), 431);
  }
  {
    HttpLimits limits;
    limits.max_body_bytes = 8;
    HttpParser parser(limits);
    FeedAll(parser, "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n");
    ASSERT_TRUE(parser.failed());
    EXPECT_EQ(parser.error_status(), 413);
  }
}

TEST(HttpParserTest, TruncatedPrefixesStayIncomplete) {
  std::string wire =
      "POST /v1/models/beer/predict HTTP/1.1\r\n"
      "Content-Length: 5\r\n\r\nhello";
  // Every strict prefix of a valid request must leave the parser waiting
  // for more bytes — neither complete nor failed.
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    HttpParser parser;
    parser.Feed(wire.data(), cut);
    EXPECT_FALSE(parser.done()) << "cut at " << cut;
    EXPECT_FALSE(parser.failed()) << "cut at " << cut;
  }
  HttpParser parser;
  FeedAll(parser, wire);
  EXPECT_TRUE(parser.done());
}

TEST(HttpParserTest, IdleDistinguishesMidRequest) {
  HttpParser parser;
  EXPECT_TRUE(parser.idle());
  parser.Feed("G", 1);
  EXPECT_FALSE(parser.idle());
  parser.Reset();
  EXPECT_TRUE(parser.idle());
}

TEST(HttpParserTest, FuzzedGarbageNeverCrashes) {
  Pcg32 rng(2024);
  for (int round = 0; round < 300; ++round) {
    size_t len = rng.Below(200);
    std::string garbage;
    for (size_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.Below(256));
    }
    HttpParser parser;
    // Feed in random-sized chunks; the parser must settle in a sane state
    // without crashing or over-consuming.
    size_t pos = 0;
    while (pos < garbage.size() && !parser.done() && !parser.failed()) {
      size_t chunk = 1 + rng.Below(16);
      chunk = std::min(chunk, garbage.size() - pos);
      size_t used = parser.Feed(garbage.data() + pos, chunk);
      ASSERT_LE(used, chunk);
      if (used == 0) break;  // parser stopped consuming (done/failed)
      pos += used;
    }
    if (parser.failed()) {
      EXPECT_GE(parser.error_status(), 400);
      EXPECT_LT(parser.error_status(), 600);
    }
  }
}

TEST(SerializeResponseTest, WireFormat) {
  HttpResponse response;
  response.status = 404;
  response.body = "{\"error\":\"Not Found\"}";
  response.keep_alive = false;
  response.extra_headers.push_back({"Retry-After", "1"});
  std::string wire = SerializeResponse(response);
  EXPECT_EQ(wire.find("HTTP/1.1 404 Not Found\r\n"), 0u);
  EXPECT_NE(wire.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 21\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n{\"error\":\"Not Found\"}"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(JsonTest, DumpAndParseRoundTrip) {
  JsonValue value =
      JsonValue::Object()
          .Set("label", JsonValue::Int(1))
          .Set("ok", JsonValue::Bool(true))
          .Set("none", JsonValue::Null())
          .Set("text", JsonValue::Str("a \"quoted\" \\ line\nnext"))
          .Set("probs", JsonValue::Array()
                            .Push(JsonValue::Number(0.25))
                            .Push(JsonValue::Number(0.75)));
  std::string dumped = value.Dump();
  // Member order is preserved — responses are byte-stable.
  EXPECT_EQ(dumped.find("{\"label\":1,\"ok\":true,\"none\":null"), 0u);

  std::string error;
  auto parsed = JsonValue::Parse(dumped, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("label")->number_value, 1.0);
  EXPECT_TRUE(parsed->Find("ok")->bool_value);
  EXPECT_EQ(parsed->Find("text")->string_value, "a \"quoted\" \\ line\nnext");
  ASSERT_EQ(parsed->Find("probs")->items.size(), 2u);
  EXPECT_EQ(parsed->Find("probs")->items[1].number_value, 0.75);
  EXPECT_EQ(parsed->Dump(), dumped);
}

TEST(JsonTest, Float32RoundTripsBitExact) {
  // The predict endpoint's bit-identical contract: any float32, widened to
  // double, must survive Dump -> Parse -> narrow back unchanged.
  const float cases[] = {0.1f,
                         1.0f / 3.0f,
                         3.14159274f,
                         0.333333343f,
                         -2.5f,
                         1.17549435e-38f,   // FLT_MIN
                         1.40129846e-45f,   // smallest denormal
                         3.40282347e+38f,   // FLT_MAX
                         6.02214076e23f,
                         -7.77777778e-12f};
  for (float f : cases) {
    std::string dumped = JsonValue::Number(static_cast<double>(f)).Dump();
    auto parsed = JsonValue::Parse(dumped);
    ASSERT_TRUE(parsed.has_value()) << dumped;
    float back = static_cast<float>(parsed->number_value);
    EXPECT_EQ(std::memcmp(&back, &f, sizeof(float)), 0)
        << f << " -> " << dumped << " -> " << back;
  }
}

TEST(JsonTest, IntegralNumbersPrintAsIntegers) {
  EXPECT_EQ(JsonValue::Int(42).Dump(), "42");
  EXPECT_EQ(JsonValue::Int(-3).Dump(), "-3");
  EXPECT_EQ(JsonValue::Number(2.0).Dump(), "2");
}

TEST(JsonTest, UnicodeEscapes) {
  auto parsed = JsonValue::Parse("\"\\u0041\\u00e9\\ud83d\\ude00\"");
  ASSERT_TRUE(parsed.has_value());
  // A, é (C3 A9), 😀 (F0 9F 98 80).
  EXPECT_EQ(parsed->string_value, "A\xC3\xA9\xF0\x9F\x98\x80");
}

TEST(JsonTest, RejectsMalformedDocuments) {
  const char* cases[] = {
      "",
      "{",
      "[1, 2",
      "007",
      "1 2",
      "\"unterminated",
      "\"bad \\q escape\"",
      "\"\\ud800 unpaired\"",
      "{\"a\" 1}",
      "{a: 1}",
      "[1,]",
      "nul",
      "1.",
      "1e",
      "--1",
  };
  for (const char* text : cases) {
    std::string error;
    EXPECT_FALSE(JsonValue::Parse(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(JsonTest, DepthCapStopsRunawayNesting) {
  std::string shallow(10, '[');
  shallow += std::string(10, ']');
  EXPECT_TRUE(JsonValue::Parse(shallow).has_value());

  std::string deep(80, '[');
  deep += std::string(80, ']');
  std::string error;
  EXPECT_FALSE(JsonValue::Parse(deep, &error).has_value());
  EXPECT_NE(error.find("nesting"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end loopback serving
// ---------------------------------------------------------------------------

core::TrainConfig TinyConfig() {
  core::TrainConfig config;
  config.embedding_dim = 16;
  config.hidden_dim = 8;
  return config;
}

/// Untrained tiny RNP session: serving correctness (routing, wire format,
/// bit-identical responses) does not require a trained model. With a
/// `gate`, every forward waits until the test opens it (gated_model.h).
std::shared_ptr<serve::InferenceSession> MakeSession(
    uint64_t seed = 7, std::shared_ptr<ForwardGate> gate = nullptr) {
  datasets::SyntheticDataset dataset = datasets::MakeBeerDataset(
      datasets::BeerAspect::kAppearance, {.train = 40, .dev = 10, .test = 10},
      seed);
  core::TrainConfig config = TinyConfig();
  config.seed = seed;
  auto model = MakeRnpModel(eval::BuildEmbeddings(dataset, config), config,
                            std::move(gate));
  return std::make_shared<serve::InferenceSession>(std::move(model),
                                                   dataset.vocab);
}

/// Everything an e2e test needs, wired together on a kernel-chosen port.
struct Loopback {
  serve::ModelRegistry registry;
  std::unique_ptr<Router> router;
  std::unique_ptr<HttpServer> server;
  std::shared_ptr<serve::InferenceSession> session;

  /// Serves `served`, or a fresh MakeSession() when it is null.
  explicit Loopback(RouterConfig router_config = {},
                    ServerConfig server_config = {},
                    std::shared_ptr<serve::InferenceSession> served = nullptr)
      : session(served != nullptr ? std::move(served) : MakeSession()) {
    router = std::make_unique<Router>(registry, router_config);
    router->ServeModel("beer", session);
    server_config.port = 0;
    if (server_config.metrics == nullptr) {
      server_config.metrics = &router->metrics();
    }
    server = std::make_unique<HttpServer>(router->AsHandler(), server_config);
    std::string error;
    bool started = server->Start(&error);
    EXPECT_TRUE(started) << error;
  }

  ~Loopback() {
    // The server must stop before the router destroys the batchers its
    // in-flight handlers use.
    server->Stop();
  }

  HttpClient Client() { return HttpClient("127.0.0.1", server->port()); }
};

// ~Router takes the models it served out of the registry, and the registry
// binds nothing itself. Before, a registry outliving its router bound later
// sessions into the dead metrics registry and served the router's model
// from the dead cache (caught by ASan).
void ServeAndDestroyCachedRouter(serve::ModelRegistry& registry) {
  RouterConfig config;
  config.serve.cache.enabled = true;
  // On the heap, so that ASan reports any later use of it.
  auto router = std::make_unique<Router>(registry, config);
  router->ServeModel("beer", MakeSession());
}

TEST(RouterTest, RegistryOutlivingItsRouterServesLaterSessions) {
  serve::ModelRegistry registry;
  ServeAndDestroyCachedRouter(registry);
  std::shared_ptr<serve::InferenceSession> later = MakeSession(8);
  registry.Register("stout", later);
  EXPECT_EQ(later->cache_model_id(), 0u);
  EXPECT_TRUE(registry.Predict("stout", "pours a hazy amber").has_value());
}

TEST(RouterTest, RegistryOutlivingItsRouterForgetsItsModels) {
  serve::ModelRegistry registry;
  ServeAndDestroyCachedRouter(registry);
  EXPECT_FALSE(registry.Predict("beer", "pours a hazy amber").has_value());
}

std::string PredictBody(const std::string& text) {
  return JsonValue::Object().Set("text", JsonValue::Str(text)).Dump();
}

/// One request through `router`, without a server.
HttpResponse Call(Router& router, const std::string& method,
                  const std::string& target, const std::string& body = "") {
  HttpRequest request;
  request.method = method;
  request.target = target;
  request.version = "HTTP/1.1";
  request.body = body;
  return router.Handle(request);
}

/// Asserts an HTTP predict response carries exactly the fields of the
/// directly computed result — the bit-identical serving contract.
void ExpectResponseMatches(const std::string& body,
                           const serve::InferenceResult& direct) {
  std::string error;
  auto json = JsonValue::Parse(body, &error);
  ASSERT_TRUE(json.has_value()) << error << " in " << body;
  EXPECT_EQ(static_cast<int64_t>(json->Find("label")->number_value),
            direct.label);
  EXPECT_EQ(static_cast<float>(json->Find("confidence")->number_value),
            direct.confidence);
  const JsonValue* probs = json->Find("probs");
  ASSERT_NE(probs, nullptr);
  ASSERT_EQ(probs->items.size(), direct.probs.size());
  for (size_t i = 0; i < direct.probs.size(); ++i) {
    EXPECT_EQ(static_cast<float>(probs->items[i].number_value),
              direct.probs[i]);
  }
  const JsonValue* tokens = json->Find("tokens");
  ASSERT_EQ(tokens->items.size(), direct.tokens.size());
  for (size_t i = 0; i < direct.tokens.size(); ++i) {
    EXPECT_EQ(tokens->items[i].string_value, direct.tokens[i]);
  }
  const JsonValue* rationale = json->Find("rationale");
  ASSERT_NE(rationale, nullptr);
  const JsonValue* mask = rationale->Find("mask");
  ASSERT_EQ(mask->items.size(), direct.mask.size());
  for (size_t i = 0; i < direct.mask.size(); ++i) {
    EXPECT_EQ(static_cast<uint8_t>(mask->items[i].number_value),
              direct.mask[i]);
  }
  const JsonValue* spans = rationale->Find("spans");
  ASSERT_EQ(spans->items.size(), direct.spans.size());
  for (size_t i = 0; i < direct.spans.size(); ++i) {
    EXPECT_EQ(static_cast<int64_t>(
                  spans->items[i].Find("begin")->number_value),
              direct.spans[i].begin);
    EXPECT_EQ(static_cast<int64_t>(spans->items[i].Find("end")->number_value),
              direct.spans[i].end);
  }
  EXPECT_EQ(rationale->Find("text")->string_value, direct.rationale_text);
}

// /v1/models, /healthz and the predict route all read the models this
// router serves. A session registered straight into the registry has no
// endpoint here: before the listing read the endpoints too, it was listed
// with a predict_path that answers 404.
TEST(RouterTest, ModelsListsExactlyTheServedModels) {
  serve::ModelRegistry registry;
  Router router(registry);
  router.ServeModel("beer", MakeSession());
  registry.Register("stout", MakeSession(8));

  const HttpResponse models = Call(router, "GET", "/v1/models");
  ASSERT_EQ(models.status, 200);
  std::string error;
  const auto listing = JsonValue::Parse(models.body, &error);
  ASSERT_TRUE(listing.has_value()) << error;
  const JsonValue* list = listing->Find("models");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->items.size(), 1u) << models.body;
  EXPECT_EQ(list->items[0].Find("name")->string_value, "beer");
  EXPECT_EQ(list->items[0].Find("predict_path")->string_value,
            "/v1/models/beer/predict");

  const HttpResponse health = Call(router, "GET", "/healthz");
  ASSERT_EQ(health.status, 200);
  const auto healthz = JsonValue::Parse(health.body, &error);
  ASSERT_TRUE(healthz.has_value()) << error;
  EXPECT_EQ(static_cast<size_t>(healthz->Find("models")->number_value),
            list->items.size());

  EXPECT_EQ(
      Call(router, "POST", "/v1/models/beer/predict", PredictBody("amber"))
          .status,
      200);
  EXPECT_EQ(
      Call(router, "POST", "/v1/models/stout/predict", PredictBody("amber"))
          .status,
      404);
}

// ServeModel binds only the session it serves. Before, every session
// registered while a Router was attached was bound to it, so one
// registered straight into the registry wrote the router's freed metrics
// once the router was gone (caught by ASan).
TEST(RouterTest, SessionRegisteredBesideARouterStaysUnbound) {
  serve::ModelRegistry registry;
  std::shared_ptr<serve::InferenceSession> beside = MakeSession(8);
  {
    RouterConfig config;
    config.serve.cache.enabled = true;
    // On the heap, so that ASan reports any later use of it.
    auto router = std::make_unique<Router>(registry, config);
    router->ServeModel("beer", MakeSession());
    registry.Register("stout", beside);
    ASSERT_TRUE(registry.Predict("stout", "pours a hazy amber").has_value());
    const std::string exposition = router->metrics().ExportPrometheus();
    EXPECT_EQ(exposition.find("model=\"stout\""), std::string::npos)
        << exposition;
  }
  EXPECT_EQ(beside->cache_model_id(), 0u);
  ASSERT_TRUE(registry.Predict("stout", "thin head but clear").has_value());
  EXPECT_EQ(beside->stats().Snapshot().requests, 2);
}

/// The value of `series` (name plus label block) in a Prometheus text
/// exposition; NaN when the series is absent.
double SeriesValue(const std::string& exposition, const std::string& series) {
  const std::string key = "\n" + series + " ";
  const size_t at = exposition.find(key);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(exposition.c_str() + at + key.size(), nullptr);
}

// Every scrape publishes the process's minor page faults and CPU time from
// getrusage; both are cumulative, so a later scrape never reads less.
TEST(RouterTest, MetricsPublishProcessFaultsAndCpuTime) {
  serve::ModelRegistry registry;
  Router router(registry);
  const char* kSeries[] = {"process_minor_faults_total",
                           "process_cpu_seconds_total{mode=\"user\"}",
                           "process_cpu_seconds_total{mode=\"system\"}"};
  const std::string first = Call(router, "GET", "/metrics").body;
  // Between the scrapes, the first touch of each page of a fresh anonymous
  // mapping is one minor fault.
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  constexpr size_t kPages = 64;
  void* region = mmap(nullptr, kPages * page, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(region, MAP_FAILED);
  for (size_t i = 0; i < kPages; ++i) {
    static_cast<volatile char*>(region)[i * page] = 1;
  }
  munmap(region, kPages * page);
  const std::string second = Call(router, "GET", "/metrics").body;
  EXPECT_NE(first.find("# TYPE process_minor_faults_total counter"),
            std::string::npos)
      << first;
  EXPECT_GT(SeriesValue(first, kSeries[0]), 0.0) << first;
  EXPECT_GE(SeriesValue(second, kSeries[0]),
            SeriesValue(first, kSeries[0]) + static_cast<double>(kPages))
      << second;
  for (const char* series : kSeries) {
    const double before = SeriesValue(first, series);
    const double after = SeriesValue(second, series);
    ASSERT_FALSE(std::isnan(before)) << series << " missing from " << first;
    ASSERT_FALSE(std::isnan(after)) << series << " missing from " << second;
    EXPECT_GE(after, before) << series;
  }
}

// Each Router publishes the models it serves into its own /metrics, so
// two Routers can share one registry. Before, each one pointed the shared
// registry at its own metrics on construction, and the model served
// through the first landed in the second's.
TEST(RouterTest, TwoRoutersOverOneRegistryKeepTheirSeries) {
  serve::ModelRegistry registry;
  Router first(registry);
  Router second(registry);
  first.ServeModel("beer", MakeSession());
  ASSERT_EQ(
      Call(first, "POST", "/v1/models/beer/predict", PredictBody("amber"))
          .status,
      200);
  const std::string first_metrics = Call(first, "GET", "/metrics").body;
  const std::string second_metrics = Call(second, "GET", "/metrics").body;
  EXPECT_NE(first_metrics.find("serve_requests_total{model=\"beer\"} 1"),
            std::string::npos)
      << first_metrics;
  EXPECT_EQ(second_metrics.find("serve_requests_total{model=\"beer\"}"),
            std::string::npos)
      << second_metrics;
}

TEST(RouterTest, ServeModelLabelsSeriesPerModel) {
  serve::ModelRegistry registry;
  Router router(registry);
  router.ServeModel("beer", MakeSession(7));
  router.ServeModel("hotel", MakeSession(8));

  ASSERT_TRUE(registry.Predict("beer", "pours a hazy amber").has_value());
  ASSERT_TRUE(registry.Predict("beer", "thin head but clear").has_value());
  ASSERT_TRUE(registry.Predict("hotel", "spotless lobby").has_value());

  // One shared exposition carries a distinct series per model.
  const std::string exposition = router.metrics().ExportPrometheus();
  EXPECT_NE(exposition.find("serve_requests_total{model=\"beer\"} 2"),
            std::string::npos)
      << exposition;
  EXPECT_NE(exposition.find("serve_requests_total{model=\"hotel\"} 1"),
            std::string::npos)
      << exposition;
  // Latency histograms carry the model label merged with the bucket label.
  EXPECT_NE(exposition.find("serve_latency_us_bucket{model=\"beer\",le="),
            std::string::npos)
      << exposition;
}

/// The X-DAR-Cache header of `response`, or "" without one.
std::string CacheHeader(const HttpResponse& response) {
  for (const auto& [name, value] : response.extra_headers) {
    if (name == "X-DAR-Cache") return value;
  }
  return "";
}

// A hot swap while predicts flow through the endpoint's batcher (the TSan
// lane runs this). Every response comes whole from one generation; once
// ServeModel has returned, every text gets the second generation's body,
// cold and warm, and the first generation has no cache entry left.
TEST(RouterTest, HotSwapUnderLoadServesOneGenerationPerResponse) {
  const uint64_t kFirstSeed = 7;
  const uint64_t kSecondSeed = 9;
  std::shared_ptr<serve::InferenceSession> first = MakeSession(kFirstSeed);
  std::shared_ptr<serve::InferenceSession> second = MakeSession(kSecondSeed);
  // Distinct token sequences of in-vocabulary words. Texts [0, kLoaded)
  // flow during the swap; the rest first arrive after it.
  const size_t kLoaded = 6;
  const data::Vocabulary& vocab = first->vocab();
  std::vector<std::string> texts;
  for (int64_t k = 0; k < 8; ++k) {
    std::string text;
    for (int64_t j = 0; j < 3 + k % 4; ++j) {
      if (j > 0) text += ' ';
      text += vocab.Token(2 + (5 * k + j) % (vocab.size() - 2));
    }
    texts.push_back(text);
  }
  auto predict = [](Router& router, const std::string& text) {
    return Call(router, "POST", "/v1/models/beer/predict", PredictBody(text));
  };

  // Reference bodies of both generations, from an uncached router.
  std::vector<std::string> first_body, second_body;
  {
    serve::ModelRegistry reference_registry;
    Router reference(reference_registry);
    reference.ServeModel("beer", MakeSession(kFirstSeed));
    for (const std::string& text : texts) {
      first_body.push_back(predict(reference, text).body);
    }
    reference.ServeModel("beer", MakeSession(kSecondSeed));
    for (const std::string& text : texts) {
      second_body.push_back(predict(reference, text).body);
    }
  }
  ASSERT_NE(first_body, second_body);

  serve::ModelRegistry registry;
  RouterConfig config;
  config.serve.cache.enabled = true;
  Router router(registry, config);
  router.ServeModel("beer", first);

  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> mismatches{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c]() {
      for (size_t i = c; !stop.load(); ++i) {
        const size_t t = i % kLoaded;
        const HttpResponse response = predict(router, texts[t]);
        if (response.status != 200 || (response.body != first_body[t] &&
                                       response.body != second_body[t])) {
          ++mismatches;
        }
        ++completed;
      }
    });
  }
  auto wait_for = [&](int64_t count) {
    while (completed.load() < count) std::this_thread::yield();
  };
  wait_for(20);
  router.ServeModel("beer", second);
  wait_for(completed.load() + 40);
  stop.store(true);
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);

  for (int pass = 0; pass < 2; ++pass) {
    for (size_t t = 0; t < texts.size(); ++t) {
      const HttpResponse response = predict(router, texts[t]);
      ASSERT_EQ(response.status, 200);
      EXPECT_EQ(response.body, second_body[t]) << "pass " << pass;
      if (pass == 1) {
        EXPECT_EQ(CacheHeader(response), "hit") << texts[t];
      } else if (t >= kLoaded) {
        EXPECT_NE(CacheHeader(response), "hit") << texts[t];
      }
    }
  }
  EXPECT_EQ(router.cache()
                ->Stats(first->cache_model_id(),
                        serve::ServeCache::kEncoderTierName)
                .entries,
            0);
}

TEST(HttpEndToEndTest, HealthzAndModels) {
  Loopback loop;
  HttpClient client = loop.Client();

  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.has_value()) << client.error();
  EXPECT_EQ(health->status, 200);
  EXPECT_NE(health->body.find("\"ok\""), std::string::npos);
  EXPECT_NE(health->body.find("\"models\":1"), std::string::npos);

  auto models = client.Get("/v1/models");
  ASSERT_TRUE(models.has_value()) << client.error();
  EXPECT_EQ(models->status, 200);
  EXPECT_NE(models->body.find("\"name\":\"beer\""), std::string::npos);
  EXPECT_NE(models->body.find("/v1/models/beer/predict"), std::string::npos);
}

TEST(HttpEndToEndTest, PredictBitIdenticalToDirectSession) {
  Loopback loop;
  HttpClient client = loop.Client();
  const std::string texts[] = {
      "the beer looks wonderful and golden",
      "flat and murky pour with no head",
      "",  // empty text must stay servable
      "one",
  };
  for (const std::string& text : texts) {
    serve::InferenceResult direct = loop.session->Predict(text);
    auto response =
        client.Post("/v1/models/beer/predict", PredictBody(text));
    ASSERT_TRUE(response.has_value()) << client.error();
    ASSERT_EQ(response->status, 200) << response->body;
    ExpectResponseMatches(response->body, direct);
  }
  // Keep-alive carried all four requests on one connection.
  EXPECT_TRUE(client.connected());
}

TEST(HttpEndToEndTest, RoutingErrors) {
  Loopback loop;
  HttpClient client = loop.Client();

  auto missing = client.Get("/nope");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);

  auto wrong_method = client.Get("/v1/models/beer/predict");
  ASSERT_TRUE(wrong_method.has_value());
  EXPECT_EQ(wrong_method->status, 405);
  ASSERT_NE(wrong_method->FindHeader("allow"), nullptr);
  EXPECT_EQ(*wrong_method->FindHeader("allow"), "POST");

  auto unknown_model =
      client.Post("/v1/models/ghost/predict", PredictBody("x"));
  ASSERT_TRUE(unknown_model.has_value());
  EXPECT_EQ(unknown_model->status, 404);

  auto bad_json = client.Post("/v1/models/beer/predict", "{not json");
  ASSERT_TRUE(bad_json.has_value());
  EXPECT_EQ(bad_json->status, 400);

  auto no_text = client.Post("/v1/models/beer/predict", "{\"txt\": \"x\"}");
  ASSERT_TRUE(no_text.has_value());
  EXPECT_EQ(no_text->status, 400);

  auto not_object = client.Post("/v1/models/beer/predict", "[1,2]");
  ASSERT_TRUE(not_object.has_value());
  EXPECT_EQ(not_object->status, 400);

  auto post_models = client.Request("POST", "/v1/models", "{}");
  ASSERT_TRUE(post_models.has_value());
  EXPECT_EQ(post_models->status, 405);
}

TEST(HttpEndToEndTest, MetricsExposePerModelAndPerRouteSeries) {
  Loopback loop;
  HttpClient client = loop.Client();
  ASSERT_TRUE(
      client.Post("/v1/models/beer/predict", PredictBody("a fine beer"))
          .has_value());
  ASSERT_TRUE(client.Get("/healthz").has_value());

  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.has_value()) << client.error();
  EXPECT_EQ(metrics->status, 200);
  ASSERT_NE(metrics->FindHeader("content-type"), nullptr);
  EXPECT_NE(metrics->FindHeader("content-type")->find("text/plain"),
            std::string::npos);
  // Per-model serving series (satellite: model-labeled ServingStats).
  EXPECT_NE(metrics->body.find("serve_requests_total{model=\"beer\"} 1"),
            std::string::npos)
      << metrics->body;
  // Per-route HTTP series.
  EXPECT_NE(metrics->body.find("http_requests_total{route=\"predict\","
                               "model=\"beer\",code=\"200\"} 1"),
            std::string::npos)
      << metrics->body;
  EXPECT_NE(metrics->body.find("http_requests_total{route=\"healthz\","
                               "code=\"200\"} 1"),
            std::string::npos)
      << metrics->body;
  // Connection accounting flows into the same registry.
  EXPECT_NE(metrics->body.find("http_connections_total"), std::string::npos);
}

TEST(HttpEndToEndTest, SinglePredictRunsItsBiGrusOnOneThread) {
  // A B = 1 predict stays below nn::kBiGruPairedRows: /metrics counts its
  // BiGRU forwards under threads="1" and none under threads="2". The
  // helper thread starts only inside a pairing that counts threads="2",
  // so this predict started none.
  Loopback loop;
  HttpClient client = loop.Client();
  const auto series = [&](const char* threads) {
    auto metrics = client.Get("/metrics");
    EXPECT_TRUE(metrics.has_value()) << client.error();
    return SeriesValue(metrics.has_value() ? metrics->body : "",
                       std::string("nn_bigru_forwards_total{threads=\"") +
                           threads + "\"}");
  };
  const double one = series("1"), two = series("2");
  ASSERT_FALSE(std::isnan(one));
  ASSERT_FALSE(std::isnan(two));
  auto response = client.Post("/v1/models/beer/predict",
                              PredictBody("a golden pour with a thick head"));
  ASSERT_TRUE(response.has_value()) << client.error();
  ASSERT_EQ(response->status, 200) << response->body;
  // The generator's and the predictor's encoders.
  EXPECT_EQ(series("1") - one, 2.0);
  EXPECT_EQ(series("2") - two, 0.0);
}

TEST(HttpEndToEndTest, MalformedRequestAnswers400OverTheWire) {
  Loopback loop;
  HttpClient client = loop.Client();
  // "/a b" serializes to a request line with four fields.
  auto response = client.Request("GET", "/a b");
  ASSERT_TRUE(response.has_value()) << client.error();
  EXPECT_EQ(response->status, 400);
  // The server closes after a parse error; the client notices.
  EXPECT_FALSE(response->keep_alive);
}

TEST(HttpEndToEndTest, OversizedBodyAnswers413) {
  ServerConfig server_config;
  server_config.limits.max_body_bytes = 64;
  Loopback loop({}, server_config);
  HttpClient client = loop.Client();
  auto response = client.Post("/v1/models/beer/predict",
                              PredictBody(std::string(200, 'x')));
  ASSERT_TRUE(response.has_value()) << client.error();
  EXPECT_EQ(response->status, 413);
}

TEST(HttpEndToEndTest, QueueSaturationSheds503WithoutHanging) {
  // The gated model holds the lone worker mid-forward on the first
  // request, so with max_queue == 1 exactly one of the next two concurrent
  // predicts is admitted and the other deterministically finds the queue
  // full.
  auto gate = std::make_shared<ForwardGate>();
  RouterConfig router_config;
  router_config.batcher = {.max_batch = 8, .num_workers = 1, .max_queue = 1};
  Loopback loop(router_config, {}, MakeSession(7, gate));
  OpenOnExit release(gate);

  std::thread first([&] {
    HttpClient client = loop.Client();
    auto response =
        client.Post("/v1/models/beer/predict", PredictBody("slow one"));
    ASSERT_TRUE(response.has_value()) << client.error();
    EXPECT_EQ(response->status, 200);  // served once the gate opens
  });
  gate->AwaitEntered();

  struct Answer {
    bool received = false;
    std::string error;  // the client's, when nothing was received
    int status = 0;
    std::string body;
    bool retry_after = false;
    int64_t elapsed_ms = 0;
  };
  Answer answers[2];
  const std::string texts[2] = {"queue me", "shed me"};
  std::promise<void> answered;
  std::once_flag answered_once;
  size_t first_answer = 0;
  std::vector<std::thread> racers;
  for (size_t r = 0; r < 2; ++r) {
    racers.emplace_back([&, r] {
      HttpClient client = loop.Client();
      auto start = std::chrono::steady_clock::now();
      auto response =
          client.Post("/v1/models/beer/predict", PredictBody(texts[r]));
      Answer& answer = answers[r];
      answer.elapsed_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      if (response.has_value()) {
        answer.received = true;
        answer.status = response->status;
        answer.body = response->body;
        answer.retry_after = response->FindHeader("retry-after") != nullptr;
      } else {
        answer.error = client.error();
      }
      std::call_once(answered_once, [&] {
        first_answer = r;
        answered.set_value();
      });
    });
  }
  // The shed answer must arrive while the gate still holds the worker:
  // the 503 must not wait behind the busy batch.
  EXPECT_EQ(answered.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  gate->Open();
  for (std::thread& racer : racers) racer.join();
  first.join();

  const Answer& shed = answers[first_answer];
  const Answer& admitted = answers[1 - first_answer];
  ASSERT_TRUE(shed.received) << shed.error;
  EXPECT_EQ(shed.status, 503) << shed.body;
  EXPECT_TRUE(shed.retry_after);
  EXPECT_LT(shed.elapsed_ms, 1000);
  ASSERT_TRUE(admitted.received) << admitted.error;
  EXPECT_EQ(admitted.status, 200) << admitted.body;  // served after the gate
}

TEST(HttpEndToEndTest, ConcurrentClientsGetBitIdenticalResponses) {
  Loopback loop;
  const std::vector<std::string> texts = {
      "a golden pour with creamy head",
      "smells of hops and citrus",
      "watery and flat",
      "rich malt backbone",
  };
  std::vector<serve::InferenceResult> direct;
  for (const std::string& text : texts) {
    direct.push_back(loop.session->Predict(text));
  }

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      HttpClient client = loop.Client();
      for (int i = 0; i < kRequestsPerThread; ++i) {
        size_t pick = static_cast<size_t>((t + i) % texts.size());
        auto response = client.Post("/v1/models/beer/predict",
                                    PredictBody(texts[pick]));
        if (!response.has_value() || response->status != 200) {
          failures.fetch_add(1);
          continue;
        }
        ExpectResponseMatches(response->body, direct[pick]);
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(HttpEndToEndTest, GracefulShutdownUnderInFlightLoad) {
  Loopback loop;
  std::atomic<bool> done{false};
  std::atomic<int> served{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      HttpClient client = loop.Client();
      while (!done.load()) {
        auto response = client.Post("/v1/models/beer/predict",
                                    PredictBody("drain me gracefully"));
        if (!response.has_value()) {
          // Connection refused/closed: the server is stopping. Every
          // *answered* request must still be a complete, valid response.
          break;
        }
        EXPECT_TRUE(response->status == 200 || response->status == 503)
            << response->status;
        if (response->status == 200) served.fetch_add(1);
      }
    });
  }
  // Let load build, then stop mid-flight: Stop() must drain in-flight
  // requests (no hang, no crash, no torn responses) and return.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  loop.server->Stop();
  done.store(true);
  for (std::thread& thread : clients) thread.join();
  EXPECT_FALSE(loop.server->running());
  EXPECT_GT(served.load(), 0);

  // The port no longer answers.
  HttpClient after("127.0.0.1", loop.server->port(), /*timeout_ms=*/500);
  EXPECT_FALSE(after.Get("/healthz").has_value());
}

TEST(HttpEndToEndTest, RequestTimeoutAnswers408) {
  ServerConfig server_config;
  server_config.read_timeout_ms = 200;
  Loopback loop({}, server_config);

  // Raw socket: send half a request and stall.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(loop.server->port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char partial[] = "GET /healthz HT";
  ASSERT_EQ(::send(fd, partial, sizeof(partial) - 1, 0),
            static_cast<ssize_t>(sizeof(partial) - 1));

  std::string received;
  char buf[1024];
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 2000) <= 0) break;
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    received.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(received.find("408"), std::string::npos) << received;
}

}  // namespace
}  // namespace net
}  // namespace dar

// Serving throughput: micro-batched multi-threaded serving vs. the naive
// one-request-at-a-time loop, on the same model and the same request
// stream, plus the in-process costs the end-to-end benchmark (e2e_bench/,
// which drives the deployed HTTP stack) cannot resolve: trace levels and
// sentinel modes on the naive path, the serving cache's miss cost, and
// paired probes of request tracing and the mutex wrapper.
//
// For each (workers, max_batch) configuration, P producer threads submit
// the full request set through the MicroBatcher and we measure wall-clock
// requests/sec; the baseline serves the same requests sequentially through
// InferenceSession::Predict. Every repeated measurement runs through
// bench::MeasureInterleaved and is reported as a median with its
// rep-to-rep spread. Nothing here prints a verdict: the ratio of two
// throughputs whose spread is wider than the difference it looks for
// decides nothing, so small costs are resolved by the paired probes.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "check/sentinel.h"
#include "core/rnp.h"
#include "net/http.h"
#include "net/routes.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace_context.h"
#include "serve/batcher.h"
#include "serve/registry.h"
#include "serve/session.h"
#include "serve/thread_pool.h"
#include "sync/mutex.h"

namespace {

using namespace dar;

/// Deterministic request stream drawn from the dataset vocabulary.
std::vector<std::string> BuildRequests(
    const datasets::SyntheticDataset& dataset, size_t count, uint64_t seed) {
  std::vector<std::string> requests;
  requests.reserve(count);
  Pcg32 rng(seed, 17);
  for (size_t i = 0; i < count; ++i) {
    int len = 12 + static_cast<int>(rng.Below(20));
    std::string text;
    for (int t = 0; t < len; ++t) {
      if (t) text += ' ';
      int64_t id = 2 + static_cast<int64_t>(rng.Below(
                           static_cast<uint32_t>(dataset.vocab.size() - 2)));
      text += dataset.vocab.Token(id);
    }
    requests.push_back(text);
  }
  return requests;
}

double MeasureNaive(const serve::InferenceSession& session,
                    const std::vector<std::string>& requests) {
  auto start = std::chrono::steady_clock::now();
  for (const std::string& text : requests) session.Predict(text);
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return static_cast<double>(requests.size()) / elapsed.count();
}

double MeasureBatched(const serve::InferenceSession& session,
                      const std::vector<std::string>& requests,
                      const serve::BatcherConfig& config, int num_producers) {
  serve::MicroBatcher batcher(session, config);
  std::vector<std::future<serve::InferenceResult>> futures(requests.size());

  auto start = std::chrono::steady_clock::now();
  {
    serve::ThreadPool producers(num_producers);
    size_t per_producer =
        (requests.size() + static_cast<size_t>(num_producers) - 1) /
        static_cast<size_t>(num_producers);
    for (int p = 0; p < num_producers; ++p) {
      size_t begin = static_cast<size_t>(p) * per_producer;
      size_t end = std::min(begin + per_producer, requests.size());
      producers.Submit([&, begin, end] {
        for (size_t i = begin; i < end; ++i) {
          futures[i] = batcher.Submit(requests[i]);
        }
      });
    }
    producers.Wait();
  }
  for (std::future<serve::InferenceResult>& f : futures) f.get();
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return static_cast<double>(requests.size()) / elapsed.count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dar;
  bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  bench::PrintHeader("Serving throughput: micro-batching x worker threads",
                     "serving-path scaling (no paper analogue)", options);

  // Throughput depends on architecture and shapes, not on trained weights:
  // an untrained RNP serves identical tensor work per request. Every
  // session below is built the same way (same seed, same weights).
  datasets::SyntheticDataset dataset = datasets::MakeBeerDataset(
      datasets::BeerAspect::kAppearance, {.train = 50, .dev = 10, .test = 10},
      options.seed);
  core::TrainConfig config;
  config.seed = options.seed;
  auto make_session = [&] {
    return std::make_unique<serve::InferenceSession>(
        std::make_unique<core::RnpModel>(
            eval::BuildEmbeddings(dataset, config), config),
        dataset.vocab);
  };
  // Serves the arms outside the table (trace levels, sentinel modes).
  const std::unique_ptr<serve::InferenceSession> session = make_session();
  // Behind the serving cache, so the uncached arms stay untouched by it.
  const std::unique_ptr<serve::InferenceSession> cached_session =
      make_session();

  size_t num_requests = options.quick ? 1500 : 4000;
  std::vector<std::string> requests =
      BuildRequests(dataset, num_requests, options.seed);
  const int rounds = options.quick ? 3 : 5;
  MeasureNaive(*session, {requests.begin(), requests.begin() + 50});  // warm

  // The in-process group, interleaved.
  std::vector<std::string> labels;
  std::vector<std::function<double()>> arms;
  auto add_arm = [&](std::string label, std::function<double()> run) {
    labels.push_back(std::move(label));
    arms.push_back(std::move(run));
    return arms.size() - 1;
  };
  // The table's arms come first, and arm a serves through table_sessions[a]
  // alone, so its batch and latency columns cover all of its rounds, like
  // the Req/s median beside them.
  std::vector<std::unique_ptr<serve::InferenceSession>> table_sessions;
  auto table_session = [&]() -> const serve::InferenceSession& {
    table_sessions.push_back(make_session());
    return *table_sessions.back();
  };
  // The naive loop at one trace level and sentinel mode. The default is
  // both off: a Span is then one relaxed atomic load and every sentinel
  // hook one relaxed load and a predictable branch. kCoarse adds one
  // steady_clock pair per request, kDetailed times every matmul, GRU and
  // Gumbel sample, kRecord/kTrap scan every op output.
  auto naive = [&](const serve::InferenceSession& served,
                   obs::TraceLevel level, check::SentinelMode mode) {
    return [&, served = &served, level, mode] {
      obs::SetTraceLevel(level);
      check::SetSentinelMode(mode);
      const double rate = MeasureNaive(*served, requests);
      obs::SetTraceLevel(obs::TraceLevel::kOff);
      check::SetSentinelMode(check::SentinelMode::kOff);
      return rate;
    };
  };
  const size_t naive_arm =
      add_arm("naive 1-at-a-time", naive(table_session(), obs::TraceLevel::kOff,
                                         check::SentinelMode::kOff));

  struct BatchedArm {
    int workers;
    int64_t max_batch;
    int producers;
  };
  const std::vector<BatchedArm> batched = {
      {1, 1, 2},  {1, 8, 2},  {1, 32, 4}, {1, 64, 4},
      {2, 16, 4}, {4, 32, 4}, {2, 64, 4}, {2, 128, 4}};
  const size_t first_batched = arms.size();
  for (const BatchedArm& arm : batched) {
    serve::BatcherConfig batcher_config;
    batcher_config.num_workers = arm.workers;
    batcher_config.max_batch = arm.max_batch;
    // Backpressure: cap queued requests at the batcher's length-selection
    // scan window; deeper queues only add queueing delay and cache traffic.
    batcher_config.max_queue = arm.max_batch * 8;
    char label[64];
    std::snprintf(label, sizeof(label), "%dw x batch%lld", arm.workers,
                  static_cast<long long>(arm.max_batch));
    add_arm(label, [&, &served = table_session(), batcher_config,
                    producers = arm.producers] {
      return MeasureBatched(served, requests, batcher_config, producers);
    });
  }
  const size_t end_batched = arms.size();

  const size_t coarse_arm =
      add_arm("coarse", naive(*session, obs::TraceLevel::kCoarse,
                              check::SentinelMode::kOff));
  const size_t detailed_arm =
      add_arm("detailed", naive(*session, obs::TraceLevel::kDetailed,
                                check::SentinelMode::kOff));
  const size_t record_arm =
      add_arm("record", naive(*session, obs::TraceLevel::kOff,
                              check::SentinelMode::kRecord));
  const size_t trap_arm =
      add_arm("trap", naive(*session, obs::TraceLevel::kOff,
                            check::SentinelMode::kTrap));

  // Serving cache, naive path. cold: every sequence distinct, so every
  // request misses, looks up, runs both encoders and inserts: the miss
  // cost of the cache against the naive arm.
  serve::ServeCache cache(serve::CacheConfig{});
  const size_t cold_arm = add_arm("cold", [&] {
    // Re-enabling issues a fresh cache model id, so every round starts cold.
    cached_session->EnableCache(&cache, "bench");
    const double rate = MeasureNaive(*cached_session, requests);
    cache.InvalidateModel(cached_session->cache_model_id());
    return rate;
  });

  const std::vector<bench::ArmStats> rates =
      bench::MeasureInterleaved(arms, rounds);
  check::DrainSentinelFindings();  // serving an untrained model is finite

  const double naive_rps = rates[naive_arm].median;
  eval::TablePrinter table({"Config", "Req/s", "Spread", "Speedup",
                            "MeanBatch", "p50us", "p95us", "p99us"});
  double best_rps = 0.0;
  auto add_row = [&](size_t a) {
    const serve::StatsSnapshot snapshot = table_sessions[a]->stats().Snapshot();
    char rps_buf[32], spread[32], speedup[32], mean_batch[32];
    std::snprintf(rps_buf, sizeof(rps_buf), "%.0f", rates[a].median);
    std::snprintf(spread, sizeof(spread), "%.1f%%", rates[a].spread_pct);
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  rates[a].median / naive_rps);
    std::snprintf(mean_batch, sizeof(mean_batch), "%.1f",
                  snapshot.mean_batch_size);
    table.AddRow({labels[a], rps_buf, spread, speedup, mean_batch,
                  std::to_string(snapshot.latency_p50_us),
                  std::to_string(snapshot.latency_p95_us),
                  std::to_string(snapshot.latency_p99_us)});
  };
  add_row(naive_arm);
  for (size_t a = first_batched; a < end_batched; ++a) {
    add_row(a);
    best_rps = std::max(best_rps, rates[a].median);
  }
  table.Print();
  std::printf("\nbest micro-batched speedup over naive: %.2fx\n",
              best_rps / naive_rps);

  std::printf("\nnaive path by trace level and sentinel mode, and the "
              "serving cache\n(interleaved with the table, median of %d "
              "rounds):\n",
              rounds);
  for (size_t a : {coarse_arm, detailed_arm, record_arm, trap_arm, cold_arm}) {
    std::printf("  %-9s %8.0f req/s (spread %.1f%%, %.2fx naive)\n",
                labels[a].c_str(), rates[a].median, rates[a].spread_pct,
                rates[a].median / naive_rps);
  }

  // Paired per-request cost of request tracing on /healthz, a route cheap
  // enough (~1 us) that a long Handle loop resolves tens of ns on the
  // traced machinery every predict runs (context mint, collector, root and
  // router spans, Finish, ring Record, exemplar, header). Each arm times an
  // untraced router and a traced one back to back and returns the
  // difference: idle (the default tail threshold retains nothing, the
  // production shape) and sampled (threshold 0: every request's span tree
  // is retained, the worst case).
  net::HttpRequest healthz;
  healthz.method = "GET";
  healthz.target = "/healthz";
  healthz.version = "HTTP/1.1";
  const int probe_requests = options.quick ? 100000 : 200000;
  serve::ModelRegistry registries[3];
  net::RouterConfig off_config;
  off_config.tracing.enabled = false;
  net::RouterConfig sampled_config;
  sampled_config.tracing.tail.latency_threshold_us = 0;
  net::Router off_router(registries[0], off_config);
  net::Router idle_router(registries[1]);
  net::Router sampled_router(registries[2], sampled_config);
  auto probe_us = [&](net::Router& router) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < probe_requests; ++i) {
      if (router.Handle(healthz).status != 200) return -1.0;
    }
    std::chrono::duration<double, std::micro> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() / probe_requests;
  };
  for (net::Router* router : {&off_router, &idle_router, &sampled_router}) {
    probe_us(*router);  // warm every path once
  }
  const std::vector<bench::ArmStats> trace_costs = bench::MeasureInterleaved(
      {[&] { return probe_us(idle_router) - probe_us(off_router); },
       [&] { return probe_us(sampled_router) - probe_us(off_router); }},
      rounds);
  const double predict_request_us = 1e6 / naive_rps;
  const double trace_idle_overhead_pct =
      trace_costs[0].median / predict_request_us * 100.0;
  std::printf("\nrequest tracing, paired /healthz probe (median of %d "
              "rounds):\n",
              rounds);
  std::printf("  idle     %.3f us/request (spread %.1f%%) = %.3f%% of a "
              "%.0f us naive predict\n",
              trace_costs[0].median, trace_costs[0].spread_pct,
              trace_idle_overhead_pct, predict_request_us);
  std::printf("  sampled  %.3f us/request (spread %.1f%%)\n",
              trace_costs[1].median, trace_costs[1].spread_pct);

  // Micro-rates for the two always-on tracing consumers, so a regression in
  // either shows up directly instead of inside the per-request cost above.
  double ring_record_per_sec = 0.0;
  double exemplar_observe_per_sec = 0.0;
  {
    obs::TraceCollector collector(obs::MakeTraceContext());
    {
      obs::ScopedActiveCollector guard(&collector);
      obs::Span span("serve.forward");
    }
    obs::CompletedTrace trace = collector.Finish("predict", "bench", 200);
    obs::FlightRecorder ring;
    constexpr int kRingOps = 200000;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kRingOps; ++i) ring.Record(trace);
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    ring_record_per_sec = kRingOps / elapsed.count();

    obs::Histogram hist(obs::DurationBucketsUs());
    constexpr int kObserveOps = 1000000;
    start = std::chrono::steady_clock::now();
    for (int i = 0; i < kObserveOps; ++i) {
      hist.ObserveWithExemplar(static_cast<double>(i % 5000), 0xbe, 0xef);
    }
    elapsed = std::chrono::steady_clock::now() - start;
    exemplar_observe_per_sec = kObserveOps / elapsed.count();
  }
  std::printf("  ring Record          %12.0f ops/s\n", ring_record_per_sec);
  std::printf("  ObserveWithExemplar  %12.0f ops/s\n",
              exemplar_observe_per_sec);

  // An uncontended Lock/Unlock pair of the annotated mutex wrapper
  // (sync/mutex.h): as deployed (a relaxed load, a branch and the
  // try_lock), and with lock-rank checking armed (the held-rank stack push
  // and pop).
  sync::Mutex probe_mu(sync::Rank::kStats, "bench.lock_probe");
  constexpr int kLockOps = 2000000;
  auto pair_ns = [&probe_mu](bool ranked) {
    sync::SetLockRankCheck(ranked);
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kLockOps; ++i) {
      probe_mu.Lock();
      probe_mu.Unlock();
    }
    std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - start;
    sync::SetLockRankCheck(false);
    return elapsed.count() / kLockOps;
  };
  pair_ns(false);  // warm
  const std::vector<bench::ArmStats> lock_pair = bench::MeasureInterleaved(
      {[&] { return pair_ns(false); }, [&] { return pair_ns(true); }},
      rounds);
  std::printf("\nLock/Unlock pair (uncontended): %.1f ns, %.1f ns "
              "rank-checked\n",
              lock_pair[0].median, lock_pair[1].median);

  bench::BenchJsonWriter json("serve_throughput", options);
  json.Field("requests", static_cast<int64_t>(num_requests));
  json.Field("overhead_reps", static_cast<int64_t>(rounds));
  json.Field("naive_rps", naive_rps, 2);
  json.Field("naive_spread_pct", rates[naive_arm].spread_pct, 2);
  json.Field("best_batched_rps", best_rps, 2);
  json.Field("best_speedup", best_rps / naive_rps);
  for (auto [key, a] : {std::pair{"span_overhead_coarse", coarse_arm},
                        std::pair{"span_overhead_detailed", detailed_arm},
                        std::pair{"sentinel_overhead_record", record_arm},
                        std::pair{"sentinel_overhead_trap", trap_arm},
                        std::pair{"cache_cold", cold_arm}}) {
    json.Field(std::string(key) + "_rps", rates[a].median, 2);
    json.Field(std::string(key) + "_spread_pct", rates[a].spread_pct, 2);
  }
  json.Field("trace_cost_us", trace_costs[0].median);
  json.Field("trace_cost_spread_pct", trace_costs[0].spread_pct, 2);
  json.Field("trace_idle_overhead_pct", trace_idle_overhead_pct, 2);
  json.Field("trace_sampled_cost_us", trace_costs[1].median);
  json.Field("trace_sampled_cost_spread_pct", trace_costs[1].spread_pct, 2);
  json.Field("flight_recorder_record_per_sec", ring_record_per_sec, 0);
  json.Field("exemplar_observe_per_sec", exemplar_observe_per_sec, 0);
  json.Field("sync_lock_pair_ns", lock_pair[0].median, 2);
  json.Field("sync_lock_pair_rank_ns", lock_pair[1].median, 2);
  if (json.Write("BENCH_serve_throughput.json")) {
    std::printf("\nwrote BENCH_serve_throughput.json\n");
  }
  return 0;
}

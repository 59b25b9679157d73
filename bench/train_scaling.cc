// Data-parallel training scaling sweep.
//
// Trains the same RNP configuration with the shard → replica → reduce →
// step engine (core/parallel_trainer.h) at 1/2/4/8 workers and reports
// wall-clock epoch throughput and speedup over the 1-worker run. Each
// sweep point uses num_shards == num_workers, i.e. the schedule an actual
// deployment would run; the reduce always runs in shard order, so each
// measured configuration is bit-reproducible.
//
// Besides the table, the bench records a machine-readable baseline in
// BENCH_train_scaling.json (cwd; run via run_benches.sh from the repo
// root) so later changes can be compared against it. The host core count
// is part of the record: speedup is bounded by physical parallelism, and
// a single-core host pins every point near 1.0x. The sweep runs under
// coarse tracing, so the record also carries the train.shard /
// train.reduce / train.step / train.broadcast span histograms.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/parallel_trainer.h"
#include "core/trainer.h"
#include "datasets/beer.h"
#include "eval/table.h"

#include <thread>

namespace dar {
namespace {

struct ScalingPoint {
  int workers = 1;
  double seconds = 0.0;
  double examples_per_sec = 0.0;
  double speedup = 1.0;
  float final_dev_acc = 0.0f;
};

int Main(int argc, char** argv) {
  bench::BenchOptions options = bench::BenchOptions::Parse(argc, argv);
  bench::PrintHeader("train_scaling",
                     "data-parallel training throughput (workers sweep)",
                     options);
  // Coarse spans (per-phase timers) cost one steady_clock pair per batch
  // phase — negligible against the forwards they bracket — and let the
  // JSON record show where the wall-clock went.
  obs::SetTraceLevel(obs::TraceLevel::kCoarse);

  const datasets::SyntheticDataset dataset = datasets::MakeBeerDataset(
      datasets::BeerAspect::kAroma, options.sizes(), options.seed);
  core::TrainConfig config = options.config();
  config.epochs = options.quick ? 2 : 4;

  const unsigned host_cores = std::thread::hardware_concurrency();
  const std::vector<int> worker_counts = {1, 2, 4, 8};
  std::vector<ScalingPoint> points;
  for (int workers : worker_counts) {
    auto model = eval::MakeMethod("RNP", dataset, config);
    const core::ParallelTrainConfig parallel{.num_workers = workers,
                                             .num_shards = workers};
    const auto start = std::chrono::steady_clock::now();
    core::TrainRun run = core::Fit(*model, dataset, parallel);
    const auto end = std::chrono::steady_clock::now();

    ScalingPoint point;
    point.workers = workers;
    point.seconds = std::chrono::duration<double>(end - start).count();
    point.examples_per_sec =
        static_cast<double>(dataset.train.size()) *
        static_cast<double>(config.epochs) / point.seconds;
    point.speedup = points.empty()
                        ? 1.0
                        : points.front().seconds / point.seconds;
    point.final_dev_acc = run.best_dev_acc;
    points.push_back(point);
    std::printf("  workers=%d done in %.2fs\n", workers, point.seconds);
    std::fflush(stdout);
  }

  std::printf("\nhost hardware threads: %u\n\n", host_cores);
  eval::TablePrinter table(
      {"Workers", "Seconds", "Examples/s", "Speedup", "BestDevAcc"});
  for (const ScalingPoint& p : points) {
    char seconds[32], eps[32], speedup[32], acc[32];
    std::snprintf(seconds, sizeof(seconds), "%.2f", p.seconds);
    std::snprintf(eps, sizeof(eps), "%.1f", p.examples_per_sec);
    std::snprintf(speedup, sizeof(speedup), "%.2fx", p.speedup);
    std::snprintf(acc, sizeof(acc), "%.3f", p.final_dev_acc);
    table.AddRow({std::to_string(p.workers), seconds, eps, speedup, acc});
  }
  table.Print();

  const char* json_path = "BENCH_train_scaling.json";
  bench::BenchJsonWriter json("train_scaling", options);
  json.Field("host_hardware_threads", static_cast<int64_t>(host_cores));
  json.Field("train_examples", static_cast<int64_t>(dataset.train.size()));
  json.Field("epochs", static_cast<int64_t>(config.epochs));
  std::string results = "[\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const ScalingPoint& p = points[i];
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "    {\"workers\": %d, \"seconds\": %.4f, "
                  "\"examples_per_sec\": %.2f, \"speedup\": %.4f, "
                  "\"best_dev_acc\": %.4f}%s\n",
                  p.workers, p.seconds, p.examples_per_sec, p.speedup,
                  p.final_dev_acc, i + 1 < points.size() ? "," : "");
    results += buf;
  }
  results += "  ]";
  json.RawField("results", results);
  if (json.Write(json_path)) {
    std::printf("\nwrote %s\n", json_path);
  } else {
    std::printf("\ncould not write %s\n", json_path);
  }
  return 0;
}

}  // namespace
}  // namespace dar

int main(int argc, char** argv) { return dar::Main(argc, argv); }

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
// root) so later changes can be compared against it. Each workers row
// carries minor_faults_per_step: the process's minor page faults
// (getrusage) over its optimizer steps, each epoch's first step, the
// pretraining and the dev evaluations left out; a fresh page of a tensor
// buffer is one fault. The host core count
// is part of the record: speedup is bounded by physical parallelism, and
// a single-core host pins every point near 1.0x. The sweep runs under
// coarse tracing, so the record also carries the train.shard /
// train.reduce / train.step / train.broadcast span histograms.
//
// Its `bigru` rows time one BiGRU layer's forward + backward (E = 32,
// H = 24, x and every weight trainable) with its directions in turn on
// the calling thread against paired with the helper thread
// (nn::BiGruSequence), at B·T from a single 38-token review to train_dar's
// 64 x 44 batch. Each point runs with the helper spinning (back-to-back
// layers, as inside a training step) and parked (a sleep longer than the
// spin window before each layer, as a sporadic serving batch meets it).
// Each arm reports the median wall time per layer and the process CPU time
// per layer (getrusage, so the helper's spin is charged to the arm that
// caused it). nn::kBiGruPairedRows and nn::kBiGruSpinUs are set from them
// (DESIGN.md §14).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/parallel_trainer.h"
#include "core/trainer.h"
#include "datasets/beer.h"
#include "eval/table.h"
#include "nn/gru.h"
#include "obs/train_observer.h"

namespace dar {
namespace {

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) * 1e-3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

int64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_minflt);
}

/// Minor faults per optimizer step: each interval between two steps'
/// telemetry in one epoch holds exactly one step.
class StepFaults : public obs::TrainObserver {
 public:
  void OnBatch(const obs::BatchTelemetry& telemetry) override {
    const int64_t now = MinorFaults();
    if (telemetry.batch > 0) {
      faults_ += now - last_;
      ++steps_;
    }
    last_ = now;
  }
  bool WantsRationaleShift() const override { return false; }
  double PerStep() const {
    return steps_ > 0 ? static_cast<double>(faults_) /
                            static_cast<double>(steps_)
                      : 0.0;
  }

 private:
  int64_t last_ = 0, faults_ = 0, steps_ = 0;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double SpreadPct(const std::vector<double>& v) {
  const double median = Median(v);
  return median > 0.0
             ? 100.0 * (*std::max_element(v.begin(), v.end()) -
                        *std::min_element(v.begin(), v.end())) /
                   median
             : 0.0;
}

/// One BiGRU point: one schedule pair at one B·T and helper state.
struct PairingRow {
  int64_t b = 0, t = 0;
  bool parked = false;
  double in_turn_ms = 0.0, paired_ms = 0.0;
  double in_turn_cpu_ms = 0.0, paired_cpu_ms = 0.0;
  double in_turn_spread_pct = 0.0, paired_spread_pct = 0.0;
};

PairingRow TimeBiGru(int64_t b, int64_t t, bool parked, int rounds,
                     int reps) {
  constexpr int64_t kE = 32, kH = 24;
  Pcg32 rng(static_cast<uint64_t>(b * 1000 + t));
  nn::BiGru layer(kE, kH, rng);
  nn::GruWeights w[2];
  for (const nn::NamedParameter& p : layer.Parameters()) {
    const int side = p.name.rfind("bw/", 0) == 0 ? 1 : 0;
    const std::string leaf = p.name.substr(3);
    (leaf == "w_x" ? w[side].w_x : leaf == "w_h" ? w[side].w_h : w[side].b) =
        p.variable;
  }
  const ag::Variable x = ag::Variable::Param(Tensor::Randn({b, t, kE}, rng));
  const Tensor seed = Tensor::Randn({b, t, 2 * kH}, rng);
  const auto park = [] {
    std::this_thread::sleep_for(
        std::chrono::microseconds(3 * nn::kBiGruSpinUs));
  };
  const auto layer_step = [&](bool paired) {
    ag::Variable y = nn::BiGruSequence(x, w[0], w[1], nullptr, paired);
    y.Backward(seed);
  };
  std::vector<double> wall[2], cpu[2];
  for (int round = 0; round < rounds; ++round) {
    for (int k = 0; k < 2; ++k) {
      const bool paired = (round + k) % 2 == 1;  // alternate arm order
      layer_step(paired);                       // warm-up, untimed
      park();
      std::vector<double> samples;
      const double cpu0 = ProcessCpuMs();
      for (int rep = 0; rep < reps; ++rep) {
        if (parked) park();
        const auto start = std::chrono::steady_clock::now();
        layer_step(paired);
        samples.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
      }
      park();  // the helper's last spin belongs to this arm
      cpu[paired].push_back((ProcessCpuMs() - cpu0) / reps);
      wall[paired].push_back(Median(samples));
    }
  }
  PairingRow row;
  row.b = b;
  row.t = t;
  row.parked = parked;
  row.in_turn_ms = Median(wall[0]);
  row.paired_ms = Median(wall[1]);
  row.in_turn_cpu_ms = Median(cpu[0]);
  row.paired_cpu_ms = Median(cpu[1]);
  row.in_turn_spread_pct = SpreadPct(wall[0]);
  row.paired_spread_pct = SpreadPct(wall[1]);
  return row;
}

struct ScalingPoint {
  int workers = 1;
  double seconds = 0.0;
  double examples_per_sec = 0.0;
  double speedup = 1.0;
  float final_dev_acc = 0.0f;
  double minor_faults_per_step = 0.0;
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
    StepFaults faults;
    const auto start = std::chrono::steady_clock::now();
    core::TrainRun run =
        core::Fit(*model, dataset, parallel, /*verbose=*/false, &faults);
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
    point.minor_faults_per_step = faults.PerStep();
    points.push_back(point);
    std::printf("  workers=%d done in %.2fs\n", workers, point.seconds);
    std::fflush(stdout);
  }

  std::printf("\nhost hardware threads: %u\n\n", host_cores);
  eval::TablePrinter table({"Workers", "Seconds", "Examples/s", "Speedup",
                            "BestDevAcc", "FaultsPerStep"});
  for (const ScalingPoint& p : points) {
    char seconds[32], eps[32], speedup[32], acc[32], faults[32];
    std::snprintf(seconds, sizeof(seconds), "%.2f", p.seconds);
    std::snprintf(eps, sizeof(eps), "%.1f", p.examples_per_sec);
    std::snprintf(speedup, sizeof(speedup), "%.2fx", p.speedup);
    std::snprintf(acc, sizeof(acc), "%.3f", p.final_dev_acc);
    std::snprintf(faults, sizeof(faults), "%.1f", p.minor_faults_per_step);
    table.AddRow(
        {std::to_string(p.workers), seconds, eps, speedup, acc, faults});
  }
  table.Print();

  // BiGRU direction pairing: B·T = 38 (one review) to 2816 (64 x 44).
  const std::vector<std::pair<int64_t, int64_t>> shapes = {
      {1, 38}, {4, 38}, {16, 38}, {32, 38}, {64, 44}};
  const int rounds = options.quick ? 3 : 5;
  const int reps = options.quick ? 8 : 20;
  std::vector<PairingRow> pairing;
  for (bool parked : {false, true}) {
    for (const auto& [b, t] : shapes) {
      pairing.push_back(TimeBiGru(b, t, parked, rounds, reps));
    }
  }
  std::printf("\nBiGRU forward + backward (E 32, H 24): in turn vs paired\n\n");
  eval::TablePrinter pairing_table({"B*T", "Helper", "InTurnMs", "PairedMs",
                                    "InTurnCpuMs", "PairedCpuMs"});
  for (const PairingRow& r : pairing) {
    char cells[4][32];
    std::snprintf(cells[0], sizeof(cells[0]), "%.3f", r.in_turn_ms);
    std::snprintf(cells[1], sizeof(cells[1]), "%.3f", r.paired_ms);
    std::snprintf(cells[2], sizeof(cells[2]), "%.3f", r.in_turn_cpu_ms);
    std::snprintf(cells[3], sizeof(cells[3]), "%.3f", r.paired_cpu_ms);
    pairing_table.AddRow({std::to_string(r.b * r.t),
                          r.parked ? "parked" : "spinning", cells[0],
                          cells[1], cells[2], cells[3]});
  }
  pairing_table.Print();

  const char* json_path = "BENCH_train_scaling.json";
  bench::BenchJsonWriter json("train_scaling", options);
  json.Field("host_hardware_threads", static_cast<int64_t>(host_cores));
  json.Field("train_examples", static_cast<int64_t>(dataset.train.size()));
  json.Field("epochs", static_cast<int64_t>(config.epochs));
  json.Field("notes",
             "Every worker's BiGRU layers pair their directions with the one "
             "helper thread (nn::BiGruSequence) when it is free, so the "
             "1-worker row runs on two threads; replicas that find it held "
             "run their directions in turn. minor_faults_per_step: "
             "getrusage minor faults over the optimizer steps (each epoch's "
             "first step, pretraining and dev evaluation left out). bigru "
             "rows: one layer's forward + backward, medians over interleaved "
             "rounds; cpu_ms is process CPU time per layer.");
  json.Field("bigru_paired_rows", static_cast<int64_t>(nn::kBiGruPairedRows));
  json.Field("bigru_spin_us", static_cast<int64_t>(nn::kBiGruSpinUs));
  std::string results = "[\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const ScalingPoint& p = points[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"workers\": %d, \"seconds\": %.4f, "
                  "\"examples_per_sec\": %.2f, \"speedup\": %.4f, "
                  "\"best_dev_acc\": %.4f, \"minor_faults_per_step\": "
                  "%.1f}%s\n",
                  p.workers, p.seconds, p.examples_per_sec, p.speedup,
                  p.final_dev_acc, p.minor_faults_per_step,
                  i + 1 < points.size() ? "," : "");
    results += buf;
  }
  results += "  ]";
  json.RawField("results", results);
  std::string bigru = "[\n";
  for (size_t i = 0; i < pairing.size(); ++i) {
    const PairingRow& r = pairing[i];
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "    {\"rows\": %lld, \"b\": %lld, \"t\": %lld, "
                  "\"helper\": \"%s\", \"in_turn_ms\": %.4f, "
                  "\"paired_ms\": %.4f, \"in_turn_cpu_ms\": %.4f, "
                  "\"paired_cpu_ms\": %.4f, \"in_turn_spread_pct\": %.1f, "
                  "\"paired_spread_pct\": %.1f}%s\n",
                  static_cast<long long>(r.b * r.t),
                  static_cast<long long>(r.b), static_cast<long long>(r.t),
                  r.parked ? "parked" : "spinning", r.in_turn_ms, r.paired_ms,
                  r.in_turn_cpu_ms, r.paired_cpu_ms, r.in_turn_spread_pct,
                  r.paired_spread_pct, i + 1 < pairing.size() ? "," : "");
    bigru += buf;
  }
  bigru += "  ]";
  json.RawField("bigru", bigru);
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

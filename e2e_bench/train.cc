// The train_dar workload: core::Fit on DAR with the standard bench profile,
// then eval::EvaluateOnTest — the paper's protocol. A traced run also
// replays Fit's loop through the public calls it makes, with a span around
// each, and must reproduce Fit's test F1 and parameter checksum exactly.
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "alloc_count.h"
#include "core/dar.h"
#include "core/trainer.h"
#include "data/dataloader.h"
#include "eval/experiment.h"
#include "ledger.h"
#include "obs/metrics.h"
#include "obs/train_observer.h"
#include "optim/adam.h"
#include "optim/clip.h"
#include "tensor/gemm.h"
#include "workload.h"

namespace dar {
namespace e2e {

namespace {

/// Identical setup-and-Fit trials per end-to-end run, at the least; more
/// run until their game phases add up to --seconds. setup_s is the median
/// of their setups, and the game timings take each part's fastest trial.
constexpr int kMinTrials = 3;

/// eval::MakeMethod("DAR")'s model, stamped when Prepare() — DAR's
/// discriminator pretraining, the last step of setup — returns, and again
/// once its checksum is taken, when the game begins.
class PreparedDar final : public core::DarModel {
 public:
  using core::DarModel::DarModel;

  void Prepare(const datasets::SyntheticDataset& dataset) override {
    core::DarModel::Prepare(dataset);
    prepared_ns_ = NowNs();
    prepared_checksum_ = ParameterChecksum(*this);
    game_start_ns_ = NowNs();
  }

  int64_t prepared_ns() const { return prepared_ns_; }
  int64_t game_start_ns() const { return game_start_ns_; }
  uint64_t prepared_checksum() const { return prepared_checksum_; }

 private:
  int64_t prepared_ns_ = 0;
  int64_t game_start_ns_ = 0;
  uint64_t prepared_checksum_ = 0;
};

/// Setup up to Prepare: dataset, embeddings and the model.
struct TrainSetup {
  int64_t start_ns = 0;
  datasets::SyntheticDataset dataset;
  std::unique_ptr<PreparedDar> model;

  double setup_s() const {
    return static_cast<double>(model->prepared_ns() - start_ns) / 1e9;
  }
};

TrainSetup BuildTrainDar() {
  TrainSetup setup;
  setup.start_ns = NowNs();
  setup.dataset = TrainDarDataset();
  const core::TrainConfig config =
      TrainDarConfig(setup.dataset.AnnotationSparsity());
  setup.model = std::make_unique<PreparedDar>(
      eval::BuildEmbeddings(setup.dataset, config), config);
  return setup;
}

/// Splits one Fit's game phase at each optimizer step: part i ends when
/// OnBatch fires for the i-th time, and one last part ends when Fit
/// returns. A part that ends on any step but an epoch's first is a step
/// sample; an epoch's first part also covers the previous epoch's dev
/// evaluation and reshuffle. Declines the rationale-shift probe, which
/// would add two forwards per step.
class GameTimeline final : public obs::TrainObserver {
 public:
  void OnBatch(const obs::BatchTelemetry& telemetry) override {
    step_end_ns_.push_back(NowNs());
    is_step_.push_back(telemetry.batch > 0);
    if (!std::isfinite(telemetry.loss)) ++non_finite_;
  }
  bool WantsRationaleShift() const override { return false; }

  /// Durations (ms) of the parts of a game phase from `start_ns` to `end_ns`.
  std::vector<double> PartsMs(int64_t start_ns, int64_t end_ns) const {
    std::vector<double> parts;
    int64_t last = start_ns;
    for (int64_t end : step_end_ns_) {
      parts.push_back(static_cast<double>(end - last) / 1e6);
      last = end;
    }
    parts.push_back(static_cast<double>(end_ns - last) / 1e6);
    return parts;
  }
  /// Per part, whether it is a step sample (the last part never is).
  std::vector<bool> IsStep() const {
    std::vector<bool> is_step = is_step_;
    is_step.push_back(false);
    return is_step;
  }
  int64_t steps() const { return static_cast<int64_t>(step_end_ns_.size()); }
  int64_t non_finite() const { return non_finite_; }

 private:
  std::vector<int64_t> step_end_ns_;
  std::vector<bool> is_step_;
  int64_t non_finite_ = 0;
};

/// One setup and Fit of train_dar, as measured.
struct Trial {
  double setup_s = 0.0;
  uint64_t prepared_checksum = 0;
  /// Parameter checksum once Fit has restored the best epoch.
  uint64_t checksum = 0;
  std::vector<double> parts_ms;
  std::vector<bool> is_step;
  int64_t examples = 0;
  int64_t steps = 0;
  int64_t non_finite = 0;
};

/// What a replay of Fit measured.
struct Replay {
  /// Step samples (as GameTimeline takes them) of traced and untraced
  /// epochs.
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  /// Steps of traced epochs, and the allocations and matmul flops in them.
  int64_t traced_steps = 0;
  int64_t allocations = 0;
  int64_t flops = 0;
  int64_t batches_per_epoch = 1;
};

/// Fit()'s loop (core/trainer.cc) through the same public calls. Odd epochs
/// are traced — a span around each layer's call, allocations counted — and
/// even ones from epoch 2 on are not, so the tracing overhead is measured
/// in the same minute of host speed; epoch 0 warms up and counts for
/// neither.
Replay ReplayFit(PreparedDar& model, const datasets::SyntheticDataset& dataset,
                 SpanLog& spans) {
  const core::TrainConfig& config = model.config();
  if (config.kernel_threads > 0) gemm::SetKernelThreads(config.kernel_threads);
  obs::Counter& flop_counter =
      obs::MetricsRegistry::Global().GetCounter("matmul_flops_total");

  const int64_t prepare_start = NowNs();
  model.Prepare(dataset);
  spans.Record("core.prepare", 0, prepare_start, model.prepared_ns());

  std::vector<ag::Variable> params = model.TrainableParameters();
  optim::Adam adam(params, {.lr = config.lr});
  data::DataLoader train_loader(dataset.train, config.batch_size,
                                /*shuffle=*/true);
  Replay replay;
  std::vector<Tensor> best_values;
  float best_dev_acc = 0.0f;
  int64_t best_epoch = -1;
  int64_t step = 0;
  for (int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    const bool traced = epoch % 2 == 1;
    SetAllocationCounting(traced);
    // Runs `call`, inside a span in traced epochs.
    auto timed = [&](const char* name, int64_t id, auto&& call) {
      const int64_t start = NowNs();
      call();
      if (traced) spans.Record(name, id, start, NowNs());
    };
    model.SetTraining(true);
    std::vector<data::Batch> batches;
    timed("data.epoch", epoch, [&] { batches = train_loader.Epoch(model.rng()); });
    replay.batches_per_epoch = static_cast<int64_t>(batches.size());
    int64_t last_end = 0;
    for (size_t b = 0; b < batches.size(); ++b, ++step) {
      const int64_t allocations_before = AllocationCount();
      const int64_t flops_before = flop_counter.value();
      adam.ZeroGrad();
      ag::Variable loss;
      timed("core.train_forward", step,
            [&] { loss = model.TrainLoss(batches[b]); });
      timed("autograd.backward", step, [&] { loss.Backward(); });
      timed("optim.clip", step,
            [&] { optim::ClipGradNorm(params, config.grad_clip); });
      timed("optim.adam", step, [&] { adam.Step(); });
      (void)loss.value().item();
      const int64_t end = NowNs();
      if (b > 0 && epoch > 0) {
        (traced ? replay.traced_ms : replay.untraced_ms)
            .push_back(static_cast<double>(end - last_end) / 1e6);
      }
      last_end = end;
      if (traced) {
        ++replay.traced_steps;
        replay.allocations += AllocationCount() - allocations_before;
        replay.flops += flop_counter.value() - flops_before;
      }
    }
    model.SetTraining(false);
    float dev_acc = 0.0f;
    timed("eval.dev_eval", epoch, [&] {
      dev_acc = core::EvaluateRationaleAccuracy(model, dataset.dev,
                                                config.batch_size);
    });
    if (dev_acc >= best_dev_acc || best_epoch < 0) {
      best_dev_acc = dev_acc;
      best_epoch = epoch;
      best_values.clear();
      for (const ag::Variable& p : params) best_values.push_back(p.value());
    }
  }
  SetAllocationCounting(false);
  for (size_t i = 0; i < best_values.size(); ++i) {
    params[i].mutable_value() = best_values[i];
  }
  model.SetTraining(false);
  return replay;
}

}  // namespace

int RunTrainDar(const Options& options) {
  bool correct = true;
  std::map<std::string, double> values;

  // Trials: each builds the model, then runs Fit, whose Prepare ends the
  // trial's setup. The first trial's model is also scored on the test
  // split; a traced run makes only that one and then replays it.
  std::vector<Trial> trials;
  eval::MethodResult result;
  double game_s = 0.0;
  const int min_trials = options.trace ? 1 : kMinTrials;
  while (static_cast<int>(trials.size()) < min_trials ||
         (!options.trace && game_s < options.seconds)) {
    TrainSetup setup = BuildTrainDar();
    GameTimeline timeline;
    core::Fit(*setup.model, setup.dataset, /*verbose=*/false, &timeline);
    Trial trial;
    trial.parts_ms = timeline.PartsMs(setup.model->game_start_ns(), NowNs());
    trial.is_step = timeline.IsStep();
    trial.setup_s = setup.setup_s();
    trial.prepared_checksum = setup.model->prepared_checksum();
    trial.examples = setup.model->config().epochs *
                     static_cast<int64_t>(setup.dataset.train.size());
    trial.steps = timeline.steps();
    trial.non_finite = timeline.non_finite();
    if (trials.empty()) {
      result = eval::EvaluateOnTest(*setup.model, setup.dataset);
    }
    trial.checksum = ParameterChecksum(*setup.model);
    for (double ms : trial.parts_ms) game_s += ms / 1e3;
    trials.push_back(std::move(trial));
  }

  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> setup_s;
  std::vector<std::vector<double>> parts_ms;
  for (const Trial& trial : trials) {
    if (trial.prepared_checksum != trials.front().prepared_checksum) {
      std::fprintf(stderr, "discriminator pretraining is not deterministic\n");
      correct = false;
    }
    if (trial.checksum != trials.front().checksum ||
        trial.is_step != trials.front().is_step) {
      std::fprintf(stderr, "Fit trials did not train identically\n");
      correct = false;
    }
    attempted += trial.steps;
    failed += trial.non_finite;
    setup_s.push_back(trial.setup_s);
    parts_ms.push_back(trial.parts_ms);
  }
  const double f1 = 100.0 * static_cast<double>(result.rationale.f1);
  if (f1 < kMinRationaleF1) {
    std::fprintf(stderr, "test rationale F1 %.2f is below %.0f\n", f1,
                 kMinRationaleF1);
    correct = false;
  }
  if (failed != 0 || attempted == 0) correct = false;
  const uint64_t checksum = trials.front().checksum;
  if (!options.trace) {
    // The trials do identical work, so a part that ran slower in one of
    // them was slowed by the host; each part counts at its fastest.
    const std::vector<double> fastest_ms = FastestOfTrials(parts_ms);
    if (fastest_ms.empty()) correct = false;
    double fastest_game_ms = 0.0;
    std::vector<double> step_ms;
    for (size_t i = 0; i < fastest_ms.size(); ++i) {
      fastest_game_ms += fastest_ms[i];
      if (trials.front().is_step[i]) step_ms.push_back(fastest_ms[i]);
    }
    values["setup_s"] = Percentile(setup_s, 50);
    values["p50_ms"] = Percentile(step_ms, 50);
    values["rationale_f1"] = f1;
    values["label_acc"] = 100.0 * static_cast<double>(result.rationale_acc);
    values["peak_rss_mb"] = PeakRssMb();
    return PrintResult(correct, attempted, failed,
                       NamedMetrics(EndToEndMetricNames(), values),
                       {{"throughput_per_s",
                         static_cast<double>(trials.front().examples) /
                             (fastest_game_ms / 1e3),
                         "1/s"},
                        {"p90_ms", Percentile(step_ms, 90), "ms"}});
  }

  // Traced run: replay Fit on a fresh, identically built model.
  TrainSetup rebuilt = BuildTrainDar();
  SpanLog spans;
  const Replay replay = ReplayFit(*rebuilt.model, rebuilt.dataset, spans);
  const eval::MethodResult replayed =
      eval::EvaluateOnTest(*rebuilt.model, rebuilt.dataset);
  if (replayed.rationale.f1 != result.rationale.f1 ||
      replayed.rationale_acc != result.rationale_acc ||
      ParameterChecksum(*rebuilt.model) != checksum) {
    std::fprintf(stderr,
                 "the traced replay did not reproduce Fit: F1 %.4f vs %.4f\n",
                 100.0 * replayed.rationale.f1, f1);
    correct = false;
  }

  auto p50_ms = [&](const char* name) {
    return Percentile(spans.DurationsUs(name), 50) / 1e3;
  };
  const double traced_p50_ms = Percentile(replay.traced_ms, 50);
  const double untraced_p50_ms = Percentile(replay.untraced_ms, 50);
  values["trace.p50_ms"] = traced_p50_ms;
  values["trace.overhead_ms"] = traced_p50_ms - untraced_p50_ms;
  values["core.prepare_s"] = p50_ms("core.prepare") / 1e3;
  // DataLoader::Epoch assembles a whole epoch's batches up front.
  values["data.batch_ms"] =
      p50_ms("data.epoch") / static_cast<double>(replay.batches_per_epoch);
  values["eval.dev_eval_ms"] = p50_ms("eval.dev_eval");
  Ledger ledger(traced_p50_ms, "train.step_residual_ms");
  for (const char* row : {"core.train_forward", "autograd.backward",
                          "optim.clip", "optim.adam"}) {
    const std::string name = std::string(row) + "_ms";
    values[name] = p50_ms(row);
    ledger.Add(name, values[name]);
  }
  values["train.step_residual_ms"] = ledger.residual();
  const double n = static_cast<double>(std::max<int64_t>(replay.traced_steps, 1));
  values["alloc.per_step"] = static_cast<double>(replay.allocations) / n;
  values["tensor.matmul_mflop_per_step"] =
      static_cast<double>(replay.flops) / n / 1e6;

  ledger.Print("train_dar ledger: traced step p50 by layer", "ms");
  std::printf("tracing overhead: traced p50 %.4f ms - untraced p50 %.4f ms = "
              "%.4f ms\n",
              traced_p50_ms, untraced_p50_ms, values["trace.overhead_ms"]);
  spans.WriteJsonl(options.workdir + "/spans.jsonl");
  return PrintResult(correct, attempted, failed,
                     NamedMetrics(PerLayerMetricNames(), values));
}

}  // namespace e2e
}  // namespace dar

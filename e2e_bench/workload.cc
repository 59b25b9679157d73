#include "workload.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <unordered_set>

#include "datasets/synthetic_review.h"
#include "net/http.h"

extern char** environ;

namespace dar {
namespace e2e {

namespace {

/// The served model's and train_dar's training seed (the standard bench
/// seed); the quality set's own seed.
constexpr uint64_t kTrainSeed = 42;
constexpr uint64_t kQualitySeed = 7;
constexpr int64_t kQualitySetSize = 512;

void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload predict_unique|predict_repeat|train_dar "
               "--seed N --seconds N --trace 0|1 [--workdir DIR]\n",
               argv0);
}

}  // namespace

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      PrintUsage(argv[0]);
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--role") {
      options->role = value;
    } else if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--workdir") {
      options->workdir = value;
    } else if (flag == "--out") {
      options->out = value;
    } else if (flag == "--ckpt") {
      options->ckpt = value;
    } else if (flag == "--port") {
      options->port = std::atoi(value.c_str());
    } else {
      PrintUsage(argv[0]);
      return false;
    }
  }
  if (options->seconds < 1) {
    PrintUsage(argv[0]);
    return false;
  }
  return true;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

core::TrainConfig ServedConfig(float annotation_sparsity) {
  core::TrainConfig config;
  config.seed = kTrainSeed;
  config.batch_size = 32;
  config.lr = 2e-3f;
  config.epochs = 8;
  config.pretrain_epochs = 4;
  return config.WithSparsityTarget(annotation_sparsity);
}

datasets::SyntheticDataset ServedDataset() {
  return datasets::MakeBeerDataset(datasets::BeerAspect::kAppearance,
                                   {.train = 400, .dev = 100, .test = 120},
                                   kTrainSeed);
}

datasets::SyntheticDataset TrainDarDataset() {
  return datasets::MakeBeerDataset(datasets::BeerAspect::kAroma,
                                   {.train = 800, .dev = 160, .test = 250},
                                   kTrainSeed);
}

core::TrainConfig TrainDarConfig(float annotation_sparsity) {
  core::TrainConfig config;
  config.seed = kTrainSeed;
  config.batch_size = 64;
  config.lr = 1e-3f;
  config.epochs = 9;
  config.pretrain_epochs = 5;
  return config.WithSparsityTarget(annotation_sparsity);
}

datasets::SyntheticDataset AppearanceVocabulary() {
  datasets::SyntheticDataset dataset;
  dataset.config =
      datasets::BeerReviewConfig(datasets::BeerAspect::kAppearance);
  datasets::SyntheticReviewGenerator(dataset.config, kTrainSeed)
      .BuildVocabulary(dataset.vocab, dataset.family);
  return dataset;
}

uint64_t ParameterChecksum(core::RationalizerBase& model) {
  uint64_t hash = 1469598103934665603ULL;
  for (const nn::NamedModule& module : model.CheckpointModules()) {
    for (const nn::NamedParameter& p : module.module->Parameters()) {
      const Tensor& value = p.variable.value();
      const auto* bytes = reinterpret_cast<const unsigned char*>(value.data());
      const size_t n = static_cast<size_t>(value.numel()) * sizeof(float);
      for (size_t i = 0; i < n; ++i) {
        hash = (hash ^ bytes[i]) * 1099511628211ULL;
      }
    }
  }
  return hash;
}

bool FilesEqual(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  std::string ca((std::istreambuf_iterator<char>(fa)),
                 std::istreambuf_iterator<char>());
  std::string cb((std::istreambuf_iterator<char>(fb)),
                 std::istreambuf_iterator<char>());
  return !ca.empty() && ca == cb;
}

std::vector<Review> MakeReviews(uint64_t seed, int64_t count) {
  const datasets::SyntheticDataset vocab_source = AppearanceVocabulary();
  const data::Vocabulary& vocab = vocab_source.vocab;
  datasets::SyntheticReviewGenerator generator(vocab_source.config, seed);
  Pcg32 rng(seed, /*stream=*/0xc0de);
  std::vector<Review> reviews;
  reviews.reserve(static_cast<size_t>(count));
  std::unordered_set<std::string> seen;
  while (static_cast<int64_t>(reviews.size()) < count) {
    const int64_t label = static_cast<int64_t>(reviews.size() % 2);
    data::Example example =
        generator.MakeExample(vocab, label, /*annotate=*/true, rng);
    Review review;
    for (int64_t id : example.tokens) {
      if (!review.text.empty()) review.text += ' ';
      review.text += vocab.Token(id);
    }
    // Distinct texts only: the unique workload promises every request
    // misses the encoder tier.
    if (!seen.insert(review.text).second) continue;
    review.label = example.label;
    review.rationale = std::move(example.rationale);
    reviews.push_back(std::move(review));
  }
  return reviews;
}

std::vector<Review> QualityReviews() {
  return MakeReviews(kQualitySeed, kQualitySetSize);
}

uint64_t CorpusSeed(const std::string& workload, uint64_t seed) {
  uint64_t hash = 1469598103934665603ULL;
  for (char c : workload) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return hash ^ (seed * 0x9e3779b97f4a7c15ULL);
}

std::string PredictBody(const std::string& text) {
  return net::JsonValue::Object().Set("text", net::JsonValue::Str(text)).Dump();
}

void QualityScorer::Add(const std::vector<uint8_t>& mask,
                        const std::vector<uint8_t>& gold,
                        int64_t predicted_label, int64_t gold_label) {
  for (size_t t = 0; t < mask.size(); ++t) {
    const bool selected = mask[t] != 0;
    if (selected) selected_ += 1.0;
    if (!gold.empty()) {
      const bool is_gold = gold[t] != 0;
      if (is_gold) gold_ += 1.0;
      if (selected && is_gold) overlap_ += 1.0;
    }
  }
  if (predicted_label == gold_label) ++correct_labels_;
  ++labels_;
}

float QualityScorer::precision() const {
  return selected_ > 0.0 ? static_cast<float>(overlap_ / selected_) : 0.0f;
}

float QualityScorer::recall() const {
  return gold_ > 0.0 ? static_cast<float>(overlap_ / gold_) : 0.0f;
}

float QualityScorer::f1() const {
  const float p = precision();
  const float r = recall();
  return (p + r) > 0.0f ? 2.0f * p * r / (p + r) : 0.0f;
}

double QualityScorer::label_accuracy() const {
  return labels_ > 0 ? static_cast<double>(correct_labels_) /
                           static_cast<double>(labels_)
                     : 0.0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::vector<double> FastestOfTrials(
    const std::vector<std::vector<double>>& trials) {
  if (trials.empty()) return {};
  std::vector<double> fastest = trials.front();
  for (const std::vector<double>& trial : trials) {
    if (trial.size() != fastest.size()) return {};
    for (size_t i = 0; i < trial.size(); ++i) {
      fastest[i] = std::min(fastest[i], trial[i]);
    }
  }
  return fastest;
}

Child::Child(const std::vector<std::string>& args, bool pipes) {
  std::vector<std::string> argv_storage;
  argv_storage.push_back("/proc/self/exe");
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  int in_pipe[2] = {-1, -1};   // parent writes, child reads (stdin)
  int out_pipe[2] = {-1, -1};  // child writes (stdout), parent reads
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (pipes) {
    if (pipe2(in_pipe, O_CLOEXEC) != 0 || pipe2(out_pipe, O_CLOEXEC) != 0) {
      posix_spawn_file_actions_destroy(&actions);
      return;
    }
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  }
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  if (pipes) {
    close(in_pipe[0]);
    close(out_pipe[1]);
    if (rc == 0) {
      to_child_ = fdopen(in_pipe[1], "w");
      from_child_ = fdopen(out_pipe[0], "r");
    } else {
      close(in_pipe[1]);
      close(out_pipe[0]);
    }
  }
  if (rc == 0) pid_ = pid;
}

Child::~Child() {
  if (to_child_ != nullptr) std::fclose(to_child_);
  if (from_child_ != nullptr) std::fclose(from_child_);
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
}

bool Child::ReadLine(std::string* line) {
  if (from_child_ == nullptr) return false;
  line->clear();
  int c;
  while ((c = std::fgetc(from_child_)) != EOF) {
    if (c == '\n') return true;
    line->push_back(static_cast<char>(c));
  }
  return !line->empty();
}

bool Child::WriteLine(const std::string& line) {
  if (to_child_ == nullptr) return false;
  return std::fprintf(to_child_, "%s\n", line.c_str()) > 0 &&
         std::fflush(to_child_) == 0;
}

bool Child::Wait() {
  if (pid_ <= 0) return false;
  if (to_child_ != nullptr) {
    std::fclose(to_child_);
    to_child_ = nullptr;
  }
  int status = 0;
  const pid_t rc = waitpid(pid_, &status, 0);
  pid_ = -1;
  return rc > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

const std::vector<std::pair<std::string, std::string>>& EndToEndMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"setup_s", "s"},   {"p50_ms", "ms"},        {"rationale_f1", "%"},
      {"label_acc", "%"}, {"peak_rss_mb", "MiB"},
  };
  return kNames;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      // Predict ledger rows (sum to trace.p50_ms) and the forward subtotal.
      {"net.socket_us", "us"},
      {"net.router_us", "us"},
      {"serve.batcher_us", "us"},
      {"serve.encode_us", "us"},
      {"serve.forward_us", "us"},
      {"core.gen_encoder_us", "us"},
      {"core.pred_encoder_us", "us"},
      {"core.select_us", "us"},
      {"core.head_us", "us"},
      {"serve.forward_residual_us", "us"},
      {"ledger.residual_us", "us"},
      // Predict counters over the traced phase.
      {"serve.batch_size_mean", "count"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.cache_evictions_per_req", "count"},
      {"proc.vcsw_per_req", "count"},
      {"proc.cpu_us_per_req", "us"},
      {"alloc.per_req", "count"},
      {"tensor.matmul_mflop_per_req", "MFLOP"},
      // train_dar: setup, the step ledger (sums to trace.p50_ms) and what
      // runs outside the step.
      {"core.prepare_s", "s"},
      {"data.batch_ms", "ms"},
      {"core.train_forward_ms", "ms"},
      {"autograd.backward_ms", "ms"},
      {"optim.clip_ms", "ms"},
      {"optim.adam_ms", "ms"},
      {"train.step_residual_ms", "ms"},
      {"eval.dev_eval_ms", "ms"},
      {"alloc.per_step", "count"},
      {"tensor.matmul_mflop_per_step", "MFLOP"},
      // Every workload: the traced p50 the ledger sums to, and what tracing
      // cost (traced minus untraced p50_ms).
      {"trace.p50_ms", "ms"},
      {"trace.overhead_ms", "ms"},
  };
  return kNames;
}

std::vector<Metric> NamedMetrics(
    const std::vector<std::pair<std::string, std::string>>& names,
    const std::map<std::string, double>& values) {
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : names) {
    auto it = values.find(name);
    metrics.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
  return metrics;
}

int PrintResult(bool correct, int64_t attempted, int64_t failed,
                const std::vector<Metric>& metrics,
                const std::vector<Metric>& reported) {
  std::printf("\n%-32s %18s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-32s %18.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!std::isfinite(m.value)) correct = false;
  }
  for (const Metric& m : reported) {
    std::printf("%-32s %18.6f  %s  (reported, not in the result line)\n",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %lld, failed %lld, correct %s\n",
              static_cast<long long>(attempted),
              static_cast<long long>(failed), correct ? "true" : "false");
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace e2e
}  // namespace dar

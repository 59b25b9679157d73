// Shared pieces of the end-to-end benchmark: command-line options, the
// fixed training profiles, request corpora, the quality scorer, the
// percentile helper, child processes and the result line.
#ifndef DAR_E2E_BENCH_WORKLOAD_H_
#define DAR_E2E_BENCH_WORKLOAD_H_

#include <sys/types.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/rationalizer.h"
#include "core/train_config.h"
#include "datasets/beer.h"

namespace dar {
namespace e2e {

/// Parsed command line. `role` selects what this process is: the
/// benchmark proper ("bench"), the served model's trainer
/// ("train-served"), or the predict load generator ("load").
struct Options {
  std::string role = "bench";
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory for checkpoints and the span log (inside the
  /// checkout; run.py passes it).
  std::string workdir = ".";
  // Child-role arguments.
  std::string out;
  std::string ckpt;
  int port = 0;
};

/// Parses argv; returns false (after printing usage) on a bad command line.
bool ParseOptions(int argc, char** argv, Options* options);

/// Nanoseconds on the steady clock.
int64_t NowNs();

// ---- Fixed training profiles ------------------------------------------------

/// The served model: DAR on synthetic Beer-Appearance with the quick bench
/// profile (400/100/120 splits, batch 32, lr 2e-3, 8 epochs, 4 pretrain
/// epochs, seed 42). Fixed — independent of --seed — so served quality
/// repeats exactly across runs.
core::TrainConfig ServedConfig(float annotation_sparsity);
/// The served model's dataset (also the source of its vocabulary).
datasets::SyntheticDataset ServedDataset();

/// train_dar: DAR on synthetic Beer-Aroma with the standard bench profile
/// (800/160/250 splits, batch 64, lr 1e-3, 9 epochs, 5 pretrain epochs,
/// seed 42) — the paper's protocol, fixed like the served profile.
datasets::SyntheticDataset TrainDarDataset();
core::TrainConfig TrainDarConfig(float annotation_sparsity);

/// Vocabulary and embedding families of the Beer-Appearance generator,
/// without generating any examples (they depend on the config only).
datasets::SyntheticDataset AppearanceVocabulary();

/// FNV-1a digest over every checkpointed parameter's float bits.
uint64_t ParameterChecksum(core::RationalizerBase& model);

/// Byte-for-byte file comparison (false when either cannot be read).
bool FilesEqual(const std::string& a, const std::string& b);

// ---- Request corpora ---------------------------------------------------------

/// One annotated review: its text as a client sends it, gold label and
/// gold per-token rationale.
struct Review {
  std::string text;
  int64_t label = 0;
  std::vector<uint8_t> rationale;
};

/// `count` distinct annotated Beer-Appearance reviews drawn from `seed`.
/// The same seed always yields the same reviews.
std::vector<Review> MakeReviews(uint64_t seed, int64_t count);

/// The fixed quality set every predict run scores: seeded independently of
/// --seed so rationale_f1 and label_acc repeat exactly.
std::vector<Review> QualityReviews();

/// Seed of a workload's request stream, derived from --seed and the
/// workload name (separate from the served model's training seed).
uint64_t CorpusSeed(const std::string& workload, uint64_t seed);

/// Reviews in the repeat workload's hot set.
constexpr int64_t kHotSetSize = 64;

/// {"text": "..."}: the predict request body.
std::string PredictBody(const std::string& text);

// ---- Scoring -----------------------------------------------------------------

/// Token-level rationale overlap and label accuracy, pooled over requests
/// (micro-averaged, like eval::RationaleMetricsAccumulator, whose
/// arithmetic it reproduces so the two agree exactly on the same masks).
class QualityScorer {
 public:
  /// `mask` and `gold` are aligned per token; an empty `gold` (no
  /// annotation) contributes to precision's denominator only.
  void Add(const std::vector<uint8_t>& mask, const std::vector<uint8_t>& gold,
           int64_t predicted_label, int64_t gold_label);

  float precision() const;
  float recall() const;
  float f1() const;
  /// Share of requests whose served label equals the gold label.
  double label_accuracy() const;

 private:
  double selected_ = 0.0;
  double gold_ = 0.0;
  double overlap_ = 0.0;
  int64_t correct_labels_ = 0;
  int64_t labels_ = 0;
};

/// Nearest-rank percentile (p in (0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Elementwise minimum over trials: `trials[k][i]` is how long part i of
/// identical trial k took, and entry i of the result is part i's fastest
/// time. Empty when there are no trials or their lengths differ.
std::vector<double> FastestOfTrials(
    const std::vector<std::vector<double>>& trials);

// ---- Child processes ---------------------------------------------------------

/// A child running this same binary in another role. The destructor kills
/// and reaps a child that was not waited for, so no exit path leaves one
/// behind.
class Child {
 public:
  /// Starts `/proc/self/exe args...`. With `pipes`, the child's stdin and
  /// stdout are connected to WriteLine() / ReadLine().
  Child(const std::vector<std::string>& args, bool pipes);
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Reads one line from the child's stdout (without the newline); false
  /// at end of stream.
  bool ReadLine(std::string* line);
  /// Writes one line to the child's stdin.
  bool WriteLine(const std::string& line);
  /// Waits for exit; true when the child exited with status 0.
  bool Wait();

 private:
  pid_t pid_ = -1;
  std::FILE* to_child_ = nullptr;
  std::FILE* from_child_ = nullptr;
};

// ---- Output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// (name, unit) of every end-to-end metric, printed by --trace 0 runs of
/// every workload. Must match BENCHMARK.json's end_to_end list.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetricNames();

/// (name, unit) of every per-layer metric, printed by --trace 1 runs of
/// every workload; a layer the workload does not run reads 0. Must match
/// BENCHMARK.json's per_layer list.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetricNames();

/// `names` in order, valued from `values` (0 where absent).
std::vector<Metric> NamedMetrics(
    const std::vector<std::pair<std::string, std::string>>& names,
    const std::map<std::string, double>& values);

/// Prints the human-readable metric table, then the JSON result as the last
/// line: {"correct", "attempted", "failed", "metrics"}.
/// `reported` metrics appear in the table only (see README.md on
/// throughput_per_s and p90_ms).
/// A non-finite value makes the run incorrect (and prints as 0). Returns
/// the exit code: 0 when correct, 1 otherwise.
int PrintResult(bool correct, int64_t attempted, int64_t failed,
                const std::vector<Metric>& metrics,
                const std::vector<Metric>& reported = {});

/// Peak resident set of this process, MiB (getrusage ru_maxrss).
double PeakRssMb();

/// Lowest served or test-split rationale F1 (%) a run accepts: the quick
/// profile serves ~87 and the standard protocol scores ~71, while a
/// collapsed generator scores ~0.
constexpr double kMinRationaleF1 = 50.0;

// ---- Entry points (one per role / workload family) ---------------------------

/// Trains the served model and writes its checkpoint to options.out.
int RunTrainServed(const Options& options);
/// The predict load generator (a child of RunPredict).
int RunLoad(const Options& options);
/// predict_unique / predict_repeat.
int RunPredict(const Options& options);
/// train_dar.
int RunTrainDar(const Options& options);

}  // namespace e2e
}  // namespace dar

#endif  // DAR_E2E_BENCH_WORKLOAD_H_

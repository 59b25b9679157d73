// Shared scaffolding for the paper-reproduction bench binaries.
//
// Every bench accepts:
//   --quick     smaller datasets / fewer epochs (CI-sized)
//   --seed N    master seed (default 42)
// and prints the paper table it reproduces alongside the measured values.
#ifndef DAR_BENCH_BENCH_COMMON_H_
#define DAR_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/train_config.h"
#include "datasets/beer.h"
#include "datasets/hotel.h"
#include "eval/experiment.h"
#include "eval/table.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dar {
namespace bench {

/// Command-line options shared by all benches.
struct BenchOptions {
  bool quick = false;
  uint64_t seed = 42;

  static BenchOptions Parse(int argc, char** argv) {
    BenchOptions options;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--quick") == 0) {
        options.quick = true;
      } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
        options.seed = std::strtoull(argv[++i], nullptr, 10);
      } else if (std::strcmp(argv[i], "--help") == 0) {
        std::printf("usage: %s [--quick] [--seed N]\n", argv[0]);
        std::exit(0);
      }
    }
    // The environment knob lets `for b in build/bench/*; do $b; done` run
    // the quick profile without editing the loop.
    if (const char* env = std::getenv("DAR_BENCH_QUICK");
        env != nullptr && env[0] != '0') {
      options.quick = true;
    }
    return options;
  }

  datasets::SplitSizes sizes() const {
    if (quick) return {.train = 400, .dev = 100, .test = 120};
    return {.train = 800, .dev = 160, .test = 250};
  }

  core::TrainConfig config() const {
    core::TrainConfig config;
    config.seed = seed;
    config.epochs = quick ? 8 : 9;
    config.pretrain_epochs = quick ? 4 : 5;
    if (quick) {
      // Keep the optimizer step count up on the smaller dataset.
      config.batch_size = 32;
      config.lr = 2e-3f;
    }
    return config;
  }
};

/// Prints the standard bench banner.
inline void PrintHeader(const char* title, const char* paper_ref,
                        const BenchOptions& options) {
  std::printf("=== %s ===\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("profile=%s seed=%llu\n\n", options.quick ? "quick" : "standard",
              static_cast<unsigned long long>(options.seed));
  std::fflush(stdout);
}

/// Adds the standard S/Acc/P/R/F1 row for a method result.
inline void AddResultRow(eval::TablePrinter& table, const std::string& label,
                         const eval::MethodResult& result,
                         bool accuracy_applicable = true) {
  table.AddRow({label, eval::FormatPercent(result.rationale.sparsity),
                accuracy_applicable ? eval::FormatPercent(result.rationale_acc)
                                    : std::string("N/A"),
                eval::FormatPercent(result.rationale.precision),
                eval::FormatPercent(result.rationale.recall),
                eval::FormatPercent(result.rationale.f1)});
}

/// Assembles a BENCH_*.json record on top of the obs JSONL exporter.
///
/// Scalar fields and a raw `results` array come from the bench itself;
/// Write() then flushes the thread-local span buffers and appends every
/// `span.*` histogram of the global registry (one exporter line each) as
/// the `"spans"` array — so any bench that runs under
/// obs::SetTraceLevel(kCoarse or kDetailed) records its phase timings
/// alongside the numbers it measures.
class BenchJsonWriter {
 public:
  BenchJsonWriter(const std::string& name, const BenchOptions& options) {
    Field("bench", name);
    Field("profile", options.quick ? "quick" : "standard");
    Field("seed", static_cast<int64_t>(options.seed));
  }

  void Field(const std::string& name, const std::string& value) {
    fields_.push_back("\"" + name + "\": \"" + value + "\"");
  }
  void Field(const std::string& name, const char* value) {
    Field(name, std::string(value));
  }
  void Field(const std::string& name, int64_t value) {
    fields_.push_back("\"" + name + "\": " + std::to_string(value));
  }
  void Field(const std::string& name, double value, int precision = 4) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    fields_.push_back("\"" + name + "\": " + buf);
  }
  /// `json` must be a complete JSON value (typically the results array).
  void RawField(const std::string& name, const std::string& json) {
    fields_.push_back("\"" + name + "\": " + json);
  }

  bool Write(const std::string& path) {
    obs::FlushThreadSpans();
    std::string spans;
    std::string jsonl = obs::MetricsRegistry::Global().ExportJsonl();
    size_t start = 0;
    while (start < jsonl.size()) {
      size_t end = jsonl.find('\n', start);
      if (end == std::string::npos) end = jsonl.size();
      std::string line = jsonl.substr(start, end - start);
      if (line.find("\"name\":\"span.") != std::string::npos) {
        if (!spans.empty()) spans += ",\n    ";
        spans += line;
      }
      start = end + 1;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n");
    for (const std::string& field : fields_) {
      std::fprintf(f, "  %s,\n", field.c_str());
    }
    std::fprintf(f, "  \"spans\": [\n    %s\n  ]\n}\n", spans.c_str());
    std::fclose(f);
    return true;
  }

 private:
  std::vector<std::string> fields_;
};

/// One arm's repeated reading: the median, and the rep-to-rep spread
/// ((max - min) / |median|, percent) that says how far it can be trusted.
struct ArmStats {
  double median = 0.0;
  double spread_pct = 0.0;
};

/// Runs every arm for `rounds` rounds, each round taking one rep of every
/// arm in order, and returns each arm's median and spread. Interleaving
/// puts slow machine drift (thermal, co-tenants) on every arm alike
/// instead of on whichever arm ran last. An arm returns one rep's reading:
/// a rate, a per-operation cost, or a paired difference of two costs.
inline std::vector<ArmStats> MeasureInterleaved(
    const std::vector<std::function<double()>>& arms, int rounds) {
  std::vector<std::vector<double>> reps(arms.size());
  for (int round = 0; round < rounds; ++round) {
    for (size_t a = 0; a < arms.size(); ++a) reps[a].push_back(arms[a]());
  }
  std::vector<ArmStats> stats;
  for (std::vector<double>& r : reps) {
    std::sort(r.begin(), r.end());
    ArmStats arm;
    arm.median = r[r.size() / 2];
    if (arm.median != 0.0) {
      arm.spread_pct = (r.back() - r.front()) / std::fabs(arm.median) * 100.0;
    }
    stats.push_back(arm);
  }
  return stats;
}

/// Trains `method` on `dataset` with the sparsity target matched to the
/// gold annotation level (the paper's protocol) and returns the result.
inline eval::MethodResult RunMethod(const std::string& method,
                                    const datasets::SyntheticDataset& dataset,
                                    const core::TrainConfig& base_config,
                                    bool verbose = false) {
  core::TrainConfig config =
      base_config.WithSparsityTarget(dataset.AnnotationSparsity());
  auto model = eval::MakeMethod(method, dataset, config);
  return eval::TrainAndEvaluate(*model, dataset, verbose);
}

}  // namespace bench
}  // namespace dar

#endif  // DAR_BENCH_BENCH_COMMON_H_

// End-to-end benchmark of the DAR reproduction: one workload per run.
//
//   e2e_bench --workload predict_unique|predict_repeat|train_dar
//             --seed N --seconds N --trace 0|1 [--workdir DIR]
//
// The last stdout line is the JSON result: end-to-end metrics with
// --trace 0, the per-layer ledger with --trace 1 (which needs the
// e2e_bench_traced binary). Exits non-zero when any correctness check
// fails. See README.md for the workloads and metrics.
#include <cstdio>

#include "alloc_count.h"
#include "workload.h"

int main(int argc, char** argv) {
  using namespace dar::e2e;
  Options options;
  if (!ParseOptions(argc, argv, &options)) return 2;
  if (options.role == "train-served") return RunTrainServed(options);
  if (options.role == "load") return RunLoad(options);
  if (options.role != "bench") return 2;
  if (options.trace && !AllocationCountingAvailable()) {
    std::fprintf(stderr, "--trace 1 runs need the e2e_bench_traced binary\n");
    return 2;
  }
  if (options.workload == "train_dar") return RunTrainDar(options);
  if (options.workload == "predict_unique" ||
      options.workload == "predict_repeat") {
    return RunPredict(options);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
  return 2;
}

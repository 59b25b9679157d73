// Training parity oracle: trains the model zoo on one small fixed dataset
// and prints one line per run, so that two builds can be compared with
// `diff`. A change that must not move a trained bit prints exactly the
// lines its parent prints.
//
//   ./build/bench/parity > after.txt     # the same binary of the parent
//   diff before.txt after.txt            # build gives before.txt
//
// Each line is `config method checksum f1`. The checksum is FNV-1a over the
// bytes of every parameter of every checkpoint module (the deployed model),
// in CheckpointModules order; f1 is the test-set rationale F1 in percent.
// The dataset is Beer-Aroma 256/64/64, seed 11; every run trains 2 epochs
// with 1 pretraining epoch. Configs:
//   b32_t1     all 12 methods, batch 32, 1 kernel thread;
//   b64_t4     all 12 methods, batch 64, 4 kernel threads (the packed GEMM
//              fans out; its partition is fixed, so the bits must not move);
//   tf_b32_t1  RNP, DAR, VIB and SPECTRA with the Transformer encoder,
//              which runs nn::Linear and the attention ops.
// 28 lines; about 16 s in Release on one core of a 4-thread host.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/train_config.h"
#include "datasets/beer.h"
#include "eval/experiment.h"

namespace {

using namespace dar;

uint64_t ParameterChecksum(core::RationalizerBase& model) {
  uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  for (const nn::NamedModule& module : model.CheckpointModules()) {
    for (const nn::NamedParameter& p : module.module->Parameters()) {
      const Tensor& value = p.variable.value();
      const auto* bytes = reinterpret_cast<const unsigned char*>(value.data());
      const size_t n = static_cast<size_t>(value.numel()) * sizeof(float);
      for (size_t i = 0; i < n; ++i) {
        hash = (hash ^ bytes[i]) * 1099511628211ull;  // FNV-1a prime
      }
    }
  }
  return hash;
}

void Run(const char* config_name, const std::string& method,
         const datasets::SyntheticDataset& dataset,
         const core::TrainConfig& config) {
  auto model = eval::MakeMethod(method, dataset, config);
  const eval::MethodResult result = eval::TrainAndEvaluate(*model, dataset);
  std::printf("%s %s %016llx %.6f\n", config_name, method.c_str(),
              static_cast<unsigned long long>(ParameterChecksum(*model)),
              100.0 * result.rationale.f1);
  std::fflush(stdout);
}

}  // namespace

int main() {
  const datasets::SyntheticDataset dataset = datasets::MakeBeerDataset(
      datasets::BeerAspect::kAroma, {.train = 256, .dev = 64, .test = 64},
      /*seed=*/11);
  core::TrainConfig base;
  base.seed = 11;
  base.epochs = 2;
  base.pretrain_epochs = 1;
  base = base.WithSparsityTarget(dataset.AnnotationSparsity());

  const std::vector<std::string> methods = {
      "RNP", "DAR",     "DMR", "A2R",     "Inter_RAT", "CAR",
      "3PLAYER", "VIB", "SPECTRA", "RNP*", "A2R*",   "DAR-cotrained"};
  struct GruConfig {
    const char* name;
    int64_t batch_size;
    int kernel_threads;
  };
  for (const GruConfig& c : {GruConfig{"b32_t1", 32, 1},
                             GruConfig{"b64_t4", 64, 4}}) {
    core::TrainConfig config = base;
    config.batch_size = c.batch_size;
    config.kernel_threads = c.kernel_threads;
    for (const std::string& method : methods) {
      Run(c.name, method, dataset, config);
    }
  }

  core::TrainConfig transformer = base;
  transformer.batch_size = 32;
  transformer.kernel_threads = 1;
  transformer.encoder = core::EncoderKind::kTransformer;
  transformer.transformer.dim = 32;
  transformer.transformer.num_heads = 2;
  transformer.transformer.ffn_dim = 64;
  transformer.transformer.num_layers = 2;
  transformer.transformer.max_len = 96;
  for (const char* method : {"RNP", "DAR", "VIB", "SPECTRA"}) {
    Run("tf_b32_t1", method, dataset, transformer);
  }
  return 0;
}

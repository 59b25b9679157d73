// GEMM kernel-layer bench: blocked/packed kernel vs the seed naive matmul.
//
// Measures, per encoder-relevant shape class and per transpose variant:
//   * GFLOP/s of the blocked kernel (tensor/gemm.h),
//   * speedup over the seed repo's naive kernel (reproduced below verbatim,
//     zero-skip branch included), and
//   * thread scaling at 256x256x256 (single-core containers will honestly
//     record ~1x, like train_scaling does).
// Timings are medians of interleaved reps, with spreads (MeasureInterleaved).
//
// Emits BENCH_gemm.json. The headline field `speedup_256cubed` (blocked vs
// seed-naive at 256x256x256, single-threaded) is the one CI smoke-greps.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "tensor/gemm.h"
#include "tensor/random.h"

namespace dar {
namespace bench {
namespace {

/// The seed repo's MatMul inner loops, kept verbatim as the speedup
/// baseline: i-k-j order with the per-element zero-skip branch the kernel
/// layer removed. (GemmReference is NOT this — it is the std::fma witness;
/// the seed kernel is what the acceptance speedup is measured against.)
void SeedNaiveMatMul(int64_t m, int64_t n, int64_t k, const float* a,
                     const float* b, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      float av = a[i * k + kk];
      if (av == 0.0f) continue;
      for (int64_t j = 0; j < n; ++j) {
        c[i * n + j] += av * b[kk * n + j];
      }
    }
  }
}

/// One product's shape, its random inputs, and its output buffer.
struct Product {
  Product(gemm::Trans trans, int64_t m, int64_t n, int64_t k)
      : trans(trans), m(m), n(n), k(k), a(static_cast<size_t>(m * k)),
        b(static_cast<size_t>(k * n)), c(static_cast<size_t>(m * n)) {
    Pcg32 rng(1234 + m + n + k);
    for (float& x : a) x = rng.NextFloat() * 2.0f - 1.0f;
    for (float& x : b) x = rng.NextFloat() * 2.0f - 1.0f;
  }

  /// Runs the seed kernel (`naive`) or the blocked one once into a zeroed
  /// output and returns its wall time in ms. The seed kernel only ever
  /// implemented the NN orientation; the equivalent-cost NN product stands
  /// in for TA/TB rows.
  double RepMs(bool naive) {
    std::fill(c.begin(), c.end(), 0.0f);
    const auto start = std::chrono::steady_clock::now();
    if (naive) {
      SeedNaiveMatMul(m, n, k, a.data(), b.data(), c.data());
    } else {
      gemm::Gemm(trans, m, n, k, a.data(), b.data(), c.data());
    }
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

  gemm::Trans trans;
  int64_t m, n, k;
  std::vector<float> a, b, c;
};

struct ShapeResult {
  std::string label;
  int64_t m, n, k;
  ArmStats naive_ms;
  ArmStats blocked_ms;
  double gflops;   // blocked kernel throughput
  double speedup;  // naive_ms / blocked_ms (medians)
};

/// Times one shape: the naive and blocked kernels as two interleaved arms
/// on identical inputs, `reps` rounds.
ShapeResult TimeShape(const std::string& label, gemm::Trans trans, int64_t m,
                      int64_t n, int64_t k, int reps) {
  Product product(trans, m, n, k);
  const std::vector<ArmStats> arms =
      MeasureInterleaved({[&] { return product.RepMs(/*naive=*/true); },
                          [&] { return product.RepMs(/*naive=*/false); }},
                         reps);
  ShapeResult r{label, m, n, k, arms[0], arms[1], 0.0, 0.0};
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k);
  r.gflops = flops / (r.blocked_ms.median * 1e6);
  r.speedup = r.naive_ms.median / r.blocked_ms.median;
  return r;
}

std::string ResultJson(const ShapeResult& r) {
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "{\"shape\": \"%s\", \"m\": %lld, \"n\": %lld, \"k\": %lld, "
                "\"naive_ms\": %.3f, \"naive_spread_pct\": %.1f, "
                "\"blocked_ms\": %.3f, \"blocked_spread_pct\": %.1f, "
                "\"gflops\": %.2f, \"speedup\": %.2f}",
                r.label.c_str(), static_cast<long long>(r.m),
                static_cast<long long>(r.n), static_cast<long long>(r.k),
                r.naive_ms.median, r.naive_ms.spread_pct, r.blocked_ms.median,
                r.blocked_ms.spread_pct, r.gflops, r.speedup);
  return buf;
}

}  // namespace

int Main(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  PrintHeader("GEMM kernel layer",
              "kernel substrate for all encoder forwards/backwards "
              "(supports every paper table; no table of its own)",
              options);

  const int reps = options.quick ? 3 : 7;
  gemm::SetKernelThreads(1);

  // Shape classes: the acceptance square, the encoder's flat input
  // projection, the tiny recurrent step (small-path regression guard), the
  // backward's transposed products at the acceptance size, the GRU
  // input projection at training batch size (its gate width 3H = 72 leaves
  // an 8-wide column tail that the 80-wide row does not), and BPTT's
  // per-step dh = dq · W_h^T (n = H = 24: one full panel and an 8-wide
  // tail).
  struct Case {
    const char* label;
    gemm::Trans trans;
    int64_t m, n, k;
  };
  const Case cases[] = {
      {"square_256_nn", gemm::Trans::kNN, 256, 256, 256},
      {"square_128_nn", gemm::Trans::kNN, 128, 128, 128},
      {"flat_proj_nn", gemm::Trans::kNN, 512, 96, 32},
      {"recurrent_step_nn", gemm::Trans::kNN, 64, 72, 24},
      {"backward_ta_256", gemm::Trans::kTA, 256, 256, 256},
      {"backward_tb_256", gemm::Trans::kTB, 256, 256, 256},
      {"gru_input_proj_nn", gemm::Trans::kNN, 3840, 72, 32},
      {"gru_input_proj_n80_nn", gemm::Trans::kNN, 3840, 80, 32},
      {"gru_dh_tb", gemm::Trans::kTB, 64, 24, 72},
  };

  std::string results = "[\n    ";
  double speedup_256 = 0.0;
  double gflops_256 = 0.0;
  bool first = true;
  for (const Case& cs : cases) {
    ShapeResult r = TimeShape(cs.label, cs.trans, cs.m, cs.n, cs.k, reps);
    std::printf("%s\n", ResultJson(r).c_str());
    std::fflush(stdout);
    if (!first) results += ",\n    ";
    results += ResultJson(r);
    first = false;
    if (r.label == "square_256_nn") {
      speedup_256 = r.speedup;
      gflops_256 = r.gflops;
    }
  }
  results += "\n  ]";

  // Thread scaling of the blocked kernel at the acceptance shape: each arm
  // sets its thread count before its rep, a quiesced point. Results are
  // bit-identical across worker counts (gemm.h); only latency can move.
  std::printf("\nthread scaling at 256x256x256 (total threads incl. caller):\n");
  const int thread_counts[] = {1, 2, 4};
  Product square(gemm::Trans::kNN, 256, 256, 256);
  std::vector<std::function<double()>> scaling_arms;
  for (int threads : thread_counts) {
    scaling_arms.push_back([&square, threads] {
      gemm::SetKernelThreads(threads);
      return square.RepMs(/*naive=*/false);
    });
  }
  const std::vector<ArmStats> scaled = MeasureInterleaved(scaling_arms, reps);
  gemm::SetKernelThreads(1);
  std::string scaling = "[\n    ";
  for (size_t i = 0; i < scaled.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"threads\": %d, \"blocked_ms\": %.3f, "
                  "\"blocked_spread_pct\": %.1f, \"scale\": %.2f}",
                  thread_counts[i], scaled[i].median, scaled[i].spread_pct,
                  scaled[0].median / scaled[i].median);
    std::printf("  %s\n", buf);
    if (i > 0) scaling += ",\n    ";
    scaling += buf;
  }
  scaling += "\n  ]";

  std::printf("\nheadline: blocked vs seed-naive at 256^3 = %.2fx (%.2f "
              "GFLOP/s)\n",
              speedup_256, gflops_256);

  BenchJsonWriter json("gemm", options);
  json.Field("speedup_256cubed", speedup_256, 2);
  json.Field("gflops_256cubed", gflops_256, 2);
  json.RawField("results", results);
  json.RawField("thread_scaling", scaling);
  if (!json.Write("BENCH_gemm.json")) {
    std::fprintf(stderr, "failed to write BENCH_gemm.json\n");
    return 1;
  }
  std::printf("wrote BENCH_gemm.json\n");
  return 0;
}

}  // namespace bench
}  // namespace dar

int main(int argc, char** argv) { return dar::bench::Main(argc, argv); }

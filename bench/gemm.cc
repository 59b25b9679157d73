// GEMM kernel-layer bench: blocked/packed kernel vs the seed naive matmul.
//
// Measures, per encoder-relevant shape class and per transpose variant:
//   * GFLOP/s of the blocked kernel (tensor/gemm.h), through Gemm or, for
//     the `_prepacked` rows, against a gemm::PackedB packed once,
//   * speedup over the seed repo's naive kernel (reproduced below verbatim,
//     zero-skip branch included),
//   * the small loop against the packed kernel on the same operands at
//     each orientation's dispatch crossover (`crossover`, the measurement
//     behind gemm::UsesPackedPath), and
//   * thread scaling at 256x256x256 (single-core containers will honestly
//     record ~1x, like train_scaling does), with the process CPU time per
//     product beside the wall time: CPU well above wall means the pool's
//     threads ran at once, CPU equal to wall means they took turns.
// A sample runs one arm's products back to back, as many as make it last
// at least 2 ms (0.5 ms quick; the count is calibrated once per arm and
// recorded in its row), and reads the time per product. Timings are
// medians of interleaved samples, with spreads (MeasureInterleaved).
//
// Emits BENCH_gemm.json. The headline field `speedup_256cubed` (blocked vs
// seed-naive at 256x256x256, single-threaded) is the one CI smoke-greps.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
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

  /// Runs `product` `count` times back to back, accumulating into an
  /// output zeroed before the clock starts, and returns the wall time per
  /// product in ms.
  template <typename F>
  double PerProductMs(int64_t count, F product) {
    std::fill(c.begin(), c.end(), 0.0f);
    const auto start = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < count; ++i) product();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
               .count() /
           static_cast<double>(count);
  }

  /// The seed kernel. It only ever implemented the NN orientation; the
  /// equivalent-cost NN product stands in for TA/TB rows.
  double NaiveMs(int64_t count) {
    return PerProductMs(count, [this] {
      SeedNaiveMatMul(m, n, k, a.data(), b.data(), c.data());
    });
  }

  /// The blocked kernel through Gemm, or against `packed` when set.
  double BlockedMs(int64_t count) {
    if (packed != nullptr) {
      return PerProductMs(count,
                          [this] { packed->Multiply(a.data(), c.data()); });
    }
    return PerProductMs(count, [this] {
      gemm::Gemm(trans, m, n, k, a.data(), b.data(), c.data());
    });
  }

  /// One path of Gemm, whatever its dispatch rule says.
  double PathMs(bool on_packed, int64_t count) {
    return PerProductMs(count, [this, on_packed] {
      gemm::GemmOnPath(on_packed, trans, m, n, k, a.data(), b.data(),
                       c.data());
    });
  }

  gemm::Trans trans;
  int64_t m, n, k;
  std::vector<float> a, b, c;
  std::unique_ptr<gemm::PackedB> packed;  // op(B) packed once, or none
};

/// User plus system CPU time of every thread of this process, in ms.
double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) * 1e-3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

/// Median of `samples` (sorted in place).
double Median(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Products per sample: the count, doubling from 1, at which one sample
/// of `per_product_ms` lasts at least `min_sample_ms`.
int64_t CalibrateProducts(const std::function<double(int64_t)>& per_product_ms,
                          double min_sample_ms) {
  int64_t count = 1;
  while (per_product_ms(count) * static_cast<double>(count) < min_sample_ms) {
    count *= 2;
  }
  return count;
}

struct ShapeResult {
  std::string label;
  int64_t m, n, k;
  int64_t naive_products, blocked_products;  // per sample
  ArmStats naive_ms;    // per product
  ArmStats blocked_ms;  // per product
  double gflops;   // blocked kernel throughput
  double speedup;  // naive_ms / blocked_ms (medians)
};

/// Times one shape: the naive and blocked kernels as two interleaved arms
/// on identical inputs, `reps` rounds of calibrated samples. With
/// `prepacked`, the blocked arm multiplies against op(B) packed once
/// before the clock starts, as the GRU does across a sequence.
ShapeResult TimeShape(const std::string& label, gemm::Trans trans, int64_t m,
                      int64_t n, int64_t k, bool prepacked, int reps,
                      double min_sample_ms) {
  Product product(trans, m, n, k);
  if (prepacked) {
    product.packed =
        std::make_unique<gemm::PackedB>(trans, m, n, k, product.b.data());
  }
  auto naive = [&](int64_t count) { return product.NaiveMs(count); };
  auto blocked = [&](int64_t count) { return product.BlockedMs(count); };
  const int64_t naive_products = CalibrateProducts(naive, min_sample_ms);
  const int64_t blocked_products = CalibrateProducts(blocked, min_sample_ms);
  const std::vector<ArmStats> arms =
      MeasureInterleaved({[&] { return naive(naive_products); },
                          [&] { return blocked(blocked_products); }},
                         reps);
  ShapeResult r{label, m, n, k, naive_products, blocked_products,
                arms[0], arms[1], 0.0, 0.0};
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k);
  r.gflops = flops / (r.blocked_ms.median * 1e6);
  r.speedup = r.naive_ms.median / r.blocked_ms.median;
  return r;
}

std::string ResultJson(const ShapeResult& r) {
  char buf[448];
  std::snprintf(buf, sizeof(buf),
                "{\"shape\": \"%s\", \"m\": %lld, \"n\": %lld, \"k\": %lld, "
                "\"naive_products\": %lld, \"naive_ms\": %.6f, "
                "\"naive_spread_pct\": %.1f, \"blocked_products\": %lld, "
                "\"blocked_ms\": %.6f, \"blocked_spread_pct\": %.1f, "
                "\"gflops\": %.2f, \"speedup\": %.2f}",
                r.label.c_str(), static_cast<long long>(r.m),
                static_cast<long long>(r.n), static_cast<long long>(r.k),
                static_cast<long long>(r.naive_products), r.naive_ms.median,
                r.naive_ms.spread_pct,
                static_cast<long long>(r.blocked_products),
                r.blocked_ms.median, r.blocked_ms.spread_pct, r.gflops,
                r.speedup);
  return buf;
}

const char* TransName(gemm::Trans trans) {
  switch (trans) {
    case gemm::Trans::kNN: return "nn";
    case gemm::Trans::kTA: return "ta";
    case gemm::Trans::kTB: return "tb";
  }
  return "?";
}

/// Times the small loop against the packed kernel on one shape (two
/// interleaved arms on identical inputs) and records which one
/// gemm::UsesPackedPath picks there.
std::string CrossoverJson(gemm::Trans trans, int64_t m, int64_t n, int64_t k,
                          int reps, double min_sample_ms) {
  Product product(trans, m, n, k);
  auto small = [&](int64_t count) { return product.PathMs(false, count); };
  auto packed = [&](int64_t count) { return product.PathMs(true, count); };
  const int64_t small_products = CalibrateProducts(small, min_sample_ms);
  const int64_t packed_products = CalibrateProducts(packed, min_sample_ms);
  const std::vector<ArmStats> arms =
      MeasureInterleaved({[&] { return small(small_products); },
                          [&] { return packed(packed_products); }},
                         reps);
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "{\"trans\": \"%s\", \"m\": %lld, \"n\": %lld, "
                "\"k\": %lld, \"small_ms\": %.6f, \"small_spread_pct\": "
                "%.1f, \"packed_ms\": %.6f, \"packed_spread_pct\": %.1f, "
                "\"rule\": \"%s\"}",
                TransName(trans), static_cast<long long>(m),
                static_cast<long long>(n), static_cast<long long>(k),
                arms[0].median, arms[0].spread_pct, arms[1].median,
                arms[1].spread_pct,
                gemm::UsesPackedPath(trans, m, n, k) ? "packed" : "small");
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
  const double min_sample_ms = options.quick ? 0.5 : 2.0;
  gemm::SetKernelThreads(1);

  // Shape classes: the acceptance square, the encoder's flat input
  // projection, the recurrent step, the backward's transposed products at
  // the acceptance size, the GRU input projection at training batch size
  // (its gate width 3H = 72 leaves an 8-wide column tail that the 80-wide
  // row does not), BPTT's per-step dh = dq · W_h^T (n = H = 24: one full
  // panel and an 8-wide tail) at batch 64 and at the served model's 32,
  // and the two recurrent products against W_h packed once per sequence.
  struct Case {
    const char* label;
    gemm::Trans trans;
    int64_t m, n, k;
    bool prepacked;
  };
  const Case cases[] = {
      {"square_256_nn", gemm::Trans::kNN, 256, 256, 256, false},
      {"square_128_nn", gemm::Trans::kNN, 128, 128, 128, false},
      {"flat_proj_nn", gemm::Trans::kNN, 512, 96, 32, false},
      {"recurrent_step_nn", gemm::Trans::kNN, 64, 72, 24, false},
      {"backward_ta_256", gemm::Trans::kTA, 256, 256, 256, false},
      {"backward_tb_256", gemm::Trans::kTB, 256, 256, 256, false},
      {"gru_input_proj_nn", gemm::Trans::kNN, 3840, 72, 32, false},
      {"gru_input_proj_n80_nn", gemm::Trans::kNN, 3840, 80, 32, false},
      {"gru_dh_tb", gemm::Trans::kTB, 64, 24, 72, false},
      {"gru_dh_tb_b32", gemm::Trans::kTB, 32, 24, 72, false},
      {"recurrent_step_nn_prepacked", gemm::Trans::kNN, 64, 72, 24, true},
      {"gru_dh_tb_prepacked", gemm::Trans::kTB, 64, 24, 72, true},
  };

  std::string results = "[\n    ";
  double speedup_256 = 0.0;
  double gflops_256 = 0.0;
  bool first = true;
  for (const Case& cs : cases) {
    ShapeResult r = TimeShape(cs.label, cs.trans, cs.m, cs.n, cs.k,
                              cs.prepacked, reps, min_sample_ms);
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

  // The NN and TA crossovers at the GRU widths (H = 24, 3H = 72, E = 32):
  // NN's recurrent step h · W_h and input projection x · W_x by batch rows,
  // TA's dW_h = h^T · dq by batch (its reduction length). TB has no small
  // loop left to time.
  std::printf("\nsmall loop vs packed kernel at the dispatch crossovers:\n");
  struct Crossover {
    gemm::Trans trans;
    int64_t m, n, k;
  };
  const Crossover crossovers[] = {
      {gemm::Trans::kNN, 1, 72, 24},  {gemm::Trans::kNN, 4, 72, 24},
      {gemm::Trans::kNN, 5, 72, 24},  {gemm::Trans::kNN, 6, 72, 24},
      {gemm::Trans::kNN, 8, 72, 24},  {gemm::Trans::kNN, 32, 72, 24},
      {gemm::Trans::kNN, 4, 72, 32},  {gemm::Trans::kNN, 6, 72, 32},
      {gemm::Trans::kNN, 16, 72, 32}, {gemm::Trans::kTA, 24, 72, 2},
      {gemm::Trans::kTA, 24, 72, 4},  {gemm::Trans::kTA, 24, 72, 5},
      {gemm::Trans::kTA, 24, 72, 6},  {gemm::Trans::kTA, 24, 72, 8},
      {gemm::Trans::kTA, 24, 72, 32},
  };
  std::string crossover = "[\n    ";
  for (size_t i = 0; i < std::size(crossovers); ++i) {
    const Crossover& x = crossovers[i];
    const std::string row =
        CrossoverJson(x.trans, x.m, x.n, x.k, reps, min_sample_ms);
    std::printf("  %s\n", row.c_str());
    std::fflush(stdout);
    if (i > 0) crossover += ",\n    ";
    crossover += row;
  }
  crossover += "\n  ]";

  // Thread scaling of the blocked kernel at the acceptance shape: each arm
  // sets its thread count before its rep, a quiesced point. Results are
  // bit-identical across worker counts (gemm.h); only latency can move.
  // Each sample also reads the process CPU time around it (cpu_ms, per
  // product, the median over the arm's samples).
  std::printf("\nthread scaling at 256x256x256 (total threads incl. caller):\n");
  const int thread_counts[] = {1, 2, 4};
  Product square(gemm::Trans::kNN, 256, 256, 256);
  std::vector<int64_t> scaling_products;
  std::vector<std::vector<double>> cpu_samples(std::size(thread_counts));
  std::vector<std::function<double()>> scaling_arms;
  for (size_t i = 0; i < std::size(thread_counts); ++i) {
    auto arm = [&square, threads = thread_counts[i]](int64_t count) {
      gemm::SetKernelThreads(threads);
      return square.BlockedMs(count);
    };
    const int64_t products = CalibrateProducts(arm, min_sample_ms);
    scaling_products.push_back(products);
    scaling_arms.push_back([arm, products, cpu = &cpu_samples[i]] {
      const double cpu_start = ProcessCpuMs();
      const double wall_ms = arm(products);
      cpu->push_back((ProcessCpuMs() - cpu_start) /
                     static_cast<double>(products));
      return wall_ms;
    });
  }
  const std::vector<ArmStats> scaled = MeasureInterleaved(scaling_arms, reps);
  gemm::SetKernelThreads(1);
  std::string scaling = "[\n    ";
  for (size_t i = 0; i < scaled.size(); ++i) {
    char buf[224];
    std::snprintf(buf, sizeof(buf),
                  "{\"threads\": %d, \"products\": %lld, "
                  "\"blocked_ms\": %.6f, \"blocked_spread_pct\": %.1f, "
                  "\"cpu_ms\": %.6f, \"scale\": %.2f}",
                  thread_counts[i],
                  static_cast<long long>(scaling_products[i]),
                  scaled[i].median, scaled[i].spread_pct,
                  Median(cpu_samples[i]), scaled[0].median / scaled[i].median);
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
  json.RawField("crossover", crossover);
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

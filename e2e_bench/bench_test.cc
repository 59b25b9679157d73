// Tests of the benchmark's own arithmetic: the quality scorer, the
// percentile and fastest-of-trials helpers, the ledger and the span-log
// differences.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "data/batch.h"
#include "data/tokenizer.h"
#include "datasets/beer.h"
#include "eval/metrics.h"
#include "ledger.h"
#include "net/http.h"
#include "tensor/random.h"
#include "workload.h"

namespace dar {
namespace e2e {
namespace {

TEST(QualityScorerTest, AgreesExactlyWithRationaleMetricsAccumulator) {
  const datasets::SyntheticDataset dataset = datasets::MakeBeerDataset(
      datasets::BeerAspect::kAppearance, {.train = 2, .dev = 2, .test = 37},
      /*seed=*/11);
  std::vector<data::Example> examples = dataset.test;
  examples[5].rationale.clear();  // an unannotated request: selections only
  const data::Batch batch = data::Batch::FromExamples(
      examples, 0, examples.size(), data::Vocabulary::kPadId);
  Pcg32 rng(3);
  for (float keep : {0.0f, 0.1f, 0.5f, 1.0f}) {
    Tensor mask(batch.valid.shape());
    QualityScorer scorer;
    for (size_t i = 0; i < examples.size(); ++i) {
      std::vector<uint8_t> served;
      for (int64_t t = 0; t < batch.max_len(); ++t) {
        // Padding positions get selections too; both sides must skip them.
        const bool selected = rng.NextFloat() < keep;
        mask.at(static_cast<int64_t>(i), t) = selected ? 1.0f : 0.0f;
        if (t < static_cast<int64_t>(examples[i].tokens.size())) {
          served.push_back(selected ? 1 : 0);
        }
      }
      scorer.Add(served, examples[i].rationale, 0, examples[i].label);
    }
    eval::RationaleMetricsAccumulator accumulator;
    accumulator.Add(mask, batch);
    const eval::RationaleMetrics expected = accumulator.Finalize();
    EXPECT_EQ(scorer.precision(), expected.precision) << keep;
    EXPECT_EQ(scorer.recall(), expected.recall) << keep;
    EXPECT_EQ(scorer.f1(), expected.f1) << keep;
  }
}

TEST(QualityScorerTest, LabelAccuracyCountsRequests) {
  QualityScorer scorer;
  scorer.Add({1, 0}, {1, 0}, 1, 1);
  scorer.Add({0, 1}, {1, 0}, 0, 1);
  scorer.Add({1}, {1}, 0, 0);
  scorer.Add({1}, {1}, 1, 1);
  EXPECT_DOUBLE_EQ(scorer.label_accuracy(), 0.75);
  EXPECT_EQ(QualityScorer().label_accuracy(), 0.0);
}

TEST(PercentileTest, MatchesNearestRank) {
  const std::vector<double> five = {35, 20, 50, 15, 40};  // unsorted on purpose
  EXPECT_EQ(Percentile(five, 5), 15);
  EXPECT_EQ(Percentile(five, 30), 20);
  EXPECT_EQ(Percentile(five, 40), 20);
  EXPECT_EQ(Percentile(five, 50), 35);
  EXPECT_EQ(Percentile(five, 100), 50);
  const std::vector<double> ten = {3, 6, 7, 8, 8, 10, 13, 15, 16, 20};
  EXPECT_EQ(Percentile(ten, 25), 7);
  EXPECT_EQ(Percentile(ten, 50), 8);
  EXPECT_EQ(Percentile(ten, 75), 15);
  EXPECT_EQ(Percentile(ten, 90), 16);
  EXPECT_EQ(Percentile(ten, 100), 20);
  EXPECT_EQ(Percentile({7.5}, 50), 7.5);
  EXPECT_EQ(Percentile({7.5}, 90), 7.5);
  EXPECT_EQ(Percentile({}, 50), 0.0);
  // Three setups: p50 is the middle one.
  EXPECT_EQ(Percentile({2.9, 2.7, 3.4}, 50), 2.9);
}

TEST(FastestOfTrialsTest, TakesEachPartsMinimumOverTrials) {
  EXPECT_EQ(FastestOfTrials({{3, 9, 4}, {5, 2, 4}, {6, 8, 1}}),
            (std::vector<double>{3, 2, 1}));
  EXPECT_EQ(FastestOfTrials({{7, 5}}), (std::vector<double>{7, 5}));
  // Trials that did not do the same parts cannot be compared.
  EXPECT_TRUE(FastestOfTrials({{1, 2}, {1, 2, 3}}).empty());
  EXPECT_TRUE(FastestOfTrials({}).empty());
}

TEST(LedgerTest, RowsTelescopeToTheTotal) {
  Ledger ledger(612.5, "ledger.residual_us");
  ledger.Add("net.socket_us", 180.25);
  ledger.Add("serve.batcher_us", 230.0);
  ledger.Add("core.head_us", 44.125);
  const std::vector<LedgerRow> rows = ledger.Rows();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows.back().name, "ledger.residual_us");
  EXPECT_EQ(rows.back().value, 158.125);
  double sum = 0.0;
  for (const LedgerRow& row : rows) sum += row.value;
  EXPECT_EQ(sum, ledger.total());
}

TEST(LedgerTest, ResidualGoesNegativeWhenRowsOvershoot) {
  Ledger ledger(1.0, "train.step_residual_ms");
  ledger.Add("core.train_forward_ms", 0.75);
  ledger.Add("autograd.backward_ms", 0.5);
  EXPECT_EQ(ledger.residual(), -0.25);
  double sum = 0.0;
  for (const LedgerRow& row : ledger.Rows()) sum += row.value;
  EXPECT_EQ(sum, 1.0);
}

TEST(SpanLogTest, SelfTimeSubtractsTheRequestsOwnChildren) {
  SpanLog spans;
  spans.Record("serve.forward", 0, 0, 10000);
  spans.Record("core.gen_encoder", 0, 1000, 3000);
  spans.Record("core.head", 0, 5000, 6000);
  spans.Record("serve.forward", 1, 20000, 24000);  // a hit: no encoder span
  spans.Record("core.head", 1, 21000, 22500);
  spans.Record("core.gen_encoder", 7, 0, 99000);  // no parent: ignored

  const std::vector<double> self =
      spans.DifferenceUs("serve.forward", {"core.gen_encoder", "core.head"});
  ASSERT_EQ(self.size(), 2u);
  EXPECT_EQ(self[0], 7.0);
  EXPECT_EQ(self[1], 2.5);

  const std::vector<double> encoder =
      spans.PerRequestUs("core.gen_encoder", "serve.forward");
  ASSERT_EQ(encoder.size(), 2u);
  EXPECT_EQ(encoder[0], 2.0);
  EXPECT_EQ(encoder[1], 0.0);

  EXPECT_EQ(spans.DurationsUs("core.head"), (std::vector<double>{1.0, 1.5}));
}

TEST(CorpusTest, SameSeedSameDistinctReviews) {
  const std::vector<Review> a = MakeReviews(CorpusSeed("predict_unique", 5), 300);
  const std::vector<Review> b = MakeReviews(CorpusSeed("predict_unique", 5), 300);
  const std::vector<Review> c = MakeReviews(CorpusSeed("predict_unique", 6), 300);
  ASSERT_EQ(a.size(), 300u);
  std::set<std::string> distinct;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].text, b[i].text);
    EXPECT_EQ(a[i].rationale, b[i].rationale);
    distinct.insert(a[i].text);
  }
  EXPECT_EQ(distinct.size(), a.size());
  EXPECT_NE(a[0].text, c[0].text);
  // A shorter corpus is a prefix of a longer one (the probes rely on it).
  const std::vector<Review> prefix =
      MakeReviews(CorpusSeed("predict_unique", 5), 40);
  for (size_t i = 0; i < prefix.size(); ++i) EXPECT_EQ(prefix[i].text, a[i].text);
}

TEST(CorpusTest, TextRoundTripsThroughTheTokenizer) {
  // Served masks are scored against gold position by position, so the
  // serving tokenizer must split each text back into the generated tokens.
  const datasets::SyntheticDataset vocab = AppearanceVocabulary();
  for (const Review& review : QualityReviews()) {
    const std::vector<int64_t> ids = data::Encode(review.text, vocab.vocab);
    ASSERT_EQ(ids.size(), review.rationale.size());
    EXPECT_EQ(data::Decode(ids, vocab.vocab), review.text);
  }
}

/// (name, unit) pairs of one metric list in BENCHMARK.json.
std::vector<std::pair<std::string, std::string>> ListedMetrics(
    const std::string& list) {
  std::ifstream file(E2E_BENCHMARK_JSON);
  const std::string text((std::istreambuf_iterator<char>(file)),
                         std::istreambuf_iterator<char>());
  std::optional<net::JsonValue> json = net::JsonValue::Parse(text);
  std::vector<std::pair<std::string, std::string>> out;
  if (!json.has_value() || json->Find(list) == nullptr) return out;
  for (const net::JsonValue& metric : json->Find(list)->items) {
    out.push_back({metric.Find("name")->string_value,
                   metric.Find("unit")->string_value});
  }
  return out;
}

TEST(MetricNamesTest, MatchBenchmarkJson) {
  EXPECT_EQ(ListedMetrics("end_to_end"), EndToEndMetricNames());
  EXPECT_EQ(ListedMetrics("per_layer"), PerLayerMetricNames());
}

}  // namespace
}  // namespace e2e
}  // namespace dar

// Tests for eval/analysis.h: token-selection diagnostics.
#include "eval/analysis.h"

#include <gtest/gtest.h>

#include "core/rnp.h"
#include "datasets/beer.h"
#include "eval/experiment.h"

namespace dar {
namespace eval {
namespace {

const datasets::SyntheticDataset& AnalysisDataset() {
  static const datasets::SyntheticDataset& ds = *new datasets::SyntheticDataset(
      datasets::MakeBeerDataset(datasets::BeerAspect::kAroma,
                                {.train = 64, .dev = 16, .test = 32},
                                /*seed=*/71));
  return ds;
}

core::TrainConfig TinyConfig() {
  core::TrainConfig config;
  config.embedding_dim = 8;
  config.hidden_dim = 6;
  config.batch_size = 16;
  return config;
}

TEST(AnalysisTest, StatsCountOccurrences) {
  const datasets::SyntheticDataset& ds = AnalysisDataset();
  auto model = MakeMethod("RNP", ds, TinyConfig());
  TokenSelectionStats stats =
      ComputeTokenSelectionStats(*model, ds.test, ds.vocab.size());
  // Occurrence counts match the raw data, independent of the model.
  std::vector<int64_t> expected(static_cast<size_t>(ds.vocab.size()), 0);
  for (const data::Example& e : ds.test) {
    for (int64_t id : e.tokens) ++expected[static_cast<size_t>(id)];
  }
  EXPECT_EQ(stats.occurrences, expected);
  // Selections are bounded by occurrences.
  for (size_t id = 0; id < expected.size(); ++id) {
    EXPECT_LE(stats.selected[id], stats.occurrences[id]);
  }
}

TEST(AnalysisTest, RateIsZeroForAbsentToken) {
  const datasets::SyntheticDataset& ds = AnalysisDataset();
  auto model = MakeMethod("RNP", ds, TinyConfig());
  TokenSelectionStats stats =
      ComputeTokenSelectionStats(*model, ds.test, ds.vocab.size());
  // <mask> never appears in generated reviews.
  EXPECT_EQ(stats.Rate(ds.vocab.IdOrUnk("<mask>")), 0.0f);
}

TEST(AnalysisTest, TokenSelectionRateBounds) {
  const datasets::SyntheticDataset& ds = AnalysisDataset();
  auto model = MakeMethod("RNP", ds, TinyConfig());
  int64_t period = ds.vocab.IdOrUnk(".");
  float rate = TokenSelectionRate(*model, ds.test, period);
  EXPECT_GE(rate, 0.0f);
  EXPECT_LE(rate, 1.0f);
}

TEST(AnalysisTest, MostSelectedTokensFormatting) {
  TokenSelectionStats stats;
  stats.occurrences = {0, 0, 10, 10, 2};
  stats.selected = {0, 0, 9, 1, 2};
  data::Vocabulary vocab;  // ids 0,1 reserved
  vocab.AddToken("often");   // id 2
  vocab.AddToken("rarely");  // id 3
  vocab.AddToken("scarce");  // id 4
  std::vector<std::string> top =
      MostSelectedTokens(stats, vocab, /*top_k=*/2, /*min_occurrences=*/5);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_NE(top[0].find("often"), std::string::npos);
  EXPECT_NE(top[0].find("90%"), std::string::npos);
  EXPECT_NE(top[1].find("rarely"), std::string::npos);
}

TEST(AnalysisTest, MinOccurrenceFilter) {
  TokenSelectionStats stats;
  stats.occurrences = {0, 0, 2};
  stats.selected = {0, 0, 2};
  data::Vocabulary vocab;
  vocab.AddToken("scarce");
  EXPECT_TRUE(MostSelectedTokens(stats, vocab, 5, /*min_occurrences=*/5)
                  .empty());
}

}  // namespace
}  // namespace eval
}  // namespace dar

// Tests for eval/aggregate.h: multi-seed summaries.
#include "eval/aggregate.h"

#include <gtest/gtest.h>

#include "datasets/beer.h"

namespace dar {
namespace eval {
namespace {

MethodResult FakeResult(float f1, float acc) {
  MethodResult result;
  result.method = "FAKE";
  result.rationale.f1 = f1;
  result.rationale.precision = f1;
  result.rationale.recall = f1;
  result.rationale.sparsity = 0.1f;
  result.rationale_acc = acc;
  result.full_text_acc = acc;
  return result;
}

TEST(AggregateTest, MeanAndStddev) {
  std::vector<MethodResult> results = {FakeResult(0.6f, 0.9f),
                                       FakeResult(0.8f, 0.9f)};
  AggregateResult aggregate = Aggregate("FAKE", results);
  EXPECT_EQ(aggregate.num_seeds, 2);
  EXPECT_NEAR(aggregate.f1.mean, 0.7f, 1e-6f);
  EXPECT_NEAR(aggregate.f1.stddev, 0.1f, 1e-6f);
  EXPECT_NEAR(aggregate.rationale_acc.stddev, 0.0f, 1e-6f);
}

TEST(AggregateTest, SingleResultHasZeroSpread) {
  AggregateResult aggregate = Aggregate("FAKE", {FakeResult(0.5f, 0.8f)});
  EXPECT_EQ(aggregate.f1.stddev, 0.0f);
}

TEST(AggregateTest, ToStringFormatsPercentages) {
  MetricSummary summary{0.642f, 0.021f};
  EXPECT_EQ(summary.ToString(), "64.2 ± 2.1");
}

TEST(AggregateTest, EmptyResultsAbort) {
  EXPECT_DEATH(Aggregate("FAKE", {}), "DAR_CHECK");
}

TEST(AggregateTest, RunAcrossSeedsEndToEnd) {
  datasets::SyntheticDataset ds = datasets::MakeBeerDataset(
      datasets::BeerAspect::kAroma, {.train = 96, .dev = 24, .test = 24},
      /*seed=*/101);
  core::TrainConfig config;
  config.embedding_dim = 8;
  config.hidden_dim = 6;
  config.batch_size = 16;
  config.epochs = 2;
  config.pretrain_epochs = 1;
  AggregateResult aggregate = RunAcrossSeeds("RNP", ds, config, {1, 2});
  EXPECT_EQ(aggregate.num_seeds, 2);
  EXPECT_GE(aggregate.f1.mean, 0.0f);
  EXPECT_LE(aggregate.f1.mean, 1.0f);
  EXPECT_GE(aggregate.rationale_acc.mean, 0.0f);
}

}  // namespace
}  // namespace eval
}  // namespace dar

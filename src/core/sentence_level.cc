#include "core/sentence_level.h"

#include <cmath>
#include <memory>
#include <utility>

#include "nn/loss.h"
#include "tensor/check.h"

namespace dar {
namespace core {

std::vector<std::vector<SentenceSpan>> SegmentSentences(
    const data::Batch& batch, int64_t period_id) {
  std::vector<std::vector<SentenceSpan>> result(
      static_cast<size_t>(batch.batch_size()));
  for (int64_t i = 0; i < batch.batch_size(); ++i) {
    std::vector<SentenceSpan>& spans = result[static_cast<size_t>(i)];
    int64_t begin = 0;
    for (int64_t t = 0; t < batch.max_len(); ++t) {
      if (batch.valid.at(i, t) == 0.0f) break;
      bool is_period =
          batch.tokens[static_cast<size_t>(i)][static_cast<size_t>(t)] ==
          period_id;
      bool is_last = t + 1 >= batch.max_len() ||
                     batch.valid.at(i, t + 1) == 0.0f;
      if (is_period || is_last) {
        spans.push_back({begin, t + 1});
        begin = t + 1;
      }
    }
    DAR_CHECK_MSG(!spans.empty(), "example with no valid tokens");
  }
  return result;
}

namespace {

/// Differentiable map: token logits [B, T] -> soft token mask [B, T] where
/// every token of sentence s carries that sentence's (noise-perturbed)
/// softmax probability. See header for the sampling semantics.
ag::Variable SoftSentenceMask(
    const ag::Variable& token_logits,
    const std::vector<std::vector<SentenceSpan>>& sentences, float tau,
    bool training, Pcg32& rng) {
  const Tensor& logits = token_logits.value();
  int64_t b = logits.size(0), t_len = logits.size(1);
  DAR_CHECK_EQ(static_cast<int64_t>(sentences.size()), b);

  // Forward: per-example sentence scores -> softmax -> scatter to tokens.
  Tensor soft(Shape{b, t_len});
  auto probs = std::make_shared<std::vector<std::vector<float>>>(
      static_cast<size_t>(b));
  for (int64_t i = 0; i < b; ++i) {
    const std::vector<SentenceSpan>& spans = sentences[static_cast<size_t>(i)];
    std::vector<float> scores(spans.size());
    for (size_t s = 0; s < spans.size(); ++s) {
      float sum = 0.0f;
      for (int64_t t = spans[s].begin; t < spans[s].end; ++t) {
        sum += logits.at(i, t);
      }
      scores[s] = sum / static_cast<float>(spans[s].end - spans[s].begin);
      scores[s] /= tau;
      if (training) scores[s] += rng.Gumbel();
    }
    float mx = scores[0];
    for (float v : scores) mx = std::max(mx, v);
    float denom = 0.0f;
    std::vector<float>& p = (*probs)[static_cast<size_t>(i)];
    p.resize(spans.size());
    for (size_t s = 0; s < spans.size(); ++s) {
      p[s] = std::exp(scores[s] - mx);
      denom += p[s];
    }
    for (size_t s = 0; s < spans.size(); ++s) {
      p[s] /= denom;
      for (int64_t t = spans[s].begin; t < spans[s].end; ++t) {
        soft.at(i, t) = p[s];
      }
    }
  }

  auto pn = token_logits.node();
  auto spans_copy =
      std::make_shared<std::vector<std::vector<SentenceSpan>>>(sentences);
  float inv_tau = 1.0f / tau;
  return ag::MakeOpResult(
      "sentence_softmax", std::move(soft), {pn},
      [pn, spans_copy, probs, b, inv_tau](ag::Node& n) {
        Tensor g(pn->value.shape());
        for (int64_t i = 0; i < b; ++i) {
          const std::vector<SentenceSpan>& spans =
              (*spans_copy)[static_cast<size_t>(i)];
          const std::vector<float>& p = (*probs)[static_cast<size_t>(i)];
          // dL/dp_s = sum of incoming gradient over the sentence's tokens.
          std::vector<float> dp(spans.size());
          for (size_t s = 0; s < spans.size(); ++s) {
            float acc = 0.0f;
            for (int64_t t = spans[s].begin; t < spans[s].end; ++t) {
              acc += n.grad.at(i, t);
            }
            dp[s] = acc;
          }
          // Softmax Jacobian: dL/dscore_s = p_s * (dp_s - sum_k dp_k p_k).
          float dot = 0.0f;
          for (size_t s = 0; s < spans.size(); ++s) dot += dp[s] * p[s];
          for (size_t s = 0; s < spans.size(); ++s) {
            float dscore = p[s] * (dp[s] - dot) * inv_tau;
            // score_s = mean of token logits: spread equally.
            float per_token =
                dscore / static_cast<float>(spans[s].end - spans[s].begin);
            for (int64_t t = spans[s].begin; t < spans[s].end; ++t) {
              g.at(i, t) += per_token;
            }
          }
        }
        pn->AccumulateGrad(std::move(g));
      });
}

}  // namespace

nn::GumbelMask SampleOneSentenceMask(
    const ag::Variable& token_logits,
    const std::vector<std::vector<SentenceSpan>>& sentences,
    const Tensor& valid, float tau, bool training, Pcg32& rng) {
  ag::Variable soft = SoftSentenceMask(token_logits, sentences, tau, training,
                                       rng);
  // Hard one-sentence mask: tokens of each example's max-probability
  // sentence (ties broken toward the earlier sentence).
  int64_t b = soft.value().size(0), t_len = soft.value().size(1);
  Tensor hard(Shape{b, t_len});
  for (int64_t i = 0; i < b; ++i) {
    const std::vector<SentenceSpan>& spans = sentences[static_cast<size_t>(i)];
    size_t best = 0;
    for (size_t s = 1; s < spans.size(); ++s) {
      if (soft.value().at(i, spans[s].begin) >
          soft.value().at(i, spans[best].begin)) {
        best = s;
      }
    }
    for (int64_t t = spans[best].begin; t < spans[best].end; ++t) {
      hard.at(i, t) = valid.at(i, t);
    }
  }
  // Straight-through: forward = hard, backward = d(soft).
  ag::Variable st = ag::Add(ag::Sub(soft, soft.Detach()),
                            ag::Variable::Constant(hard));
  return {soft, st};
}

SentenceRnpModel::SentenceRnpModel(Tensor embeddings, TrainConfig config,
                                   int64_t period_id)
    : RationalizerBase(std::move(embeddings), config, "RNP*"),
      period_id_(period_id) {}

ag::Variable SentenceRnpModel::SentenceCoreLoss(const data::Batch& batch,
                                                nn::GumbelMask* mask_out,
                                                ag::Variable* logits_out) {
  std::vector<std::vector<SentenceSpan>> sentences =
      SegmentSentences(batch, period_id_);
  ag::Variable token_logits = generator_.SelectionLogits(batch);
  nn::GumbelMask mask =
      SampleOneSentenceMask(token_logits, sentences, batch.valid, config_.tau,
                            generator_.training(), rng_);
  ag::Variable logits = predictor_.Forward(batch, mask.hard);
  ag::Variable ce = nn::CrossEntropy(logits, batch.labels);
  if (mask_out != nullptr) *mask_out = mask;
  if (logits_out != nullptr) *logits_out = logits;
  return ce;
}

ag::Variable SentenceRnpModel::TrainLoss(const data::Batch& batch) {
  return SentenceCoreLoss(batch, nullptr, nullptr);
}

Tensor SentenceRnpModel::EvalMaskFromStatesConst(
    const data::Batch& batch, const Tensor& gen_states) const {
  std::vector<std::vector<SentenceSpan>> sentences =
      SegmentSentences(batch, period_id_);
  ag::Variable token_logits =
      generator_.SelectionLogitsFromStates(ag::Variable::Constant(gen_states));
  // The eval path (training=false) never draws from the rng, so a throwaway
  // generator keeps this const and thread-compatible.
  Pcg32 unused_rng(0);
  nn::GumbelMask mask =
      SampleOneSentenceMask(token_logits, sentences, batch.valid, config_.tau,
                            /*training=*/false, unused_rng);
  return mask.hard.value();
}

SentenceA2rModel::SentenceA2rModel(Tensor embeddings, TrainConfig config,
                                   int64_t period_id)
    : SentenceRnpModel(std::move(embeddings), config, period_id),
      soft_predictor_(embeddings_, config_, rng_) {
  name_ = "A2R*";
}

ag::Variable SentenceA2rModel::TrainLoss(const data::Batch& batch) {
  nn::GumbelMask mask;
  ag::Variable hard_logits;
  ag::Variable core = SentenceCoreLoss(batch, &mask, &hard_logits);
  ag::Variable soft_logits = soft_predictor_.Forward(batch, mask.soft);
  ag::Variable soft_ce = nn::CrossEntropy(soft_logits, batch.labels);
  ag::Variable js = nn::JsDivergence(hard_logits, soft_logits);
  return ag::Add(ag::Add(core, soft_ce),
                 ag::MulScalar(js, config_.aux_weight));
}

std::vector<ag::Variable> SentenceA2rModel::TrainableParameters() const {
  std::vector<ag::Variable> params = RationalizerBase::TrainableParameters();
  for (const nn::NamedParameter& p : soft_predictor_.Parameters()) {
    if (p.variable.requires_grad()) params.push_back(p.variable);
  }
  return params;
}

void SentenceA2rModel::SetTraining(bool training) {
  RationalizerBase::SetTraining(training);
  soft_predictor_.SetTraining(training);
}

int64_t SentenceA2rModel::TotalParameters() const {
  return RationalizerBase::TotalParameters() + CountTrainable(soft_predictor_);
}

}  // namespace core
}  // namespace dar

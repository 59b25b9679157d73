#include "serve/session.h"

#include <chrono>
#include <cstring>
#include <utility>

#include "check/sentinel.h"
#include "data/tokenizer.h"
#include "obs/trace.h"
#include "tensor/check.h"
#include "tensor/tensor_ops.h"

namespace dar {
namespace serve {

std::vector<RationaleSpan> MaskToSpans(const std::vector<uint8_t>& mask) {
  std::vector<RationaleSpan> spans;
  int64_t begin = -1;
  for (size_t t = 0; t <= mask.size(); ++t) {
    bool selected = t < mask.size() && mask[t] != 0;
    if (selected && begin < 0) {
      begin = static_cast<int64_t>(t);
    } else if (!selected && begin >= 0) {
      spans.push_back({begin, static_cast<int64_t>(t)});
      begin = -1;
    }
  }
  return spans;
}

InferenceSession::InferenceSession(
    std::unique_ptr<core::RationalizerBase> model, data::Vocabulary vocab)
    : model_(std::move(model)),
      vocab_(std::move(vocab)),
      stats_(std::make_unique<ServingStats>()) {
  DAR_CHECK(model_ != nullptr);
  // Pin eval mode once: dropout becomes the identity and the const
  // forward stages are deterministic, so concurrent forwards are safe.
  model_->SetTraining(false);
  // Freeze every parameter: a served forward records no backward closure
  // and keeps no BPTT state.
  for (const nn::NamedModule& module : model_->CheckpointModules()) {
    module.module->SetRequiresGrad(false);
  }
}

std::unique_ptr<InferenceSession> InferenceSession::FromCheckpoint(
    std::unique_ptr<core::RationalizerBase> model, data::Vocabulary vocab,
    const std::string& path, std::string* error) {
  DAR_CHECK(model != nullptr);
  nn::CheckpointResult result = core::LoadRationalizer(*model, path);
  if (!result.ok) {
    if (error != nullptr) *error = result.error;
    return nullptr;
  }
  return std::make_unique<InferenceSession>(std::move(model),
                                            std::move(vocab));
}

void InferenceSession::BindStats(obs::MetricsRegistry* registry,
                                 const std::string& model_label) {
  stats_ = std::make_unique<ServingStats>(registry, "serve", model_label);
}

std::vector<int64_t> InferenceSession::Encode(const std::string& text) const {
  std::vector<int64_t> ids = data::Encode(text, vocab_);
  if (ids.empty()) ids.push_back(data::Vocabulary::kUnkId);
  return ids;
}

InferenceResult InferenceSession::Predict(const std::string& text) const {
  auto start = std::chrono::steady_clock::now();
  std::vector<InferenceResult> results = PredictTokenBatch({Encode(text)});
  auto elapsed = std::chrono::steady_clock::now() - start;
  stats_->RecordLatencyUs(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
  return std::move(results[0]);
}

void InferenceSession::EnableCache(ServeCache* cache,
                                   const std::string& label) {
  DAR_CHECK(cache != nullptr);
  cache_ = cache;
  cache_model_ = cache->RegisterModel(label);
}

InferenceResult InferenceSession::AssembleResult(
    const std::vector<int64_t>& ids, int64_t i, const Tensor& mask,
    const Tensor& probs) const {
  int64_t num_classes = probs.size(1);
  int64_t len = static_cast<int64_t>(ids.size());
  InferenceResult r;
  r.probs.resize(static_cast<size_t>(num_classes));
  for (int64_t c = 0; c < num_classes; ++c) {
    r.probs[static_cast<size_t>(c)] = probs.at(i, c);
    if (probs.at(i, c) > r.probs[static_cast<size_t>(r.label)]) r.label = c;
  }
  r.confidence = r.probs[static_cast<size_t>(r.label)];
  r.tokens.reserve(static_cast<size_t>(len));
  r.mask.reserve(static_cast<size_t>(len));
  for (int64_t t = 0; t < len; ++t) {
    r.tokens.push_back(vocab_.Token(ids[static_cast<size_t>(t)]));
    r.mask.push_back(mask.at(i, t) > 0.5f ? 1 : 0);
  }
  r.spans = MaskToSpans(r.mask);
  for (const RationaleSpan& span : r.spans) {
    for (int64_t t = span.begin; t < span.end; ++t) {
      if (!r.rationale_text.empty()) r.rationale_text += ' ';
      r.rationale_text += r.tokens[static_cast<size_t>(t)];
    }
  }
  return r;
}

namespace {

/// Softmax over `logits`, scanned as the response surface: the serving
/// stages run no autograd-level sentinels, so the op-level scans never
/// see these buffers.
Tensor ScannedProbs(const Tensor& logits) {
  Tensor probs = SoftmaxRows(logits);
  if (check::SentinelEnabled()) {
    check::ScanForNonFinite("serve.forward", "probs", probs.data(),
                            probs.numel());
  }
  return probs;
}

/// Row `row` of padded [B, T_max, H] states cut to its first `len` steps:
/// the [1, T, H] shape the encoder tier stores and a B=1 replay of the
/// head stages reads.
Tensor ValidSteps(const Tensor& states, int64_t row, int64_t len) {
  const int64_t hidden = states.size(2);
  Tensor out(Shape{1, len, hidden});
  std::memcpy(out.data(), states.data() + row * states.size(1) * hidden,
              static_cast<size_t>(len * hidden) * sizeof(float));
  return out;
}

}  // namespace

std::vector<InferenceResult> InferenceSession::PredictTokenBatch(
    const std::vector<std::vector<int64_t>>& sequences) const {
  obs::Span span("serve.forward");
  const bool cached = cache_ != nullptr;
  std::vector<InferenceResult> results(sequences.size());

  // Misses are stored only after their batch has run, so every lookup
  // precedes every insert: a sequence given twice in one call misses twice.
  std::vector<size_t> miss_rows;
  std::vector<std::vector<int64_t>> misses;
  for (size_t i = 0; i < sequences.size(); ++i) {
    std::shared_ptr<const EncoderStatesEntry> entry;
    if (cached) {
      obs::Span lookup_span("serve.cache_lookup");
      entry = cache_->LookupEncoderStates(cache_model_, sequences[i]);
    }
    if (entry == nullptr) {
      miss_rows.push_back(i);
      misses.push_back(sequences[i]);
      continue;
    }
    // Restored payloads skipped every autograd-level sentinel when they
    // were computed in some earlier request, so re-scan them here: a
    // corrupted cache entry must be caught at restore time, not shipped
    // as a confident wrong answer.
    if (check::SentinelEnabled()) {
      check::ScanForNonFinite("serve.cache_restore", "gen_states",
                              entry->gen_states.data(),
                              entry->gen_states.numel());
      check::ScanForNonFinite("serve.cache_restore", "pred_states",
                              entry->pred_states.data(),
                              entry->pred_states.numel());
    }
    data::Batch batch = data::Batch::FromTokenSequences(
        {sequences[i]}, data::Vocabulary::kPadId);
    Tensor mask = model_->EvalMaskFromStatesConst(batch, entry->gen_states);
    Tensor probs = ScannedProbs(
        model_->PredictLogitsFromStatesConst(batch, entry->pred_states));
    results[i] = AssembleResult(sequences[i], 0, mask, probs);
    results[i].cache = CacheOutcome::kHit;
  }

  if (!misses.empty()) {
    data::Batch batch =
        data::Batch::FromTokenSequences(misses, data::Vocabulary::kPadId);
    Tensor gen_states = model_->GenEncoderStatesConst(batch);
    Tensor mask = model_->EvalMaskFromStatesConst(batch, gen_states);
    Tensor pred_states = model_->PredEncoderStatesConst(batch, mask);
    Tensor probs = ScannedProbs(
        model_->PredictLogitsFromStatesConst(batch, pred_states));
    for (size_t j = 0; j < misses.size(); ++j) {
      const int64_t row = static_cast<int64_t>(j);
      InferenceResult& r = results[miss_rows[j]];
      r = AssembleResult(misses[j], row, mask, probs);
      if (cached) {
        r.cache = CacheOutcome::kMiss;
        const int64_t len = static_cast<int64_t>(misses[j].size());
        cache_->InsertEncoderStates(cache_model_, misses[j],
                                    ValidSteps(gen_states, row, len),
                                    ValidSteps(pred_states, row, len));
      }
    }
  }

  stats_->RecordBatch(static_cast<int64_t>(sequences.size()));
  return results;
}

}  // namespace serve
}  // namespace dar

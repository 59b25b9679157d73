// Inference over a trained rationalizer: raw text in, label + confidence +
// extracted rationale out.
//
// An InferenceSession owns a trained RationalizerBase, pins it in eval
// mode, and serves through one forward, PredictTokenBatch, built on the
// model's four const stages (core/rationalizer.h): any number of threads
// may call Predict / PredictTokenBatch on the same session concurrently.
// An attached cache (serve/cache.h) filters that forward: hits re-run only
// the head stages on their stored states, and all misses run as one padded
// batch through the same four stage calls an uncached session makes. This
// is the building block the micro-batcher (serve/batcher.h)
// and the model registry (serve/registry.h) compose into a serving stack.
#ifndef DAR_SERVE_SESSION_H_
#define DAR_SERVE_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rationalizer.h"
#include "data/vocabulary.h"
#include "serve/cache.h"
#include "serve/stats.h"

namespace dar {
namespace serve {

/// Half-open token-index interval [begin, end) of one contiguous rationale
/// chunk. A response carries one span per maximal run of selected tokens.
struct RationaleSpan {
  int64_t begin = 0;
  int64_t end = 0;

  bool operator==(const RationaleSpan& other) const {
    return begin == other.begin && end == other.end;
  }
};

/// Everything the serving API returns for one text.
struct InferenceResult {
  /// Predicted class in [0, num_classes).
  int64_t label = 0;
  /// Softmax probability of `label` over the rationale logits.
  float confidence = 0.0f;
  /// Full class distribution, length num_classes.
  std::vector<float> probs;
  /// The request's tokens as the model saw them (<unk> for OOV words).
  std::vector<std::string> tokens;
  /// Per-token rationale selection, aligned with `tokens` (1 = selected).
  std::vector<uint8_t> mask;
  /// Maximal runs of selected tokens, in order.
  std::vector<RationaleSpan> spans;
  /// The selected tokens joined with spaces (the human-readable rationale).
  std::string rationale_text;
  /// What the serving cache contributed (kUncached when no cache is
  /// attached). Carried through the micro-batcher so the HTTP layer can
  /// surface it as the X-DAR-Cache header. Not part of the response body:
  /// cached and uncached responses are bit-identical.
  CacheOutcome cache = CacheOutcome::kUncached;
};

/// Collapses a per-token 0/1 mask into its maximal selected runs.
std::vector<RationaleSpan> MaskToSpans(const std::vector<uint8_t>& mask);

/// A loaded model ready to answer requests.
class InferenceSession {
 public:
  /// Takes ownership of `model` (already trained, or about to be restored
  /// from a checkpoint) and a copy of the vocabulary it was trained with.
  /// The model is switched to eval mode once and must not be mutated for
  /// the session's lifetime.
  InferenceSession(std::unique_ptr<core::RationalizerBase> model,
                   data::Vocabulary vocab);

  /// Builds a session by restoring `model`'s parameters from a checkpoint
  /// written by core::SaveRationalizer. Returns nullptr (and fills `error`
  /// if given) when the checkpoint does not match the model.
  static std::unique_ptr<InferenceSession> FromCheckpoint(
      std::unique_ptr<core::RationalizerBase> model, data::Vocabulary vocab,
      const std::string& path, std::string* error = nullptr);

  /// Tokenizes and encodes one text. Empty or all-whitespace texts encode
  /// to a single <unk> token so every request stays servable.
  std::vector<int64_t> Encode(const std::string& text) const;

  /// Serves one text synchronously (no batching). Thread-safe.
  InferenceResult Predict(const std::string& text) const;

  /// Serves a batch of already-encoded requests: the one serving forward,
  /// behind Predict and the micro-batcher. With a cache attached, hits
  /// re-run only the head stages on their stored states, and all misses
  /// run as one padded batch and are stored. Every lookup precedes every
  /// insert, so a sequence given twice misses twice (and leaves one
  /// entry). Records one batch. Thread-safe.
  std::vector<InferenceResult> PredictTokenBatch(
      const std::vector<std::vector<int64_t>>& sequences) const;

  const core::RationalizerBase& model() const { return *model_; }
  const data::Vocabulary& vocab() const { return vocab_; }

  /// Serving statistics for this session (both the naive Predict path and
  /// the micro-batched path record here).
  ServingStats& stats() const { return *stats_; }

  /// Replaces the private stats accumulator with one publishing into
  /// `registry` (not owned, must outlive the session) under a
  /// `{model="model_label"}` label block — per-model serving series on a
  /// shared /metrics registry. net::Router::ServeModel calls this with the
  /// served name. Must be called before the session serves traffic (it
  /// swaps the accumulator, and the batcher caches nothing but reads
  /// stats() concurrently once running); previously recorded counts are
  /// dropped.
  void BindStats(obs::MetricsRegistry* registry,
                 const std::string& model_label);

  /// Attaches the serving cache (not owned, must outlive the session;
  /// net::Router::ServeModel calls this when its cache is on).
  /// Registers this session as a fresh cache model under `label` — a
  /// session always starts cold, so a checkpoint reload (a new session)
  /// can never serve the old session's entries. Like BindStats this must
  /// run before the session serves traffic.
  void EnableCache(ServeCache* cache, const std::string& label);

  /// The cache model id this session writes under (0 = no cache).
  ServeCache::ModelId cache_model_id() const { return cache_model_; }

 private:
  /// Result assembly for hits and misses alike: row `i` of `mask` /
  /// `probs` rendered against `ids`.
  InferenceResult AssembleResult(const std::vector<int64_t>& ids, int64_t i,
                                 const Tensor& mask, const Tensor& probs) const;

  std::unique_ptr<core::RationalizerBase> model_;
  data::Vocabulary vocab_;
  /// unique_ptr so BindStats can rebind.
  mutable std::unique_ptr<ServingStats> stats_;
  ServeCache* cache_ = nullptr;
  ServeCache::ModelId cache_model_ = 0;
};

}  // namespace serve
}  // namespace dar

#endif  // DAR_SERVE_SESSION_H_

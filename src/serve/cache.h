// Serving-path cache: post-encoder hidden states per token sequence.
//
// Serving workloads repeat themselves — health probes, retried requests,
// paginated UIs re-submitting the same review, A/B traffic mirrored to two
// aspect models — and the expensive part of every repeat is the two
// players' recurrent encoders. This cache memoizes the serving forward at
// the cut point the core layer exposes (core::RationalizerBase's
// serving-cache decomposition): one entry per (model, token-id sequence)
// holds the generator's and predictor's post-encoder states [1, T, H] for
// that exact sequence. A hit skips both encoders entirely and re-runs only
// the selection/classification heads. Nothing finer is cached: both players
// embed with frozen pretrained vectors, so a cached embedding row would
// copy a row of a table that is already in memory.
//
// The cache filters the one serving forward
// (InferenceSession::PredictTokenBatch): hits re-run only the heads, and
// all misses run as one padded batch — the same stage calls an uncached
// session makes — whose rows are then stored.
//
// Bit-exactness contract. The serving forward is the composition of the
// cached stages, each sequence's states at its valid positions are the
// same in any padded batch (the batch-composition invariance the
// micro-batcher already certifies), and cached values are byte copies of
// what the cold path computes — so a cached session's responses are
// bit-identical to an uncached session's on the same checkpoint.
// tests/serve_cache_test.cc certifies this differentially over randomized
// request streams, mixed hit/miss batches, forced evictions, forced hash
// collisions, and concurrent checkpoint reloads.
//
// Budget. A full cache holds at most capacity_bytes / 2 bytes of entries
// (payloads plus a fixed per-entry overhead estimate) across all the models
// it serves; past that, the least recently used entries go. capacity_bytes
// is the ceiling a deployment provisions for the cache, and half of it is
// what the entries fill (DESIGN.md §10 records why).
//
// Keying and collisions. Entries are addressed by a 64-bit FNV-1a digest
// of (model id, token ids) but store the full id sequence; a lookup whose
// digest matches but whose ids differ counts a collision and misses — a
// hash collision can cost a recompute, never a wrong answer.
// CacheConfig::sequence_hash_override lets tests force this path.
//
// Invalidation. Every InferenceSession that attaches to the cache gets a
// fresh monotonically increasing model id, which prefixes every key that
// session writes. A checkpoint reload builds a new session, so it can
// never observe the old session's entries; invalidation (swept when a
// net::Router hot-swaps a model) only reclaims the dead bytes early and
// blocks in-flight stragglers from inserting.
//
// Concurrency. One mutex guards the entries, their LRU list and the byte
// budget; a request takes it once to look up and, on a miss, once to
// insert. Payloads are handed out as shared_ptr-to-const so eviction never
// invalidates a reader.
#ifndef DAR_SERVE_CACHE_H_
#define DAR_SERVE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "sync/mutex.h"
#include "tensor/tensor.h"

namespace dar {
namespace serve {

/// Cache behavior knobs. The cache ships disabled: serving is bit-exact
/// with or without it, so turning it on is purely a latency/memory trade.
struct CacheConfig {
  /// Whether a net::Router builds a cache for the models it serves; when
  /// false they run uncached and responses report CacheOutcome::kUncached.
  /// A ServeCache never reads it.
  bool enabled = false;
  /// The cache's memory ceiling. Entries fill at most capacity_bytes / 2,
  /// counting payloads plus a fixed per-entry overhead estimate; the least
  /// recently used go first. A single entry larger than that is still
  /// stored, alone.
  size_t capacity_bytes = size_t{64} << 20;
  /// Test hook: replaces the sequence digest (the model-id prefix is still
  /// mixed in). Forcing a constant digest forces the collision-verification
  /// path.
  std::function<uint64_t(const std::vector<int64_t>&)> sequence_hash_override;
};

/// Serving-stack configuration block (grows alongside the stack).
struct ServeConfig {
  CacheConfig cache;
};

/// What the cache contributed to one request, carried on InferenceResult
/// and surfaced as the X-DAR-Cache response header.
enum class CacheOutcome : uint8_t {
  /// No cache attached: the pre-cache serving path.
  kUncached = 0,
  /// Cache consulted, nothing reused: both encoders ran.
  kMiss = 1,
  /// Stored states reused: both encoders skipped.
  kHit = 2,
};

/// "uncached" | "miss" | "hit".
const char* CacheOutcomeName(CacheOutcome outcome);

/// A cache payload: everything needed to re-run only the head stages for
/// one token sequence. Immutable once published.
struct EncoderStatesEntry {
  /// The exact sequence this entry was computed from (collision check).
  std::vector<int64_t> ids;
  /// Generator post-encoder states [1, T, H_g].
  Tensor gen_states;
  /// Predictor post-encoder states [1, T, H_p] (under the sequence's
  /// deterministic eval mask, which is itself a function of gen_states).
  Tensor pred_states;
};

/// Point-in-time counters for one model's entries.
struct CacheTierStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  /// Digest matches rejected by the full-sequence comparison.
  int64_t collisions = 0;
  int64_t bytes = 0;
  int64_t entries = 0;
};

/// The LRU cache of post-encoder states. One instance serves any number of
/// sessions (the Router owns one per serving stack); all methods are
/// thread-safe.
class ServeCache {
 public:
  /// Identifies one attached session. 0 is never issued ("no model").
  using ModelId = uint64_t;

  /// The `tier` label of every series and the name Stats answers to.
  static constexpr const char* kEncoderTierName = "encoder";

  /// With `metrics` (not owned, must outlive the cache), every registered
  /// model's counters also publish into it:
  ///   serve.cache_hits_total{model=...,tier="encoder"}
  ///   serve.cache_misses_total{model=...,tier="encoder"}
  ///   serve.cache_evictions_total{model=...,tier="encoder"}
  ///   serve.cache_collisions_total{model=...,tier="encoder"}
  ///   serve.cache_bytes{model=...,tier="encoder"}          (gauge)
  /// Each request takes exactly one lookup, so hits and misses count
  /// requests; the hit rate is their ratio.
  explicit ServeCache(CacheConfig config,
                      obs::MetricsRegistry* metrics = nullptr);

  /// Issues a fresh model id for one session under a metrics label.
  /// Fresh ids are never reused, so a reloaded checkpoint (a new session)
  /// starts cold by construction and can never read a stale entry.
  ModelId RegisterModel(const std::string& label);

  /// Marks `model` dead and sweeps its entries: later lookups miss, later
  /// inserts (in-flight requests against a replaced session) are dropped.
  /// Idempotent.
  void InvalidateModel(ModelId model);

  /// The entry for (model, ids), or nullptr (counting a miss). A digest
  /// match with different ids counts a collision *and* a miss. The
  /// returned payload stays valid after eviction.
  std::shared_ptr<const EncoderStatesEntry> LookupEncoderStates(
      ModelId model, const std::vector<int64_t>& ids);

  /// Publishes the two state tensors for (model, ids). Dropped when the
  /// model is dead; a digest collision with a live entry replaces it (the
  /// newer sequence wins).
  void InsertEncoderStates(ModelId model, const std::vector<int64_t>& ids,
                           Tensor gen_states, Tensor pred_states);

  /// Counters for `model`'s entries under the tier name above. Zeroes for
  /// an unknown model or tier. Kept per model id, where the registry
  /// series are per label, which a hot swap reuses.
  CacheTierStats Stats(ModelId model, const std::string& tier) const;

  /// Test hook: overwrites element [0, 0, 0] of the cached generator
  /// states for (model, ids) with NaN, simulating in-memory corruption of
  /// a cached payload. Returns false when the entry is absent. The
  /// serving path's restore sentinels (check::ScanForNonFinite) exist to
  /// catch exactly this.
  bool CorruptEncoderEntryForTesting(ModelId model,
                                     const std::vector<int64_t>& ids);

 private:
  /// One attached session: its liveness and its counters, plus cached
  /// instrument pointers (null without a metrics registry). Addresses are
  /// stable: states are never erased.
  struct ModelState {
    std::string label;
    std::atomic<bool> alive{true};
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> misses{0};
    std::atomic<int64_t> evictions{0};
    std::atomic<int64_t> collisions{0};
    std::atomic<int64_t> bytes{0};
    std::atomic<int64_t> entries{0};
    obs::Counter* hits_counter = nullptr;
    obs::Counter* misses_counter = nullptr;
    obs::Counter* evictions_counter = nullptr;
    obs::Counter* collisions_counter = nullptr;
    obs::Gauge* bytes_gauge = nullptr;
  };
  struct Slot {
    ModelState* owner = nullptr;
    uint64_t digest = 0;
    std::shared_ptr<EncoderStatesEntry> payload;
    size_t bytes = 0;
  };

  uint64_t SequenceDigest(ModelId model,
                          const std::vector<int64_t>& ids) const;
  ModelState* FindModel(ModelId model) const DAR_EXCLUDES(models_mu_);
  void BindInstruments(ModelState& state) const;
  static void RecordLookup(ModelState& state, bool hit);
  static void RecordBytesDelta(ModelState& state, int64_t delta,
                               int64_t entries_delta);

  const CacheConfig config_;
  /// capacity_bytes / 2: the most the entries may hold.
  const size_t budget_bytes_;
  obs::MetricsRegistry* const metrics_;

  /// Guards the entries: LRU list (front = most recent), digest ->
  /// list-position index, and the bytes they hold against the budget.
  sync::Mutex mu_{sync::Rank::kCacheTier, "serve.cache_tier"};
  std::list<Slot> lru_ DAR_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::list<Slot>::iterator> index_
      DAR_GUARDED_BY(mu_);
  size_t bytes_ DAR_GUARDED_BY(mu_) = 0;

  /// Model-table rank sits below the tier rank: FindModel releases
  /// models_mu_ before mu_ is taken (ModelState pointers are stable), so
  /// the two are never actually nested — distinct ranks keep it that way
  /// mechanically.
  mutable sync::Mutex models_mu_{sync::Rank::kCacheTable,
                                 "serve.cache_models"};
  std::unordered_map<ModelId, std::unique_ptr<ModelState>> models_
      DAR_GUARDED_BY(models_mu_);
  ModelId next_model_id_ DAR_GUARDED_BY(models_mu_) = 1;
};

}  // namespace serve
}  // namespace dar

#endif  // DAR_SERVE_CACHE_H_

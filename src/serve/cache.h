// Serving-path cache: embedding rows and post-encoder hidden states.
//
// Serving workloads repeat themselves — health probes, retried requests,
// paginated UIs re-submitting the same review, A/B traffic mirrored to two
// aspect models — and the expensive part of every repeat is the two
// players' recurrent encoders. This cache memoizes the serving forward at
// the two natural cut points the core layer exposes
// (core::RationalizerBase's serving-cache decomposition):
//
//   embedding tier — one entry per (model, table, token id): the [E] row
//       the frozen embedding table maps that token to. Hits assemble the
//       embedded input without touching the table; a request whose
//       sequence misses the encoder tier but reuses rows is a "partial".
//   encoder tier   — one entry per (model, token-id sequence): the
//       generator's and predictor's post-encoder states [1, T, H] for
//       that exact sequence. A hit skips both encoders entirely and
//       re-runs only the selection/classification heads.
//
// The cache filters the one serving forward
// (InferenceSession::PredictTokenBatch): hits re-run only the heads, and
// all misses run as one padded batch whose rows are then stored.
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
// Keying and collisions. Encoder entries are addressed by a 64-bit FNV-1a
// digest of (model id, token ids) but store the full id sequence; a
// lookup whose digest matches but whose ids differ counts a collision
// and misses — a hash collision can cost a recompute, never a wrong
// answer. CacheConfig::sequence_hash_override lets tests force this path.
//
// Invalidation. Every InferenceSession that attaches to the cache gets a
// fresh monotonically increasing model id, which prefixes every key that
// session writes. A checkpoint reload builds a new session, so it can
// never observe the old session's entries; invalidation (swept when a
// net::Router hot-swaps a model) only reclaims the dead bytes early and
// blocks in-flight stragglers from inserting.
//
// Concurrency. Entries are sharded by key digest; each shard holds its
// own mutex, LRU list, and byte budget, so concurrent requests contend
// only when they touch the same shard. Encoder payloads are handed out
// as shared_ptr-to-const so eviction never invalidates a reader.
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
  /// A ServeCache never reads it: once built, it runs both tiers.
  bool enabled = false;
  /// Total byte budget, half per tier, each half split evenly across
  /// shards. The accounting covers payloads plus a fixed per-entry
  /// overhead estimate.
  size_t capacity_bytes = size_t{64} << 20;
  /// Lock striping width. More shards = less contention, coarser budget
  /// granularity.
  int num_shards = 8;
  /// Test hook: replaces the encoder tier's sequence digest (the model-id
  /// prefix is still mixed in). Forcing a constant digest forces the
  /// collision-verification path.
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
  /// Cache consulted, nothing reused.
  kMiss = 1,
  /// Encoder tier missed but at least one embedding row was reused.
  kPartial = 2,
  /// Encoder tier hit: both encoders skipped.
  kHit = 3,
};

/// "uncached" | "miss" | "partial" | "hit".
const char* CacheOutcomeName(CacheOutcome outcome);

/// An encoder-tier payload: everything needed to re-run only the head
/// stages for one token sequence. Immutable once published.
struct EncoderStatesEntry {
  /// The exact sequence this entry was computed from (collision check).
  std::vector<int64_t> ids;
  /// Generator post-encoder states [1, T, H_g].
  Tensor gen_states;
  /// Predictor post-encoder states [1, T, H_p] (under the sequence's
  /// deterministic eval mask, which is itself a function of gen_states).
  Tensor pred_states;
};

/// Point-in-time counters for one (model, tier).
struct CacheTierStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  /// Digest matches rejected by the full-sequence comparison (encoder
  /// tier only; always 0 for the embedding tier).
  int64_t collisions = 0;
  int64_t bytes = 0;
  int64_t entries = 0;
};

/// The two-tier sharded LRU cache. One instance serves any number of
/// sessions (the Router owns one per serving stack); all methods are
/// thread-safe.
class ServeCache {
 public:
  /// Identifies one attached session. 0 is never issued ("no model").
  using ModelId = uint64_t;

  static constexpr const char* kEmbeddingTierName = "embedding";
  static constexpr const char* kEncoderTierName = "encoder";

  /// With `metrics` (not owned, must outlive the cache), every registered
  /// model's counters also publish into it:
  ///   serve.cache_hits_total{model=...,tier=...}
  ///   serve.cache_misses_total{model=...,tier=...}
  ///   serve.cache_evictions_total{model=...,tier=...}
  ///   serve.cache_collisions_total{model=...,tier="encoder"}
  ///   serve.cache_bytes{model=...,tier=...}          (gauge)
  /// The encoder tier takes exactly one lookup per request, so its hits
  /// and misses count requests; the hit rate is their ratio.
  explicit ServeCache(CacheConfig config,
                      obs::MetricsRegistry* metrics = nullptr);

  /// Issues a fresh model id for one session under a metrics label.
  /// Fresh ids are never reused, so a reloaded checkpoint (a new session)
  /// starts cold by construction and can never read a stale entry.
  ModelId RegisterModel(const std::string& label);

  /// Marks `model` dead and sweeps its entries from both tiers: later
  /// lookups miss, later inserts (in-flight requests against a replaced
  /// session) are dropped. Idempotent.
  void InvalidateModel(ModelId model);

  // ---- Embedding tier ------------------------------------------------------

  /// Copies the cached [dim] row for (model, table_tag, token) into `out`
  /// and returns true; returns false (counting a miss) when absent. The
  /// table_tag distinguishes the players' tables (see
  /// InferenceSession::EnableCache for the shared-table optimization).
  bool LookupEmbeddingRow(ModelId model, uint32_t table_tag, int64_t token,
                          float* out, int64_t dim);

  /// Publishes a row copy. Dropped when the model is dead. Re-inserting
  /// an existing key refreshes recency only.
  void InsertEmbeddingRow(ModelId model, uint32_t table_tag, int64_t token,
                          const float* row, int64_t dim);

  // ---- Encoder tier --------------------------------------------------------

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

  // ---- Introspection -------------------------------------------------------

  /// Counters for one (model, tier); tier names above. Zeroes for an
  /// unknown model. Kept per model id, where the registry series are per
  /// label, which a hot swap reuses.
  CacheTierStats Stats(ModelId model, const std::string& tier) const;

  /// Test hook: overwrites element [0, 0, 0] of the cached generator
  /// states for (model, ids) with NaN, simulating in-memory corruption of
  /// a cached payload. Returns false when the entry is absent. The
  /// serving path's restore sentinels (check::ScanForNonFinite) exist to
  /// catch exactly this.
  bool CorruptEncoderEntryForTesting(ModelId model,
                                     const std::vector<int64_t>& ids);

 private:
  struct EmbeddingEntry {
    ModelId model = 0;
    uint32_t table_tag = 0;
    int64_t token = 0;
    std::vector<float> row;
    size_t bytes = 0;
  };
  struct EncoderSlot {
    ModelId model = 0;
    uint64_t digest = 0;
    std::shared_ptr<EncoderStatesEntry> payload;
    size_t bytes = 0;
  };

  /// One lock stripe of one tier: LRU list (front = most recent) plus a
  /// key -> list-position index and byte accounting. All shard mutexes
  /// share one rank (and one contention-counter name): a thread holds at
  /// most one stripe at a time, and the rank checker's equal-rank rule
  /// turns any accidental shard-in-shard nesting into an abort.
  template <typename Entry>
  struct Shard {
    sync::Mutex mu{sync::Rank::kCacheShard, "serve.cache_shard"};
    std::list<Entry> lru DAR_GUARDED_BY(mu);
    std::unordered_map<uint64_t, typename std::list<Entry>::iterator> index
        DAR_GUARDED_BY(mu);
    size_t bytes DAR_GUARDED_BY(mu) = 0;
  };

  /// Per-(model, tier) counters plus cached instrument pointers (null
  /// without a metrics registry).
  struct TierCounters {
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
  struct ModelState {
    std::string label;
    std::atomic<bool> alive{true};
    TierCounters embedding;
    TierCounters encoder;
  };

  uint64_t EmbeddingKey(ModelId model, uint32_t table_tag,
                        int64_t token) const;
  uint64_t SequenceDigest(ModelId model,
                          const std::vector<int64_t>& ids) const;
  Shard<EmbeddingEntry>& EmbeddingShardFor(uint64_t key);
  Shard<EncoderSlot>& EncoderShardFor(uint64_t key);
  size_t TierShardBudget() const;
  ModelState* FindModel(ModelId model) const DAR_EXCLUDES(models_mu_);
  void BindInstruments(ModelState& state) const;
  static void RecordLookup(TierCounters& tc, bool hit);
  static void RecordBytesDelta(TierCounters& tc, int64_t delta,
                               int64_t entries_delta);

  const CacheConfig config_;
  obs::MetricsRegistry* const metrics_;
  std::vector<std::unique_ptr<Shard<EmbeddingEntry>>> embedding_shards_;
  std::vector<std::unique_ptr<Shard<EncoderSlot>>> encoder_shards_;

  /// Model-table rank sits below the shard rank: FindModel releases
  /// models_mu_ before any stripe is touched (ModelState pointers are
  /// stable), so the two are never actually nested — distinct ranks keep
  /// it that way mechanically.
  mutable sync::Mutex models_mu_{sync::Rank::kCacheTable,
                                 "serve.cache_models"};
  std::unordered_map<ModelId, std::unique_ptr<ModelState>> models_
      DAR_GUARDED_BY(models_mu_);
  ModelId next_model_id_ DAR_GUARDED_BY(models_mu_) = 1;
};

}  // namespace serve
}  // namespace dar

#endif  // DAR_SERVE_CACHE_H_

#include "serve/cache.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "tensor/check.h"

namespace dar {
namespace serve {

namespace {

/// Fixed per-entry bookkeeping estimate (list node, index slot, struct
/// fields). Deliberately coarse — the budget is a guard rail, not an
/// allocator audit.
constexpr size_t kEntryOverheadBytes = 96;

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffull;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

const char* CacheOutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kUncached:
      return "uncached";
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kPartial:
      return "partial";
    case CacheOutcome::kHit:
      return "hit";
  }
  return "uncached";
}

ServeCache::ServeCache(CacheConfig config, obs::MetricsRegistry* metrics)
    : config_(std::move(config)), metrics_(metrics) {
  DAR_CHECK_GT(config_.num_shards, 0);
  DAR_CHECK_GT(config_.capacity_bytes, size_t{0});
  embedding_shards_.reserve(static_cast<size_t>(config_.num_shards));
  encoder_shards_.reserve(static_cast<size_t>(config_.num_shards));
  for (int i = 0; i < config_.num_shards; ++i) {
    embedding_shards_.push_back(std::make_unique<Shard<EmbeddingEntry>>());
    encoder_shards_.push_back(std::make_unique<Shard<EncoderSlot>>());
  }
}

ServeCache::ModelId ServeCache::RegisterModel(const std::string& label) {
  auto state = std::make_unique<ModelState>();
  state->label = label;
  if (metrics_ != nullptr) BindInstruments(*state);
  sync::MutexLock lock(models_mu_);
  ModelId id = next_model_id_++;
  models_[id] = std::move(state);
  return id;
}

void ServeCache::BindInstruments(ModelState& state) const {
  auto bind = [&](TierCounters& tc, const char* tier) {
    std::vector<std::pair<std::string, std::string>> labels = {
        {"model", state.label}, {"tier", tier}};
    tc.hits_counter =
        &metrics_->GetCounter(obs::LabeledName("serve.cache_hits_total", labels));
    tc.misses_counter = &metrics_->GetCounter(
        obs::LabeledName("serve.cache_misses_total", labels));
    tc.evictions_counter = &metrics_->GetCounter(
        obs::LabeledName("serve.cache_evictions_total", labels));
    tc.collisions_counter = &metrics_->GetCounter(
        obs::LabeledName("serve.cache_collisions_total", labels));
    tc.bytes_gauge =
        &metrics_->GetGauge(obs::LabeledName("serve.cache_bytes", labels));
  };
  bind(state.embedding, kEmbeddingTierName);
  bind(state.encoder, kEncoderTierName);
}

ServeCache::ModelState* ServeCache::FindModel(ModelId model) const {
  sync::MutexLock lock(models_mu_);
  auto it = models_.find(model);
  // ModelState addresses are stable (unique_ptr values, never erased), so
  // handing the pointer out of the lock is safe.
  return it == models_.end() ? nullptr : it->second.get();
}

void ServeCache::RecordLookup(TierCounters& tc, bool hit) {
  (hit ? tc.hits : tc.misses).fetch_add(1, std::memory_order_relaxed);
  obs::Counter* counter = hit ? tc.hits_counter : tc.misses_counter;
  if (counter != nullptr) counter->Increment();
}

void ServeCache::RecordBytesDelta(TierCounters& tc, int64_t delta,
                                  int64_t entries_delta) {
  int64_t bytes = tc.bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  tc.entries.fetch_add(entries_delta, std::memory_order_relaxed);
  if (tc.bytes_gauge != nullptr) {
    tc.bytes_gauge->Set(static_cast<double>(bytes));
  }
}

uint64_t ServeCache::EmbeddingKey(ModelId model, uint32_t table_tag,
                                  int64_t token) const {
  uint64_t h = kFnvOffset;
  h = FnvMix(h, model);
  h = FnvMix(h, table_tag);
  h = FnvMix(h, static_cast<uint64_t>(token));
  return h;
}

uint64_t ServeCache::SequenceDigest(ModelId model,
                                    const std::vector<int64_t>& ids) const {
  uint64_t h = kFnvOffset;
  h = FnvMix(h, model);
  if (config_.sequence_hash_override) {
    h = FnvMix(h, config_.sequence_hash_override(ids));
    return h;
  }
  h = FnvMix(h, static_cast<uint64_t>(ids.size()));
  for (int64_t id : ids) h = FnvMix(h, static_cast<uint64_t>(id));
  return h;
}

ServeCache::Shard<ServeCache::EmbeddingEntry>& ServeCache::EmbeddingShardFor(
    uint64_t key) {
  return *embedding_shards_[key % embedding_shards_.size()];
}

ServeCache::Shard<ServeCache::EncoderSlot>& ServeCache::EncoderShardFor(
    uint64_t key) {
  return *encoder_shards_[key % encoder_shards_.size()];
}

size_t ServeCache::TierShardBudget() const {
  const size_t per_tier = config_.capacity_bytes / 2;
  return std::max<size_t>(1, per_tier /
                                 static_cast<size_t>(config_.num_shards));
}

bool ServeCache::LookupEmbeddingRow(ModelId model, uint32_t table_tag,
                                    int64_t token, float* out, int64_t dim) {
  ModelState* state = FindModel(model);
  if (state == nullptr || !state->alive) return false;
  uint64_t key = EmbeddingKey(model, table_tag, token);
  Shard<EmbeddingEntry>& shard = EmbeddingShardFor(key);
  bool hit = false;
  {
    sync::MutexLock lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      EmbeddingEntry& e = *it->second;
      // The packed key is a digest too; verify identity before serving.
      if (e.model == model && e.table_tag == table_tag && e.token == token &&
          static_cast<int64_t>(e.row.size()) == dim) {
        std::memcpy(out, e.row.data(), static_cast<size_t>(dim) * sizeof(float));
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        hit = true;
      }
    }
  }
  RecordLookup(state->embedding, hit);
  return hit;
}

void ServeCache::InsertEmbeddingRow(ModelId model, uint32_t table_tag,
                                    int64_t token, const float* row,
                                    int64_t dim) {
  ModelState* state = FindModel(model);
  if (state == nullptr || !state->alive) return;
  uint64_t key = EmbeddingKey(model, table_tag, token);
  Shard<EmbeddingEntry>& shard = EmbeddingShardFor(key);
  size_t budget = TierShardBudget();

  EmbeddingEntry entry;
  entry.model = model;
  entry.table_tag = table_tag;
  entry.token = token;
  entry.row.assign(row, row + dim);
  entry.bytes =
      static_cast<size_t>(dim) * sizeof(float) + kEntryOverheadBytes;

  std::vector<EmbeddingEntry> evicted;
  {
    sync::MutexLock lock(shard.mu);
    // Re-checked under the lock: an InvalidateModel that ran since the
    // check above has already swept this shard.
    if (!state->alive) return;
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Already present (same key): refresh recency, keep the stored row.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    shard.bytes += entry.bytes;
    shard.lru.push_front(std::move(entry));
    shard.index[key] = shard.lru.begin();
    // Evict LRU tails past the budget; the just-inserted entry always
    // survives even when it alone exceeds the shard budget.
    while (shard.bytes > budget && shard.lru.size() > 1) {
      EmbeddingEntry& victim = shard.lru.back();
      shard.bytes -= victim.bytes;
      shard.index.erase(
          EmbeddingKey(victim.model, victim.table_tag, victim.token));
      evicted.push_back(std::move(victim));
      shard.lru.pop_back();
    }
  }
  RecordBytesDelta(state->embedding, static_cast<int64_t>(entry.bytes), 1);
  for (const EmbeddingEntry& victim : evicted) {
    ModelState* vs = FindModel(victim.model);
    if (vs == nullptr) continue;
    vs->embedding.evictions.fetch_add(1, std::memory_order_relaxed);
    if (vs->embedding.evictions_counter != nullptr) {
      vs->embedding.evictions_counter->Increment();
    }
    RecordBytesDelta(vs->embedding, -static_cast<int64_t>(victim.bytes), -1);
  }
}

std::shared_ptr<const EncoderStatesEntry> ServeCache::LookupEncoderStates(
    ModelId model, const std::vector<int64_t>& ids) {
  ModelState* state = FindModel(model);
  if (state == nullptr || !state->alive) return nullptr;
  uint64_t digest = SequenceDigest(model, ids);
  Shard<EncoderSlot>& shard = EncoderShardFor(digest);
  std::shared_ptr<const EncoderStatesEntry> result;
  bool collision = false;
  {
    sync::MutexLock lock(shard.mu);
    auto it = shard.index.find(digest);
    if (it != shard.index.end()) {
      EncoderSlot& slot = *it->second;
      if (slot.model == model && slot.payload->ids == ids) {
        result = slot.payload;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      } else {
        // Same digest, different sequence (or another model's entry):
        // never serve it — recompute instead.
        collision = true;
      }
    }
  }
  if (collision) {
    state->encoder.collisions.fetch_add(1, std::memory_order_relaxed);
    if (state->encoder.collisions_counter != nullptr) {
      state->encoder.collisions_counter->Increment();
    }
  }
  RecordLookup(state->encoder, result != nullptr);
  return result;
}

void ServeCache::InsertEncoderStates(ModelId model,
                                     const std::vector<int64_t>& ids,
                                     Tensor gen_states, Tensor pred_states) {
  ModelState* state = FindModel(model);
  if (state == nullptr || !state->alive) return;
  uint64_t digest = SequenceDigest(model, ids);
  Shard<EncoderSlot>& shard = EncoderShardFor(digest);
  size_t budget = TierShardBudget();

  auto payload = std::make_shared<EncoderStatesEntry>();
  payload->ids = ids;
  payload->gen_states = std::move(gen_states);
  payload->pred_states = std::move(pred_states);

  EncoderSlot slot;
  slot.model = model;
  slot.digest = digest;
  slot.bytes = static_cast<size_t>(payload->gen_states.numel() +
                                   payload->pred_states.numel()) *
                   sizeof(float) +
               ids.size() * sizeof(int64_t) + kEntryOverheadBytes;
  slot.payload = std::move(payload);

  std::vector<EncoderSlot> evicted;
  {
    sync::MutexLock lock(shard.mu);
    // Re-checked under the lock, as in InsertEmbeddingRow.
    if (!state->alive) return;
    auto it = shard.index.find(digest);
    if (it != shard.index.end()) {
      // Digest already occupied: same sequence -> refresh recency; a
      // colliding different sequence -> the newer one replaces it.
      if (it->second->model == model && it->second->payload->ids == ids) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return;
      }
      shard.bytes -= it->second->bytes;
      evicted.push_back(std::move(*it->second));
      shard.lru.erase(it->second);
      shard.index.erase(it);
    }
    shard.bytes += slot.bytes;
    shard.lru.push_front(std::move(slot));
    shard.index[digest] = shard.lru.begin();
    while (shard.bytes > budget && shard.lru.size() > 1) {
      EncoderSlot& victim = shard.lru.back();
      shard.bytes -= victim.bytes;
      shard.index.erase(victim.digest);
      evicted.push_back(std::move(victim));
      shard.lru.pop_back();
    }
  }
  RecordBytesDelta(state->encoder, static_cast<int64_t>(slot.bytes), 1);
  for (const EncoderSlot& victim : evicted) {
    ModelState* vs = FindModel(victim.model);
    if (vs == nullptr) continue;
    vs->encoder.evictions.fetch_add(1, std::memory_order_relaxed);
    if (vs->encoder.evictions_counter != nullptr) {
      vs->encoder.evictions_counter->Increment();
    }
    RecordBytesDelta(vs->encoder, -static_cast<int64_t>(victim.bytes), -1);
  }
}

void ServeCache::InvalidateModel(ModelId model) {
  ModelState* state = FindModel(model);
  if (state == nullptr) return;
  // Stored before any shard is swept: an insert that takes a shard's lock
  // after its sweep sees the store (the lock orders them), and one that
  // takes it before is swept.
  state->alive.store(false, std::memory_order_relaxed);
  for (auto& shard_ptr : embedding_shards_) {
    Shard<EmbeddingEntry>& shard = *shard_ptr;
    int64_t bytes_removed = 0, entries_removed = 0;
    {
      sync::MutexLock lock(shard.mu);
      for (auto it = shard.lru.begin(); it != shard.lru.end();) {
        if (it->model != model) {
          ++it;
          continue;
        }
        shard.bytes -= it->bytes;
        bytes_removed += static_cast<int64_t>(it->bytes);
        ++entries_removed;
        shard.index.erase(EmbeddingKey(it->model, it->table_tag, it->token));
        it = shard.lru.erase(it);
      }
    }
    if (entries_removed > 0) {
      RecordBytesDelta(state->embedding, -bytes_removed, -entries_removed);
    }
  }
  for (auto& shard_ptr : encoder_shards_) {
    Shard<EncoderSlot>& shard = *shard_ptr;
    int64_t bytes_removed = 0, entries_removed = 0;
    {
      sync::MutexLock lock(shard.mu);
      for (auto it = shard.lru.begin(); it != shard.lru.end();) {
        if (it->model != model) {
          ++it;
          continue;
        }
        shard.bytes -= it->bytes;
        bytes_removed += static_cast<int64_t>(it->bytes);
        ++entries_removed;
        shard.index.erase(it->digest);
        it = shard.lru.erase(it);
      }
    }
    if (entries_removed > 0) {
      RecordBytesDelta(state->encoder, -bytes_removed, -entries_removed);
    }
  }
}

CacheTierStats ServeCache::Stats(ModelId model, const std::string& tier) const {
  CacheTierStats out;
  ModelState* state = FindModel(model);
  if (state == nullptr) return out;
  const TierCounters& tc =
      tier == kEmbeddingTierName ? state->embedding : state->encoder;
  out.hits = tc.hits.load(std::memory_order_relaxed);
  out.misses = tc.misses.load(std::memory_order_relaxed);
  out.evictions = tc.evictions.load(std::memory_order_relaxed);
  out.collisions = tc.collisions.load(std::memory_order_relaxed);
  out.bytes = tc.bytes.load(std::memory_order_relaxed);
  out.entries = tc.entries.load(std::memory_order_relaxed);
  return out;
}

bool ServeCache::CorruptEncoderEntryForTesting(
    ModelId model, const std::vector<int64_t>& ids) {
  uint64_t digest = SequenceDigest(model, ids);
  Shard<EncoderSlot>& shard = EncoderShardFor(digest);
  sync::MutexLock lock(shard.mu);
  auto it = shard.index.find(digest);
  if (it == shard.index.end()) return false;
  EncoderSlot& slot = *it->second;
  if (slot.model != model || slot.payload->ids != ids) return false;
  if (slot.payload->gen_states.numel() == 0) return false;
  slot.payload->gen_states.flat(0) = std::numeric_limits<float>::quiet_NaN();
  return true;
}

}  // namespace serve
}  // namespace dar

#include "serve/cache.h"

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
    case CacheOutcome::kHit:
      return "hit";
  }
  return "uncached";
}

ServeCache::ServeCache(CacheConfig config, obs::MetricsRegistry* metrics)
    : config_(std::move(config)),
      budget_bytes_(config_.capacity_bytes / 2),
      metrics_(metrics) {
  DAR_CHECK_GT(config_.capacity_bytes, size_t{0});
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
  std::vector<std::pair<std::string, std::string>> labels = {
      {"model", state.label}, {"tier", kEncoderTierName}};
  state.hits_counter =
      &metrics_->GetCounter(obs::LabeledName("serve.cache_hits_total", labels));
  state.misses_counter = &metrics_->GetCounter(
      obs::LabeledName("serve.cache_misses_total", labels));
  state.evictions_counter = &metrics_->GetCounter(
      obs::LabeledName("serve.cache_evictions_total", labels));
  state.collisions_counter = &metrics_->GetCounter(
      obs::LabeledName("serve.cache_collisions_total", labels));
  state.bytes_gauge =
      &metrics_->GetGauge(obs::LabeledName("serve.cache_bytes", labels));
}

ServeCache::ModelState* ServeCache::FindModel(ModelId model) const {
  sync::MutexLock lock(models_mu_);
  auto it = models_.find(model);
  // ModelState addresses are stable (unique_ptr values, never erased), so
  // handing the pointer out of the lock is safe.
  return it == models_.end() ? nullptr : it->second.get();
}

void ServeCache::RecordLookup(ModelState& state, bool hit) {
  (hit ? state.hits : state.misses).fetch_add(1, std::memory_order_relaxed);
  obs::Counter* counter = hit ? state.hits_counter : state.misses_counter;
  if (counter != nullptr) counter->Increment();
}

void ServeCache::RecordBytesDelta(ModelState& state, int64_t delta,
                                  int64_t entries_delta) {
  int64_t bytes =
      state.bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  state.entries.fetch_add(entries_delta, std::memory_order_relaxed);
  if (state.bytes_gauge != nullptr) {
    state.bytes_gauge->Set(static_cast<double>(bytes));
  }
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

std::shared_ptr<const EncoderStatesEntry> ServeCache::LookupEncoderStates(
    ModelId model, const std::vector<int64_t>& ids) {
  ModelState* state = FindModel(model);
  if (state == nullptr || !state->alive) return nullptr;
  uint64_t digest = SequenceDigest(model, ids);
  std::shared_ptr<const EncoderStatesEntry> result;
  bool collision = false;
  {
    sync::MutexLock lock(mu_);
    auto it = index_.find(digest);
    if (it != index_.end()) {
      Slot& slot = *it->second;
      if (slot.owner == state && slot.payload->ids == ids) {
        result = slot.payload;
        lru_.splice(lru_.begin(), lru_, it->second);
      } else {
        // Same digest, different sequence (or another model's entry):
        // never serve it — recompute instead.
        collision = true;
      }
    }
  }
  if (collision) {
    state->collisions.fetch_add(1, std::memory_order_relaxed);
    if (state->collisions_counter != nullptr) {
      state->collisions_counter->Increment();
    }
  }
  RecordLookup(*state, result != nullptr);
  return result;
}

void ServeCache::InsertEncoderStates(ModelId model,
                                     const std::vector<int64_t>& ids,
                                     Tensor gen_states, Tensor pred_states) {
  ModelState* state = FindModel(model);
  if (state == nullptr || !state->alive) return;
  uint64_t digest = SequenceDigest(model, ids);

  auto payload = std::make_shared<EncoderStatesEntry>();
  payload->ids = ids;
  payload->gen_states = std::move(gen_states);
  payload->pred_states = std::move(pred_states);

  const size_t entry_bytes = static_cast<size_t>(payload->gen_states.numel() +
                                                 payload->pred_states.numel()) *
                                 sizeof(float) +
                             ids.size() * sizeof(int64_t) + kEntryOverheadBytes;
  Slot slot{state, digest, std::move(payload), entry_bytes};

  std::vector<Slot> evicted;
  {
    sync::MutexLock lock(mu_);
    // Re-checked under the lock: an InvalidateModel that ran since the
    // check above has already swept the entries.
    if (!state->alive) return;
    auto it = index_.find(digest);
    if (it != index_.end()) {
      // Digest already occupied: same sequence -> refresh recency; a
      // colliding different sequence -> the newer one replaces it.
      if (it->second->owner == state && it->second->payload->ids == ids) {
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
      }
      bytes_ -= it->second->bytes;
      evicted.push_back(std::move(*it->second));
      lru_.erase(it->second);
      index_.erase(it);
    }
    bytes_ += entry_bytes;
    lru_.push_front(std::move(slot));
    index_[digest] = lru_.begin();
    // Evict LRU tails past the budget; the just-inserted entry always
    // survives even when it alone exceeds the budget.
    while (bytes_ > budget_bytes_ && lru_.size() > 1) {
      Slot& victim = lru_.back();
      bytes_ -= victim.bytes;
      index_.erase(victim.digest);
      evicted.push_back(std::move(victim));
      lru_.pop_back();
    }
  }
  RecordBytesDelta(*state, static_cast<int64_t>(entry_bytes), 1);
  for (const Slot& victim : evicted) {
    ModelState& owner = *victim.owner;
    owner.evictions.fetch_add(1, std::memory_order_relaxed);
    if (owner.evictions_counter != nullptr) {
      owner.evictions_counter->Increment();
    }
    RecordBytesDelta(owner, -static_cast<int64_t>(victim.bytes), -1);
  }
}

void ServeCache::InvalidateModel(ModelId model) {
  ModelState* state = FindModel(model);
  if (state == nullptr) return;
  // Stored before the sweep: an insert that takes mu_ after the sweep sees
  // the store (the lock orders them), and one that takes it before is
  // swept.
  state->alive.store(false, std::memory_order_relaxed);
  int64_t bytes_removed = 0, entries_removed = 0;
  {
    sync::MutexLock lock(mu_);
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->owner != state) {
        ++it;
        continue;
      }
      bytes_ -= it->bytes;
      bytes_removed += static_cast<int64_t>(it->bytes);
      ++entries_removed;
      index_.erase(it->digest);
      it = lru_.erase(it);
    }
  }
  if (entries_removed > 0) {
    RecordBytesDelta(*state, -bytes_removed, -entries_removed);
  }
}

CacheTierStats ServeCache::Stats(ModelId model, const std::string& tier) const {
  CacheTierStats out;
  ModelState* state = FindModel(model);
  if (state == nullptr || tier != kEncoderTierName) return out;
  out.hits = state->hits.load(std::memory_order_relaxed);
  out.misses = state->misses.load(std::memory_order_relaxed);
  out.evictions = state->evictions.load(std::memory_order_relaxed);
  out.collisions = state->collisions.load(std::memory_order_relaxed);
  out.bytes = state->bytes.load(std::memory_order_relaxed);
  out.entries = state->entries.load(std::memory_order_relaxed);
  return out;
}

bool ServeCache::CorruptEncoderEntryForTesting(
    ModelId model, const std::vector<int64_t>& ids) {
  ModelState* state = FindModel(model);
  if (state == nullptr) return false;
  uint64_t digest = SequenceDigest(model, ids);
  sync::MutexLock lock(mu_);
  auto it = index_.find(digest);
  if (it == index_.end()) return false;
  Slot& slot = *it->second;
  if (slot.owner != state || slot.payload->ids != ids) return false;
  if (slot.payload->gen_states.numel() == 0) return false;
  slot.payload->gen_states.flat(0) = std::numeric_limits<float>::quiet_NaN();
  return true;
}

}  // namespace serve
}  // namespace dar

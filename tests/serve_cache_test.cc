// Differential certification of the serving cache (src/serve/cache.h).
//
// The cache's contract is absolute: a cached session's responses are
// bit-identical to an uncached session's on the same checkpoint — same
// label, same probability bits, same rationale mask — across randomized
// request streams (repeats, shared prefixes), forced evictions, forced
// hash collisions, and concurrent checkpoint reloads. Every test here
// compares against an uncached reference restored from the same
// checkpoint file, at float-bit granularity.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/sentinel.h"
#include "core/baselines/spectra.h"
#include "core/baselines/vib.h"
#include "core/dar.h"
#include "core/rnp.h"
#include "core/sentence_level.h"
#include "datasets/beer.h"
#include "eval/experiment.h"
#include "net/routes.h"
#include "serve/cache.h"
#include "serve/registry.h"
#include "serve/session.h"

namespace dar {
namespace serve {
namespace {

datasets::SyntheticDataset TinyDataset(uint64_t seed = 3) {
  return datasets::MakeBeerDataset(datasets::BeerAspect::kAppearance,
                                   {.train = 40, .dev = 10, .test = 10}, seed);
}

core::TrainConfig TinyConfig(uint64_t seed = 3) {
  core::TrainConfig config;
  config.embedding_dim = 16;
  config.hidden_dim = 8;
  config.seed = seed;
  return config;
}

enum class Method { kRnp, kDar, kVib, kSpectra, kRnpStar };

/// `period_id` is the sentence delimiter RNP* selects between; the other
/// methods ignore it.
std::unique_ptr<core::RationalizerBase> MakeModel(
    Method method, const Tensor& embeddings, core::TrainConfig config,
    int64_t period_id = data::Vocabulary::kUnkId) {
  switch (method) {
    case Method::kRnp:
      return std::make_unique<core::RnpModel>(embeddings, config);
    case Method::kDar:
      return std::make_unique<core::DarModel>(embeddings, config);
    case Method::kVib:
      return std::make_unique<core::VibModel>(embeddings, config);
    case Method::kSpectra:
      return std::make_unique<core::SpectraModel>(embeddings, config);
    case Method::kRnpStar:
      return std::make_unique<core::SentenceRnpModel>(embeddings, config,
                                                      period_id);
  }
  return nullptr;
}

/// A cached/uncached session pair restored from the SAME checkpoint file,
/// plus the cache the cached half is attached to.
struct DifferentialPair {
  std::unique_ptr<ServeCache> cache;
  std::unique_ptr<InferenceSession> cached;
  std::unique_ptr<InferenceSession> uncached;
  ServeCache::ModelId model_id = 0;
};

DifferentialPair MakePair(Method method, CacheConfig cache_config = {},
                          uint64_t seed = 3) {
  datasets::SyntheticDataset dataset = TinyDataset(seed);
  core::TrainConfig config = TinyConfig(seed);
  Tensor embeddings = eval::BuildEmbeddings(dataset, config);

  const int64_t period_id = dataset.vocab.IdOrUnk(".");
  auto source = MakeModel(method, embeddings, config, period_id);
  std::string path = ::testing::TempDir() + "/serve_cache_diff_" +
                     std::to_string(static_cast<int>(method)) + "_" +
                     std::to_string(seed) + ".ckpt";
  EXPECT_TRUE(core::SaveRationalizer(*source, path));

  DifferentialPair pair;
  pair.cache = std::make_unique<ServeCache>(cache_config);
  // Different construction seeds prove the restore (not shared init luck)
  // is what makes the two sessions agree.
  core::TrainConfig cached_config = TinyConfig(seed + 1000);
  core::TrainConfig uncached_config = TinyConfig(seed + 2000);
  std::string error;
  pair.cached = InferenceSession::FromCheckpoint(
      MakeModel(method, embeddings, cached_config, period_id), dataset.vocab,
      path, &error);
  EXPECT_NE(pair.cached, nullptr) << error;
  pair.uncached = InferenceSession::FromCheckpoint(
      MakeModel(method, embeddings, uncached_config, period_id),
      dataset.vocab, path, &error);
  EXPECT_NE(pair.uncached, nullptr) << error;
  pair.cached->EnableCache(pair.cache.get(), "diff");
  pair.model_id = pair.cached->cache_model_id();
  std::remove(path.c_str());
  return pair;
}

uint32_t FloatBits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// True when the two results agree at float-bit granularity.
bool BitIdentical(const InferenceResult& a, const InferenceResult& b) {
  if (a.label != b.label) return false;
  if (FloatBits(a.confidence) != FloatBits(b.confidence)) return false;
  if (a.probs.size() != b.probs.size()) return false;
  for (size_t i = 0; i < a.probs.size(); ++i) {
    if (FloatBits(a.probs[i]) != FloatBits(b.probs[i])) return false;
  }
  return a.mask == b.mask && a.tokens == b.tokens &&
         a.spans.size() == b.spans.size() &&
         a.rationale_text == b.rationale_text;
}

void ExpectBitIdentical(const InferenceResult& a, const InferenceResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.label, b.label) << what;
  EXPECT_EQ(FloatBits(a.confidence), FloatBits(b.confidence)) << what;
  ASSERT_EQ(a.probs.size(), b.probs.size()) << what;
  for (size_t i = 0; i < a.probs.size(); ++i) {
    EXPECT_EQ(FloatBits(a.probs[i]), FloatBits(b.probs[i]))
        << what << " probs[" << i << "]";
  }
  EXPECT_EQ(a.mask, b.mask) << what;
  EXPECT_EQ(a.tokens, b.tokens) << what;
  EXPECT_EQ(a.rationale_text, b.rationale_text) << what;
}

/// Builds a text of `count` distinct in-vocabulary words starting at
/// vocab id `first` (ids 0/1 are <pad>/<unk>).
std::string DistinctText(const data::Vocabulary& vocab, int64_t first,
                         int64_t count) {
  std::string text;
  for (int64_t i = 0; i < count; ++i) {
    if (i) text += ' ';
    text += vocab.Token(2 + ((first + i) % (vocab.size() - 2)));
  }
  return text;
}

/// A randomized request stream over `base` texts: repeats (hot keys) and
/// shared-prefix variants (new sequences over words already served).
std::vector<std::string> RandomStream(const std::vector<std::string>& base,
                                      size_t length, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<std::string> stream;
  stream.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    const std::string& pick =
        base[rng.Below(static_cast<uint32_t>(base.size()))];
    switch (rng.Below(4)) {
      case 0: {
        // Shared-prefix variant: the same words plus a one-word suffix —
        // a different sequence, so a miss.
        const std::string& other =
            base[rng.Below(static_cast<uint32_t>(base.size()))];
        size_t space = other.find(' ');
        stream.push_back(pick + ' ' + other.substr(0, space));
        break;
      }
      default:
        stream.push_back(pick);
    }
  }
  return stream;
}

// ---- Differential certification --------------------------------------------

TEST(ServeCacheDifferentialTest, RandomizedStreamsBitIdenticalAcrossMethods) {
  for (Method method : {Method::kRnp, Method::kDar, Method::kVib}) {
    DifferentialPair pair = MakePair(method);
    ASSERT_NE(pair.cached, nullptr);
    ASSERT_NE(pair.uncached, nullptr);

    std::vector<std::string> base;
    for (int64_t i = 0; i < 12; ++i) {
      base.push_back(
          DistinctText(pair.cached->vocab(), i * 7, 3 + (i % 9)));
    }
    std::vector<std::string> stream = RandomStream(base, 80, /*seed=*/41);
    for (size_t i = 0; i < stream.size(); ++i) {
      ExpectBitIdentical(pair.cached->Predict(stream[i]),
                         pair.uncached->Predict(stream[i]),
                         "method=" + std::to_string(static_cast<int>(method)) +
                             " request " + std::to_string(i));
    }
    // The stream's repeats must actually have exercised the fast path.
    CacheTierStats enc =
        pair.cache->Stats(pair.model_id, ServeCache::kEncoderTierName);
    EXPECT_GT(enc.hits, 0) << "stream never hit the encoder tier";
  }
}

TEST(ServeCacheDifferentialTest, BatchedRequestsMatchUncachedBatches) {
  // RNP and DAR use the base selection rule; VIB, SPECTRA and RNP* override
  // EvalMaskFromStatesConst, the stage a hit replays on restored states.
  for (Method method : {Method::kRnp, Method::kDar, Method::kVib,
                        Method::kSpectra, Method::kRnpStar}) {
    DifferentialPair pair = MakePair(method);
    ASSERT_NE(pair.cached, nullptr);
    ASSERT_NE(pair.uncached, nullptr);
    const std::string what =
        "method=" + std::to_string(static_cast<int>(method));
    const data::Vocabulary& vocab = pair.cached->vocab();
    ASSERT_GT(vocab.size(), 110) << "fresh texts below need unused words";

    std::vector<std::vector<int64_t>> sequences;
    for (int64_t i = 0; i < 10; ++i) {
      sequences.push_back(
          pair.cached->Encode(DistinctText(vocab, i * 3, 2 + (i % 7))));
    }
    // Twice: the second pass serves fully from the encoder tier, and both
    // passes must equal the uncached padded-batch forward.
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<InferenceResult> cached =
          pair.cached->PredictTokenBatch(sequences);
      std::vector<InferenceResult> uncached =
          pair.uncached->PredictTokenBatch(sequences);
      ASSERT_EQ(cached.size(), uncached.size());
      for (size_t i = 0; i < cached.size(); ++i) {
        ExpectBitIdentical(cached[i], uncached[i],
                           what + " pass " + std::to_string(pass) + " row " +
                               std::to_string(i));
        if (pass == 1) {
          EXPECT_EQ(cached[i].cache, CacheOutcome::kHit);
        }
      }
    }

    // One call mixing hits with new sequences of other lengths (words no
    // earlier request used; the first has two sentences for RNP*), one of
    // them twice. The hits replay their stored states; the four misses run
    // as one padded batch. The duplicate misses too, because every lookup
    // runs before any insert.
    const std::vector<std::string> fresh = {
        DistinctText(vocab, 60, 5) + " . " + DistinctText(vocab, 65, 5),
        DistinctText(vocab, 75, 4), DistinctText(vocab, 90, 9)};
    const std::vector<std::vector<int64_t>> mixed = {
        sequences[2],
        pair.cached->Encode(fresh[0]),
        sequences[7],
        pair.cached->Encode(fresh[1]),
        pair.cached->Encode(fresh[2]),
        pair.cached->Encode(fresh[1])};
    ASSERT_EQ(mixed[1].size(), 11u);
    const std::vector<CacheOutcome> outcomes = {
        CacheOutcome::kHit,  CacheOutcome::kMiss, CacheOutcome::kHit,
        CacheOutcome::kMiss, CacheOutcome::kMiss, CacheOutcome::kMiss};
    std::vector<InferenceResult> cached = pair.cached->PredictTokenBatch(mixed);
    std::vector<InferenceResult> uncached =
        pair.uncached->PredictTokenBatch(mixed);
    ASSERT_EQ(cached.size(), mixed.size());
    ASSERT_EQ(uncached.size(), mixed.size());
    for (size_t i = 0; i < mixed.size(); ++i) {
      const std::string row = what + " mixed row " + std::to_string(i);
      EXPECT_EQ(cached[i].cache, outcomes[i]) << row;
      ExpectBitIdentical(cached[i], uncached[i], row);
    }
    // Ten entries from the first pass, one per distinct new sequence.
    EXPECT_EQ(
        pair.cache->Stats(pair.model_id, ServeCache::kEncoderTierName).entries,
        13)
        << what;

    // A B=1 request for a sequence stored from the padded miss batch (as
    // [1, T, H] slices, the shorter ones cut from padded rows) hits.
    for (const std::string& text : fresh) {
      InferenceResult single = pair.cached->Predict(text);
      EXPECT_EQ(single.cache, CacheOutcome::kHit) << what << " " << text;
      ExpectBitIdentical(single, pair.uncached->Predict(text),
                         what + " single " + text);
    }
  }
}

TEST(ServeCacheDifferentialTest, ForcedEvictionsStayBitIdentical) {
  CacheConfig config;
  // A few KB: a working set of 40 sequences cannot fit, so the repeat pass
  // recomputes through evicted keys constantly.
  config.capacity_bytes = 8 * 1024;
  DifferentialPair pair = MakePair(Method::kRnp, config);

  std::vector<std::string> texts;
  for (int64_t i = 0; i < 40; ++i) {
    texts.push_back(DistinctText(pair.cached->vocab(), i * 5, 4 + (i % 8)));
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& text : texts) {
      ExpectBitIdentical(pair.cached->Predict(text),
                         pair.uncached->Predict(text), "eviction stream");
    }
  }
  CacheTierStats enc =
      pair.cache->Stats(pair.model_id, ServeCache::kEncoderTierName);
  EXPECT_GT(enc.evictions, 0) << "capacity was meant to force evictions";
  EXPECT_LE(enc.bytes, static_cast<int64_t>(config.capacity_bytes / 2));
}

TEST(ServeCacheDifferentialTest, HashCollisionsVerifiedAndRejected) {
  CacheConfig config;
  // Every sequence digests to the same value: every cross-sequence lookup
  // is a collision the full-id comparison must reject.
  config.sequence_hash_override = [](const std::vector<int64_t>&) {
    return uint64_t{42};
  };
  DifferentialPair pair = MakePair(Method::kRnp, config);

  std::string a = DistinctText(pair.cached->vocab(), 0, 5);
  std::string b = DistinctText(pair.cached->vocab(), 10, 5);
  ASSERT_NE(a, b);

  ExpectBitIdentical(pair.cached->Predict(a), pair.uncached->Predict(a),
                     "collision A cold");
  // Same sequence, same digest, ids verify: a genuine hit.
  InferenceResult repeat = pair.cached->Predict(a);
  EXPECT_EQ(repeat.cache, CacheOutcome::kHit);
  // Different sequence, same digest: must NOT serve A's states.
  ExpectBitIdentical(pair.cached->Predict(b), pair.uncached->Predict(b),
                     "collision B rejects A's entry");
  // B displaced A under the shared digest; A must again recompute, not
  // serve B's states.
  ExpectBitIdentical(pair.cached->Predict(a), pair.uncached->Predict(a),
                     "collision A rejects B's entry");

  CacheTierStats enc =
      pair.cache->Stats(pair.model_id, ServeCache::kEncoderTierName);
  EXPECT_GE(enc.collisions, 2);
  EXPECT_EQ(enc.hits, 1);
}

// ---- Outcome classification ------------------------------------------------

TEST(ServeCacheOutcomeTest, MissThenHitThenMiss) {
  DifferentialPair pair = MakePair(Method::kRnp);
  const data::Vocabulary& vocab = pair.cached->vocab();

  std::string text = DistinctText(vocab, 0, 6);
  // A session with no cache attached serves the pre-cache path.
  EXPECT_EQ(pair.uncached->Predict(text).cache, CacheOutcome::kUncached);
  EXPECT_EQ(pair.cached->Predict(text).cache, CacheOutcome::kMiss);
  EXPECT_EQ(pair.cached->Predict(text).cache, CacheOutcome::kHit);
  // Same words, different order: a different sequence, so a miss.
  std::string permuted = DistinctText(vocab, 3, 3) + ' ' +
                         DistinctText(vocab, 0, 3);
  EXPECT_EQ(pair.cached->Predict(permuted).cache, CacheOutcome::kMiss);
  // Fresh words again: a clean miss.
  EXPECT_EQ(pair.cached->Predict(DistinctText(vocab, 40, 6)).cache,
            CacheOutcome::kMiss);
}

TEST(ServeCacheOutcomeTest, OutcomeNames) {
  EXPECT_STREQ(CacheOutcomeName(CacheOutcome::kUncached), "uncached");
  EXPECT_STREQ(CacheOutcomeName(CacheOutcome::kMiss), "miss");
  EXPECT_STREQ(CacheOutcomeName(CacheOutcome::kHit), "hit");
}

// ---- Sentinels on the cache-restore path -----------------------------------

TEST(ServeCacheSentinelTest, CorruptedEntryRecordedInRecordMode) {
  DifferentialPair pair = MakePair(Method::kRnp);
  std::string text = DistinctText(pair.cached->vocab(), 0, 5);
  std::vector<int64_t> ids = pair.cached->Encode(text);
  pair.cached->Predict(text);  // warm
  ASSERT_TRUE(pair.cache->CorruptEncoderEntryForTesting(pair.model_id, ids));

  check::DrainSentinelFindings();
  check::SetSentinelMode(check::SentinelMode::kRecord);
  pair.cached->Predict(text);
  check::SetSentinelMode(check::SentinelMode::kOff);

  std::vector<check::SentinelFinding> findings =
      check::DrainSentinelFindings();
  bool found = false;
  for (const check::SentinelFinding& f : findings) {
    if (f.op == "serve.cache_restore") found = true;
  }
  EXPECT_TRUE(found)
      << "corrupted cached states must be attributed to the restore scan";
}

TEST(ServeCacheSentinelTest, OffModeStillServes) {
  DifferentialPair pair = MakePair(Method::kRnp);
  std::string text = DistinctText(pair.cached->vocab(), 0, 5);
  std::vector<int64_t> ids = pair.cached->Encode(text);
  pair.cached->Predict(text);
  ASSERT_TRUE(pair.cache->CorruptEncoderEntryForTesting(pair.model_id, ids));
  // kOff: no scan, the request completes (the poisoned value propagates —
  // exactly why the record/trap modes exist).
  check::SetSentinelMode(check::SentinelMode::kOff);
  InferenceResult r = pair.cached->Predict(text);
  EXPECT_EQ(r.cache, CacheOutcome::kHit);
}

TEST(ServeCacheSentinelDeathTest, TrapModeAbortsOnCorruptedEntry) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  DifferentialPair pair = MakePair(Method::kRnp);
  std::string text = DistinctText(pair.cached->vocab(), 0, 5);
  std::vector<int64_t> ids = pair.cached->Encode(text);
  pair.cached->Predict(text);
  ASSERT_TRUE(pair.cache->CorruptEncoderEntryForTesting(pair.model_id, ids));
  EXPECT_DEATH(
      {
        check::SetSentinelMode(check::SentinelMode::kTrap);
        pair.cached->Predict(text);
      },
      "serve.cache_restore");
  check::SetSentinelMode(check::SentinelMode::kOff);
}

// ---- LRU mechanics and the budget -----------------------------------------

/// Entry for the one-token sequence {token}: two [1, 1, 4] state tensors
/// whose first element is `token`. Each takes 2 * 4 floats + 1 id + the
/// 96-byte overhead estimate = 136 bytes of the budget.
constexpr size_t kSmallEntryBytes = 2 * 4 * sizeof(float) + sizeof(int64_t) + 96;

void InsertSmallEntry(ServeCache& cache, ServeCache::ModelId model,
                      int64_t token) {
  Tensor gen(Shape{1, 1, 4});
  gen.flat(0) = static_cast<float>(token);
  cache.InsertEncoderStates(model, {token}, std::move(gen),
                            Tensor(Shape{1, 1, 4}));
}

TEST(ServeCacheLruTest, MostRecentSurvivesEviction) {
  CacheConfig config;
  // Entries fill half the capacity: two of them.
  config.capacity_bytes = 2 * 2 * kSmallEntryBytes;
  ServeCache cache(config);
  ServeCache::ModelId model = cache.RegisterModel("lru");

  for (int64_t token = 0; token < 8; ++token) {
    InsertSmallEntry(cache, model, token);
    // The just-inserted entry must always be resident.
    std::shared_ptr<const EncoderStatesEntry> entry =
        cache.LookupEncoderStates(model, {token});
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->gen_states.flat(0), static_cast<float>(token));
  }
  CacheTierStats enc = cache.Stats(model, ServeCache::kEncoderTierName);
  EXPECT_GT(enc.evictions, 0);
  EXPECT_LE(enc.entries, 2);
  // Oldest entries are gone; the newest survives.
  EXPECT_EQ(cache.LookupEncoderStates(model, {0}), nullptr);
  EXPECT_NE(cache.LookupEncoderStates(model, {7}), nullptr);
}

TEST(ServeCacheLruTest, LookupRefreshesRecency) {
  CacheConfig config;
  config.capacity_bytes = 2 * 2 * kSmallEntryBytes;
  ServeCache cache(config);
  ServeCache::ModelId model = cache.RegisterModel("lru");

  InsertSmallEntry(cache, model, 1);
  InsertSmallEntry(cache, model, 2);
  // Touch 1 so 2 becomes the LRU victim.
  ASSERT_NE(cache.LookupEncoderStates(model, {1}), nullptr);
  InsertSmallEntry(cache, model, 3);
  EXPECT_NE(cache.LookupEncoderStates(model, {1}), nullptr);
  EXPECT_EQ(cache.LookupEncoderStates(model, {2}), nullptr);
}

// The budget rule (serve/cache.h): a full cache holds at most
// capacity_bytes / 2 bytes of entries, summed over every model it serves,
// and fills that half rather than stopping short of it.
TEST(ServeCacheLruTest, FullCacheHoldsHalfTheCapacity) {
  CacheConfig config;
  config.capacity_bytes = 64 * kSmallEntryBytes;
  ServeCache cache(config);
  const ServeCache::ModelId a = cache.RegisterModel("a");
  const ServeCache::ModelId b = cache.RegisterModel("b");

  for (int64_t token = 0; token < 200; ++token) {
    InsertSmallEntry(cache, token % 2 == 0 ? a : b, token);
    const CacheTierStats sa = cache.Stats(a, ServeCache::kEncoderTierName);
    const CacheTierStats sb = cache.Stats(b, ServeCache::kEncoderTierName);
    ASSERT_LE(sa.bytes + sb.bytes,
              static_cast<int64_t>(config.capacity_bytes / 2))
        << "after insert " << token;
  }
  const CacheTierStats sa = cache.Stats(a, ServeCache::kEncoderTierName);
  const CacheTierStats sb = cache.Stats(b, ServeCache::kEncoderTierName);
  EXPECT_EQ(sa.entries + sb.entries, 32);
  EXPECT_EQ(sa.bytes + sb.bytes,
            static_cast<int64_t>(config.capacity_bytes / 2));
  EXPECT_EQ(sa.evictions + sb.evictions, 200 - 32);
  // The encoder tier is the only one: any other name reads zeroes.
  EXPECT_EQ(cache.Stats(a, "embedding").entries, 0);
}

// ---- Invalidation and reload ------------------------------------------------

/// A router whose cache (default capacity) every model it serves joins.
net::RouterConfig CachedRouterConfig() {
  net::RouterConfig config;
  config.serve.cache.enabled = true;
  return config;
}

TEST(ServeCacheInvalidationTest, RegistryReloadStartsColdAndSweeps) {
  ModelRegistry registry;
  datasets::SyntheticDataset dataset = TinyDataset();
  core::TrainConfig model_config = TinyConfig();
  Tensor embeddings = eval::BuildEmbeddings(dataset, model_config);
  auto make_session = [&](uint64_t seed) {
    core::TrainConfig c = TinyConfig(seed);
    return std::make_shared<InferenceSession>(
        MakeModel(Method::kRnp, embeddings, c), dataset.vocab);
  };

  {
    net::Router router(registry, CachedRouterConfig());
    ServeCache& cache = *router.cache();
    auto first = make_session(3);
    router.ServeModel("m", first);
    ServeCache::ModelId first_id = first->cache_model_id();
    std::string text = DistinctText(first->vocab(), 0, 5);
    registry.Predict("m", text);
    EXPECT_GT(cache.Stats(first_id, ServeCache::kEncoderTierName).entries, 0);

    // Hot swap = new cache model id, old entries swept.
    auto second = make_session(17);
    router.ServeModel("m", second);
    ServeCache::ModelId second_id = second->cache_model_id();
    EXPECT_NE(first_id, second_id);
    EXPECT_EQ(cache.Stats(first_id, ServeCache::kEncoderTierName).entries, 0);
    EXPECT_EQ(cache.Stats(first_id, ServeCache::kEncoderTierName).bytes, 0);

    // The reloaded model starts cold — its first request is a miss even
    // though the old model served the same text.
    std::optional<InferenceResult> r = registry.Predict("m", text);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->cache, CacheOutcome::kMiss);

    // Late inserts from the invalidated session are dropped.
    first->Predict(text);
    EXPECT_EQ(cache.Stats(first_id, ServeCache::kEncoderTierName).entries, 0);
  }
  // The router's teardown takes the model it served (and whose cache
  // entries died with it) out of the registry.
  EXPECT_FALSE(registry.Contains("m"));
}

// An insert checks that its model is alive before it takes the shard lock.
// An invalidation between the two has already swept that shard, so the
// insert must check again under the lock. Before it did, it left a dead
// entry that only LRU eviction reclaimed.
TEST(ServeCacheInvalidationTest, InsertRacingAnInvalidationIsDropped) {
  ServeCache* target = nullptr;
  ServeCache::ModelId model = 0;
  bool invalidate_in_digest = false;
  CacheConfig config;
  // The encoder insert digests its sequence between the check and the
  // lock: invalidate the model right there.
  config.sequence_hash_override = [&](const std::vector<int64_t>&) {
    if (invalidate_in_digest) {
      invalidate_in_digest = false;
      target->InvalidateModel(model);
    }
    return uint64_t{42};
  };
  ServeCache cache(config);
  target = &cache;
  model = cache.RegisterModel("m");

  invalidate_in_digest = true;
  cache.InsertEncoderStates(model, {5, 6, 7}, Tensor(Shape{1, 3, 4}),
                            Tensor(Shape{1, 3, 4}));
  ASSERT_FALSE(invalidate_in_digest) << "the insert never took its digest";
  CacheTierStats enc = cache.Stats(model, ServeCache::kEncoderTierName);
  EXPECT_EQ(enc.entries, 0);
  EXPECT_EQ(enc.bytes, 0);
}

// ---- Concurrency (the TSan lane runs this) ----------------------------------

TEST(ServeCacheConcurrencyTest, EightClientsTwoModelsConcurrentReload) {
  net::RouterConfig config = CachedRouterConfig();
  config.serve.cache.capacity_bytes = 1 << 20;
  ModelRegistry registry;
  net::Router router(registry, config);

  datasets::SyntheticDataset dataset = TinyDataset();
  Tensor embeddings = eval::BuildEmbeddings(dataset, TinyConfig());
  const std::vector<std::string> names = {"m0", "m1"};
  const std::vector<uint64_t> gen1_seeds = {3, 7};
  const std::vector<uint64_t> gen2_seeds = {13, 17};

  auto make_session = [&](uint64_t seed) {
    return std::make_shared<InferenceSession>(
        MakeModel(Method::kRnp, embeddings, TinyConfig(seed)), dataset.vocab);
  };
  // Uncached references for both checkpoint generations of both models.
  std::vector<std::unique_ptr<InferenceSession>> gen1_ref, gen2_ref;
  for (size_t m = 0; m < 2; ++m) {
    gen1_ref.push_back(std::make_unique<InferenceSession>(
        MakeModel(Method::kRnp, embeddings, TinyConfig(gen1_seeds[m])),
        dataset.vocab));
    gen2_ref.push_back(std::make_unique<InferenceSession>(
        MakeModel(Method::kRnp, embeddings, TinyConfig(gen2_seeds[m])),
        dataset.vocab));
  }

  std::vector<std::string> texts;
  for (int64_t i = 0; i < 8; ++i) {
    texts.push_back(DistinctText(dataset.vocab, i * 3, 3 + (i % 5)));
  }
  // Expected responses per (model, generation, text), computed uncached.
  std::vector<std::vector<InferenceResult>> gen1_expected(2), gen2_expected(2);
  for (size_t m = 0; m < 2; ++m) {
    for (const std::string& text : texts) {
      gen1_expected[m].push_back(gen1_ref[m]->Predict(text));
      gen2_expected[m].push_back(gen2_ref[m]->Predict(text));
    }
  }

  router.ServeModel(names[0], make_session(gen1_seeds[0]));
  router.ServeModel(names[1], make_session(gen1_seeds[1]));

  std::atomic<int> mismatches{0};
  std::atomic<bool> start{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&, c]() {
      while (!start.load()) std::this_thread::yield();
      Pcg32 rng(static_cast<uint64_t>(1000 + c));
      for (int i = 0; i < 60; ++i) {
        size_t m = (static_cast<size_t>(c) + static_cast<size_t>(i)) % 2;
        size_t t = rng.Below(static_cast<uint32_t>(texts.size()));
        std::optional<InferenceResult> r =
            registry.Predict(names[m], texts[t]);
        if (!r.has_value()) {
          ++mismatches;
          continue;
        }
        // During the hot swap a response may come from either checkpoint
        // generation — but never from a mixture, and never stale states
        // under the new generation's id.
        if (!BitIdentical(*r, gen1_expected[m][t]) &&
            !BitIdentical(*r, gen2_expected[m][t])) {
          ++mismatches;
        }
      }
    });
  }
  start.store(true);
  // Concurrent checkpoint reload of both models while clients hammer.
  router.ServeModel(names[0], make_session(gen2_seeds[0]));
  router.ServeModel(names[1], make_session(gen2_seeds[1]));
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // After the reload settles every response matches generation 2 exactly
  // (warm pass immediately after a cold pass: hits must stay exact too).
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t m = 0; m < 2; ++m) {
      for (size_t t = 0; t < texts.size(); ++t) {
        std::optional<InferenceResult> r =
            registry.Predict(names[m], texts[t]);
        ASSERT_TRUE(r.has_value());
        ExpectBitIdentical(*r, gen2_expected[m][t],
                           "post-reload model " + names[m] + " text " +
                               std::to_string(t));
      }
    }
  }
}

// ---- Metrics & stats surfaces ------------------------------------------------

TEST(ServeCacheMetricsTest, PrometheusExposesPerModelPerTierSeries) {
  ModelRegistry registry;
  net::Router router(registry, CachedRouterConfig());
  obs::MetricsRegistry& metrics = router.metrics();
  ServeCache& cache = *router.cache();

  datasets::SyntheticDataset dataset = TinyDataset();
  Tensor embeddings = eval::BuildEmbeddings(dataset, TinyConfig());
  auto session = std::make_shared<InferenceSession>(
      MakeModel(Method::kRnp, embeddings, TinyConfig()), dataset.vocab);
  router.ServeModel("beer", session);

  std::string text = DistinctText(dataset.vocab, 0, 5);
  registry.Predict("beer", text);
  registry.Predict("beer", text);

  // Each request takes one encoder-tier lookup, so the tier's hits and
  // misses are the per-request outcomes: one miss, then one hit.
  std::string exposition = metrics.ExportPrometheus();
  EXPECT_NE(exposition.find(
                "serve_cache_hits_total{model=\"beer\",tier=\"encoder\"} 1"),
            std::string::npos)
      << exposition;
  EXPECT_NE(
      exposition.find(
          "serve_cache_misses_total{model=\"beer\",tier=\"encoder\"} 1"),
      std::string::npos);
  EXPECT_NE(exposition.find("serve_cache_bytes{model=\"beer\","),
            std::string::npos);
  CacheTierStats enc =
      cache.Stats(session->cache_model_id(), ServeCache::kEncoderTierName);
  EXPECT_EQ(enc.misses, 1);
  EXPECT_EQ(enc.hits, 1);
  EXPECT_EQ(session->stats().Snapshot().requests, 2);
}

TEST(ServeCacheMetricsTest, EncoderLookupsCountedInStatsAndCounters) {
  obs::MetricsRegistry metrics;
  ServeCache cache(CacheConfig{}, &metrics);
  ServeCache::ModelId model = cache.RegisterModel("g");

  std::vector<int64_t> ids = {5, 6, 7};
  EXPECT_EQ(cache.LookupEncoderStates(model, ids), nullptr);
  cache.InsertEncoderStates(model, ids, Tensor(Shape{1, 3, 4}),
                            Tensor(Shape{1, 3, 4}));
  EXPECT_NE(cache.LookupEncoderStates(model, ids), nullptr);
  CacheTierStats enc = cache.Stats(model, ServeCache::kEncoderTierName);
  EXPECT_EQ(enc.hits, 1);
  EXPECT_EQ(enc.misses, 1);
  const std::vector<std::pair<std::string, std::string>> labels = {
      {"model", "g"}, {"tier", "encoder"}};
  EXPECT_EQ(
      metrics.GetCounter(obs::LabeledName("serve.cache_hits_total", labels))
          .value(),
      1);
  EXPECT_EQ(
      metrics.GetCounter(obs::LabeledName("serve.cache_misses_total", labels))
          .value(),
      1);
}

// ---- HTTP header mapping -----------------------------------------------------

TEST(ServeCacheHttpTest, PredictResponsesCarryCacheHeader) {
  net::RouterConfig router_config;
  router_config.serve.cache.enabled = true;
  ModelRegistry registry;
  net::Router router(registry, router_config);
  ASSERT_NE(router.cache(), nullptr);

  datasets::SyntheticDataset dataset = TinyDataset();
  Tensor embeddings = eval::BuildEmbeddings(dataset, TinyConfig());
  router.ServeModel("beer",
                    std::make_shared<InferenceSession>(
                        MakeModel(Method::kRnp, embeddings, TinyConfig()),
                        dataset.vocab));

  net::HttpRequest request;
  request.method = "POST";
  request.target = "/v1/models/beer/predict";
  request.version = "HTTP/1.1";
  request.body = "{\"text\": \"" + DistinctText(dataset.vocab, 0, 5) + "\"}";

  auto cache_header = [](const net::HttpResponse& response) -> std::string {
    for (const auto& [k, v] : response.extra_headers) {
      if (k == "X-DAR-Cache") return v;
    }
    return "";
  };
  net::HttpResponse first = router.Handle(request);
  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(cache_header(first), "miss");
  net::HttpResponse second = router.Handle(request);
  EXPECT_EQ(second.status, 200);
  EXPECT_EQ(cache_header(second), "hit");
  // Bodies are bit-identical across outcomes — the header is the only
  // observable difference.
  EXPECT_EQ(first.body, second.body);
}

}  // namespace
}  // namespace serve
}  // namespace dar

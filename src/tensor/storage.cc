#include "tensor/storage.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "sync/mutex.h"
#include "tensor/check.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DAR_STORAGE_ASAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define DAR_STORAGE_ASAN 1
#endif

#if defined(__linux__) && !defined(DAR_STORAGE_ASAN)
#define DAR_STORAGE_MAPPED 1
#include <sys/mman.h>
#include <unistd.h>
#else
#define DAR_STORAGE_MAPPED 0
#endif

namespace dar {
namespace storage {

#if DAR_STORAGE_MAPPED

namespace {

/// One mapping: its base address and its page-rounded length.
struct Mapping {
  char* base = nullptr;
  size_t bytes = 0;
};

/// Written just past a mapped buffer's last element, where Deallocate
/// finds it from the buffer's size. A mismatched check word means
/// something wrote past the buffer's end.
struct Footer {
  size_t bytes;
  size_t check;
};
constexpr size_t kFooterKey = 0x9e3779b97f4a7c15ull;

size_t PageBytes() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

size_t RoundUp(size_t n, size_t to) { return (n + to - 1) / to * to; }

size_t FooterOffset(size_t bytes) { return RoundUp(bytes, alignof(Footer)); }

size_t MappingBytes(size_t bytes) {
  return RoundUp(FooterOffset(bytes) + sizeof(Footer), PageBytes());
}

class ThreadCache;

/// The process-wide accounting and every thread's cached mappings, all
/// under one lock. It is held for a few comparisons per buffer of at least
/// 64 KiB, never across a system call.
class Pool {
 public:
  Pool()
      : from_cache_(SourceCounter("cache")),
        resized_(SourceCounter("resize")),
        mapped_(SourceCounter("map")),
        live_gauge_(StateGauge("live")),
        cached_gauge_(StateGauge("cached")) {}

  void* Allocate(size_t bytes, ThreadCache* cache);
  void Deallocate(char* base, size_t bytes, ThreadCache* cache);
  void Register(ThreadCache* cache);
  void Retire(ThreadCache* cache);
  Stats GetStats(const ThreadCache* cache);

 private:
  enum class Source { kCache, kResize, kMap };

  static obs::Counter& SourceCounter(const char* source) {
    return obs::MetricsRegistry::Global().GetCounter(
        obs::LabeledName("tensor_buffers_total", {{"source", source}}));
  }
  static obs::Gauge& StateGauge(const char* state) {
    return obs::MetricsRegistry::Global().GetGauge(
        obs::LabeledName("tensor_mapped_bytes", {{"state", state}}));
  }

  /// The `i`-th of the caches (0 <= i <= caches_.size()) in the order
  /// they are searched and evicted from: `own`, the calling thread's,
  /// first, then every other thread's. Null for a slot to skip.
  ThreadCache* NthCache(ThreadCache* own, size_t i) DAR_REQUIRES(mu_);
  /// Takes a cached mapping for a request needing `need` bytes: the
  /// smallest that fits within the slack (kCache), else one to resize
  /// (kResize): the largest smaller one, or the smallest larger one when
  /// none is smaller. Each looks in `own` before other threads' caches,
  /// so threads whose peaks do not coincide share one set of mappings
  /// under the bound. kMap, with `from` empty, when every cache is empty.
  Source Take(ThreadCache* own, size_t need, Mapping& from)
      DAR_REQUIRES(mu_);
  /// Moves cached mappings into `evicted` until live + cached is back
  /// under the high-water mark (which already counts the new live bytes).
  void EvictOverBound(ThreadCache* own, std::vector<Mapping>& evicted)
      DAR_REQUIRES(mu_);
  void PublishBytes() DAR_REQUIRES(mu_);

  sync::Mutex mu_{sync::Rank::kTensorStorage, "tensor.storage"};
  size_t live_ DAR_GUARDED_BY(mu_) = 0;
  size_t cached_ DAR_GUARDED_BY(mu_) = 0;
  size_t high_water_ DAR_GUARDED_BY(mu_) = 0;
  std::vector<ThreadCache*> caches_ DAR_GUARDED_BY(mu_);
  obs::Counter& from_cache_;
  obs::Counter& resized_;
  obs::Counter& mapped_;
  obs::Gauge& live_gauge_;
  obs::Gauge& cached_gauge_;
};

Pool& GetPool() {
  static Pool& pool = *new Pool;  // outlives every thread's cache
  return pool;
}

/// One thread's freed mappings, sorted by size. Only the pool touches
/// them, under its lock.
class ThreadCache {
 public:
  ThreadCache() { GetPool().Register(this); }
  ~ThreadCache();
  ThreadCache(const ThreadCache&) = delete;
  ThreadCache& operator=(const ThreadCache&) = delete;

  std::vector<Mapping> entries;
};

/// Set when this thread's cache is destroyed at thread exit; later frees
/// on the thread unmap at once. Trivially destructible, so it stays
/// readable for the whole thread.
thread_local bool t_cache_gone = false;

ThreadCache::~ThreadCache() {
  t_cache_gone = true;
  GetPool().Retire(this);
}

ThreadCache* ThisThreadCache() {
  if (t_cache_gone) return nullptr;
  thread_local ThreadCache cache;
  return &cache;
}

void Unmap(const Mapping& m) { munmap(m.base, m.bytes); }

void Pool::Register(ThreadCache* cache) {
  sync::MutexLock lock(mu_);
  caches_.push_back(cache);
}

void Pool::Retire(ThreadCache* cache) {
  std::vector<Mapping> evicted;
  {
    sync::MutexLock lock(mu_);
    caches_.erase(std::find(caches_.begin(), caches_.end(), cache));
    for (const Mapping& m : cache->entries) cached_ -= m.bytes;
    evicted.swap(cache->entries);
    PublishBytes();
  }
  for (const Mapping& m : evicted) Unmap(m);
}

/// The first of `entries` (sorted by size) holding at least `bytes`.
std::vector<Mapping>::iterator FirstAtLeast(std::vector<Mapping>& entries,
                                            size_t bytes) {
  return std::lower_bound(
      entries.begin(), entries.end(), bytes,
      [](const Mapping& m, size_t n) { return m.bytes < n; });
}

ThreadCache* Pool::NthCache(ThreadCache* own, size_t i) {
  if (i == 0) return own;
  ThreadCache* cache = caches_[i - 1];
  return cache == own ? nullptr : cache;
}

Pool::Source Pool::Take(ThreadCache* own, size_t need, Mapping& from) {
  for (const Source source : {Source::kCache, Source::kResize}) {
    for (size_t i = 0; i <= caches_.size(); ++i) {
      ThreadCache* cache = NthCache(own, i);
      if (cache == nullptr || cache->entries.empty()) continue;
      std::vector<Mapping>& entries = cache->entries;
      auto it = FirstAtLeast(entries, need);
      if (source == Source::kCache) {
        if (it == entries.end() ||
            it->bytes * kFitSlackDen > need * kFitSlackNum) {
          continue;
        }
      } else if (it != entries.begin()) {
        --it;
      }
      from = *it;
      entries.erase(it);
      return source;
    }
  }
  return Source::kMap;
}

void Pool::EvictOverBound(ThreadCache* own, std::vector<Mapping>& evicted) {
  size_t excess = live_ + cached_ - std::min(live_ + cached_, high_water_);
  // The smallest entry that covers the excess, else the largest; the own
  // thread's cache first (high_water_ >= live_, so cached_ covers it).
  for (size_t i = 0; excess > 0 && i <= caches_.size(); ++i) {
    ThreadCache* cache = NthCache(own, i);
    if (cache == nullptr) continue;
    std::vector<Mapping>& entries = cache->entries;
    while (excess > 0 && !entries.empty()) {
      auto victim = FirstAtLeast(entries, excess);
      if (victim == entries.end()) --victim;
      evicted.push_back(*victim);
      cached_ -= victim->bytes;
      excess -= std::min(excess, victim->bytes);
      entries.erase(victim);
    }
  }
}

void Pool::PublishBytes() {
  live_gauge_.Set(static_cast<double>(live_));
  cached_gauge_.Set(static_cast<double>(cached_));
}

void* Pool::Allocate(size_t bytes, ThreadCache* cache) {
  const size_t need = MappingBytes(bytes);
  Mapping from;
  Source source = Source::kMap;
  std::vector<Mapping> evicted;
  {
    sync::MutexLock lock(mu_);
    source = Take(cache, need, from);
    cached_ -= from.bytes;
    live_ += source == Source::kCache ? from.bytes : need;
    high_water_ = std::max(high_water_, live_);
    if (source != Source::kCache) EvictOverBound(cache, evicted);
    PublishBytes();
  }
  for (const Mapping& m : evicted) Unmap(m);

  Mapping got = from;
  if (source == Source::kResize) {
    void* moved = mremap(from.base, from.bytes, need, MREMAP_MAYMOVE);
    if (moved == MAP_FAILED) {
      Unmap(from);
      source = Source::kMap;
    } else {
      got = {static_cast<char*>(moved), need};
    }
  }
  if (source == Source::kMap) {
    void* fresh = mmap(nullptr, need, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (fresh == MAP_FAILED) {
      sync::MutexLock lock(mu_);
      live_ -= need;
      PublishBytes();
      throw std::bad_alloc();
    }
    got = {static_cast<char*>(fresh), need};
  }
  (source == Source::kCache    ? from_cache_
   : source == Source::kResize ? resized_
                               : mapped_)
      .Increment();
  const Footer footer{got.bytes, got.bytes ^ kFooterKey};
  std::memcpy(got.base + FooterOffset(bytes), &footer, sizeof(footer));
  return got.base;
}

void Pool::Deallocate(char* base, size_t bytes, ThreadCache* cache) {
  Footer footer{};
  std::memcpy(&footer, base + FooterOffset(bytes), sizeof(footer));
  DAR_CHECK_MSG(footer.check == (footer.bytes ^ kFooterKey),
                "a tensor buffer's footer was overwritten: something wrote "
                "past the buffer's end");
  const Mapping m{base, footer.bytes};
  {
    // Moving the bytes from live to cached keeps live + cached where the
    // allocations left it, so a release never passes the bound.
    sync::MutexLock lock(mu_);
    live_ -= m.bytes;
    if (cache != nullptr) {
      std::vector<Mapping>& entries = cache->entries;
      entries.insert(
          std::upper_bound(entries.begin(), entries.end(), m.bytes,
                           [](size_t n, const Mapping& e) { return n < e.bytes; }),
          m);
      cached_ += m.bytes;
    }
    PublishBytes();
  }
  if (cache == nullptr) Unmap(m);
}

Stats Pool::GetStats(const ThreadCache* cache) {
  Stats stats;
  sync::MutexLock lock(mu_);
  stats.live_bytes = static_cast<int64_t>(live_);
  stats.cached_bytes = static_cast<int64_t>(cached_);
  stats.high_water_bytes = static_cast<int64_t>(high_water_);
  if (cache != nullptr) {
    for (const Mapping& m : cache->entries) {
      stats.thread_cached_bytes += static_cast<int64_t>(m.bytes);
    }
  }
  stats.from_cache = from_cache_.value();
  stats.resized = resized_.value();
  stats.mapped = mapped_.value();
  return stats;
}

}  // namespace

bool MappedStorageEnabled() { return true; }

void* Allocate(size_t bytes) {
  if (bytes < kMappedMinBytes) return ::operator new(bytes);
  return GetPool().Allocate(bytes, ThisThreadCache());
}

void Deallocate(void* p, size_t bytes) noexcept {
  if (bytes < kMappedMinBytes) {
    ::operator delete(p, bytes);
    return;
  }
  GetPool().Deallocate(static_cast<char*>(p), bytes, ThisThreadCache());
}

Stats GetStats() { return GetPool().GetStats(ThisThreadCache()); }

#else  // !DAR_STORAGE_MAPPED

bool MappedStorageEnabled() { return false; }

void* Allocate(size_t bytes) { return ::operator new(bytes); }

void Deallocate(void* p, size_t bytes) noexcept { ::operator delete(p, bytes); }

Stats GetStats() { return Stats{}; }

#endif  // DAR_STORAGE_MAPPED

}  // namespace storage
}  // namespace dar

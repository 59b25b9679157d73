// Counting replacement of the global allocation functions. Only the traced
// binary links this file.
#include <atomic>
#include <cstdlib>
#include <new>

#include "alloc_count.h"

namespace {

/// Counters striped across cache lines so server threads allocating at
/// once do not contend on one line.
constexpr int kStripes = 16;
struct alignas(64) Stripe {
  std::atomic<int64_t> count{0};
};
Stripe g_stripes[kStripes];
std::atomic<bool> g_counting{false};
std::atomic<int> g_next_stripe{0};
thread_local int t_stripe = -1;

void Count() {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  if (t_stripe < 0) {
    t_stripe = g_next_stripe.fetch_add(1, std::memory_order_relaxed) % kStripes;
  }
  g_stripes[t_stripe].count.fetch_add(1, std::memory_order_relaxed);
}

void* Allocate(std::size_t size) {
  Count();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  Count();
  const std::size_t alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  Count();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  Count();
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dar {
namespace e2e {

bool AllocationCountingAvailable() { return true; }

void SetAllocationCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

int64_t AllocationCount() {
  int64_t total = 0;
  for (const Stripe& stripe : g_stripes) {
    total += stripe.count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace e2e
}  // namespace dar
